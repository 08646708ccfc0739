//! Scalar per-trial metrics — the lingua franca of the sweep engine.
//!
//! Every simulator's raw output converts into a [`TrialSummary`] (via
//! `From`), so the generic [`crate::engine::Sweep`] can aggregate trials
//! from any simulator uniformly. The summary is made *inside* the worker
//! thread, so large per-station vectors are dropped before results are
//! collected and big abstract sweeps stay memory-light; the windowed
//! backends go further and tally it directly
//! ([`Simulator::summarize_with`](crate::engine::Simulator::summarize_with)),
//! never building the per-station vectors at all.

use contention_core::metrics::BatchMetrics;
use contention_core::time::Nanos;

/// Everything a figure might plot, extracted from one trial.
///
/// Times are in microseconds (the unit of every figure axis in the paper).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct TrialSummary {
    pub n: u32,
    pub successes: u32,
    pub cw_slots: f64,
    pub half_cw_slots: f64,
    pub total_time_us: f64,
    pub half_time_us: f64,
    pub collisions: f64,
    pub colliding_stations: f64,
    /// Total ACK timeouts across stations ≡ station-level collision events.
    pub ack_timeouts: f64,
    pub max_ack_timeouts: f64,
    pub max_ack_timeout_time_us: f64,
    /// Median BEST-OF-k estimate across stations (0 when not estimating).
    pub median_estimate: f64,
    // --- dynamic-traffic fields (0 for the single-batch simulators). The
    // dynamic engine's `n` axis is not a station count: depending on
    // `DynAxis` it selects a cost model or an offered-load level.
    /// Packets offered (arrived) within the horizon.
    pub offered: f64,
    /// Completed / offered (1.0 when every packet drained).
    pub completion_rate: f64,
    /// Wall-clock length of the trial in slots (≥ horizon).
    pub wall_slots: f64,
    pub mean_latency_slots: f64,
    pub p50_latency_slots: f64,
    pub p95_latency_slots: f64,
    pub p99_latency_slots: f64,
    pub max_latency_slots: f64,
    /// Completed packets per wall slot.
    pub throughput_pkts_per_slot: f64,
}

impl TrialSummary {
    /// Extracts the summary, dropping the per-station detail.
    pub fn from_metrics(m: &BatchMetrics) -> TrialSummary {
        TrialSummary::from_totals(
            m,
            m.total_ack_timeouts(),
            m.max_ack_timeouts(),
            m.max_ack_timeout_time(),
        )
    }

    /// The summary of `m`'s scalar fields plus the three per-station
    /// statistics, supplied by a caller that tallied them without a station
    /// table (`m.stations` is not read): total ACK timeouts, the most any
    /// one station took, and that station's ACK-timeout time.
    pub fn from_totals(
        m: &BatchMetrics,
        ack_timeouts: u64,
        max_ack_timeouts: u32,
        max_ack_timeout_time: Nanos,
    ) -> TrialSummary {
        TrialSummary {
            n: m.n,
            successes: m.successes,
            cw_slots: m.cw_slots as f64,
            half_cw_slots: m.half_cw_slots as f64,
            total_time_us: m.total_time.as_micros_f64(),
            half_time_us: m.half_time.as_micros_f64(),
            collisions: m.collisions as f64,
            colliding_stations: m.colliding_stations as f64,
            ack_timeouts: ack_timeouts as f64,
            max_ack_timeouts: max_ack_timeouts as f64,
            max_ack_timeout_time_us: max_ack_timeout_time.as_micros_f64(),
            ..TrialSummary::default()
        }
    }

    /// Attaches a per-trial estimate statistic (BEST-OF-k sweeps).
    pub fn with_estimates(mut self, estimates: &[Option<u32>]) -> TrialSummary {
        let mut vals: Vec<f64> = estimates.iter().flatten().map(|&w| w as f64).collect();
        if !vals.is_empty() {
            vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            self.median_estimate = vals[vals.len() / 2];
        }
        self
    }
}

impl From<BatchMetrics> for TrialSummary {
    fn from(m: BatchMetrics) -> TrialSummary {
        TrialSummary::from_metrics(&m)
    }
}

/// The metric a figure plots; selects a field of [`TrialSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    Successes,
    CwSlots,
    HalfCwSlots,
    TotalTimeUs,
    HalfTimeUs,
    Collisions,
    CollidingStations,
    AckTimeouts,
    MaxAckTimeouts,
    MaxAckTimeoutTimeUs,
    MedianEstimate,
    // Dynamic-traffic metrics (streaming arrivals; latencies in slots).
    Offered,
    CompletionRate,
    WallSlots,
    MeanLatencySlots,
    P50LatencySlots,
    P95LatencySlots,
    P99LatencySlots,
    MaxLatencySlots,
    Throughput,
}

impl Metric {
    /// Every metric, in [`TrialSummary`] field order — for consumers that
    /// need the full per-trial record through the streaming path.
    pub const ALL: [Metric; 20] = [
        Metric::Successes,
        Metric::CwSlots,
        Metric::HalfCwSlots,
        Metric::TotalTimeUs,
        Metric::HalfTimeUs,
        Metric::Collisions,
        Metric::CollidingStations,
        Metric::AckTimeouts,
        Metric::MaxAckTimeouts,
        Metric::MaxAckTimeoutTimeUs,
        Metric::MedianEstimate,
        Metric::Offered,
        Metric::CompletionRate,
        Metric::WallSlots,
        Metric::MeanLatencySlots,
        Metric::P50LatencySlots,
        Metric::P95LatencySlots,
        Metric::P99LatencySlots,
        Metric::MaxLatencySlots,
        Metric::Throughput,
    ];

    pub fn extract(self, t: &TrialSummary) -> f64 {
        match self {
            Metric::Successes => t.successes as f64,
            Metric::CwSlots => t.cw_slots,
            Metric::HalfCwSlots => t.half_cw_slots,
            Metric::TotalTimeUs => t.total_time_us,
            Metric::HalfTimeUs => t.half_time_us,
            Metric::Collisions => t.collisions,
            Metric::CollidingStations => t.colliding_stations,
            Metric::AckTimeouts => t.ack_timeouts,
            Metric::MaxAckTimeouts => t.max_ack_timeouts,
            Metric::MaxAckTimeoutTimeUs => t.max_ack_timeout_time_us,
            Metric::MedianEstimate => t.median_estimate,
            Metric::Offered => t.offered,
            Metric::CompletionRate => t.completion_rate,
            Metric::WallSlots => t.wall_slots,
            Metric::MeanLatencySlots => t.mean_latency_slots,
            Metric::P50LatencySlots => t.p50_latency_slots,
            Metric::P95LatencySlots => t.p95_latency_slots,
            Metric::P99LatencySlots => t.p99_latency_slots,
            Metric::MaxLatencySlots => t.max_latency_slots,
            Metric::Throughput => t.throughput_pkts_per_slot,
        }
    }

    /// Stable machine-readable identifier, round-trippable through
    /// [`Metric::from_key`] — what serialized artifacts (e.g. the
    /// `shard_state/v1` files) store instead of the display label.
    pub fn key(self) -> &'static str {
        match self {
            Metric::Successes => "successes",
            Metric::CwSlots => "cw_slots",
            Metric::HalfCwSlots => "half_cw_slots",
            Metric::TotalTimeUs => "total_time_us",
            Metric::HalfTimeUs => "half_time_us",
            Metric::Collisions => "collisions",
            Metric::CollidingStations => "colliding_stations",
            Metric::AckTimeouts => "ack_timeouts",
            Metric::MaxAckTimeouts => "max_ack_timeouts",
            Metric::MaxAckTimeoutTimeUs => "max_ack_timeout_time_us",
            Metric::MedianEstimate => "median_estimate",
            Metric::Offered => "offered",
            Metric::CompletionRate => "completion_rate",
            Metric::WallSlots => "wall_slots",
            Metric::MeanLatencySlots => "mean_latency_slots",
            Metric::P50LatencySlots => "p50_latency_slots",
            Metric::P95LatencySlots => "p95_latency_slots",
            Metric::P99LatencySlots => "p99_latency_slots",
            Metric::MaxLatencySlots => "max_latency_slots",
            Metric::Throughput => "throughput_pkts_per_slot",
        }
    }

    /// Parses a [`Metric::key`] string back into the metric.
    pub fn from_key(key: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.key() == key)
    }

    /// Axis label used in table headers.
    pub fn label(self) -> &'static str {
        match self {
            Metric::Successes => "successes",
            Metric::CwSlots => "CW slots",
            Metric::HalfCwSlots => "CW slots (n/2)",
            Metric::TotalTimeUs => "total time (µs)",
            Metric::HalfTimeUs => "time for n/2 (µs)",
            Metric::Collisions => "disjoint collisions",
            Metric::CollidingStations => "collision participants",
            Metric::AckTimeouts => "total ACK timeouts",
            Metric::MaxAckTimeouts => "max ACK timeouts",
            Metric::MaxAckTimeoutTimeUs => "max ACK-timeout time (µs)",
            Metric::MedianEstimate => "estimate of n",
            Metric::Offered => "offered packets",
            Metric::CompletionRate => "completion rate",
            Metric::WallSlots => "wall slots",
            Metric::MeanLatencySlots => "mean latency (slots)",
            Metric::P50LatencySlots => "p50 latency (slots)",
            Metric::P95LatencySlots => "p95 latency (slots)",
            Metric::P99LatencySlots => "p99 latency (slots)",
            Metric::MaxLatencySlots => "max latency (slots)",
            Metric::Throughput => "throughput (pkts/slot)",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use contention_core::metrics::StationMetrics;

    fn metrics() -> BatchMetrics {
        BatchMetrics {
            n: 2,
            successes: 2,
            total_time: Nanos::from_micros(1_500),
            half_time: Nanos::from_micros(700),
            cw_slots: 42,
            half_cw_slots: 17,
            collisions: 3,
            colliding_stations: 7,
            stations: vec![
                StationMetrics {
                    ack_timeouts: 4,
                    ack_timeout_time: Nanos::from_micros(300),
                    ..StationMetrics::default()
                },
                StationMetrics::default(),
            ],
        }
    }

    #[test]
    fn all_lists_every_metric_exactly_once() {
        // Exhaustive match, no wildcard: adding a `Metric` variant fails to
        // compile here — update `Metric::ALL` in the same change.
        fn listed(m: Metric) {
            match m {
                Metric::Successes
                | Metric::CwSlots
                | Metric::HalfCwSlots
                | Metric::TotalTimeUs
                | Metric::HalfTimeUs
                | Metric::Collisions
                | Metric::CollidingStations
                | Metric::AckTimeouts
                | Metric::MaxAckTimeouts
                | Metric::MaxAckTimeoutTimeUs
                | Metric::MedianEstimate
                | Metric::Offered
                | Metric::CompletionRate
                | Metric::WallSlots
                | Metric::MeanLatencySlots
                | Metric::P50LatencySlots
                | Metric::P95LatencySlots
                | Metric::P99LatencySlots
                | Metric::MaxLatencySlots
                | Metric::Throughput => {}
            }
        }
        for m in Metric::ALL {
            listed(m);
        }
        for (i, m) in Metric::ALL.iter().enumerate() {
            assert!(!Metric::ALL[..i].contains(m), "duplicate {m:?} in ALL");
        }
    }

    #[test]
    fn keys_round_trip_every_metric() {
        for m in Metric::ALL {
            assert_eq!(Metric::from_key(m.key()), Some(m), "{m:?}");
        }
        assert_eq!(Metric::from_key("not_a_metric"), None);
    }

    #[test]
    fn extraction_matches_fields() {
        let t = TrialSummary::from_metrics(&metrics());
        assert_eq!(Metric::Successes.extract(&t), 2.0);
        assert_eq!(Metric::CwSlots.extract(&t), 42.0);
        assert_eq!(Metric::HalfCwSlots.extract(&t), 17.0);
        assert_eq!(Metric::TotalTimeUs.extract(&t), 1_500.0);
        assert_eq!(Metric::HalfTimeUs.extract(&t), 700.0);
        assert_eq!(Metric::Collisions.extract(&t), 3.0);
        assert_eq!(Metric::AckTimeouts.extract(&t), 4.0);
        assert_eq!(Metric::MaxAckTimeouts.extract(&t), 4.0);
        assert_eq!(Metric::MaxAckTimeoutTimeUs.extract(&t), 300.0);
    }

    #[test]
    fn from_batch_metrics_matches_from_metrics() {
        let m = metrics();
        assert_eq!(
            TrialSummary::from(m.clone()),
            TrialSummary::from_metrics(&m)
        );
    }

    #[test]
    fn estimates_attach_median() {
        let t = TrialSummary::from_metrics(&metrics()).with_estimates(&[
            Some(128),
            Some(256),
            Some(512),
            None,
        ]);
        assert_eq!(t.median_estimate, 256.0);
    }

    #[test]
    fn no_estimates_stay_zero() {
        let t = TrialSummary::from_metrics(&metrics()).with_estimates(&[None, None]);
        assert_eq!(t.median_estimate, 0.0);
    }
}
