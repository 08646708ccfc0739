//! Metric types shared by the abstract and MAC simulators.
//!
//! The paper's two headline metrics (§III, "Our Metrics"):
//!
//! * **Contention-window slots (CW slots)** — slots belonging to contention
//!   windows consumed until every packet succeeds; what the theory calls
//!   makespan.
//! * **Total time** — wall-clock from batch arrival to last success,
//!   including transmissions, SIFS/DIFS, ACKs and ACK timeouts. Only the MAC
//!   simulator can measure it.
//!
//! Plus the diagnostics of §III-B: disjoint collisions, per-station ACK
//! timeouts (Figure 11) and time spent waiting in ACK timeouts (Figure 12).

use crate::time::Nanos;

/// Per-station accounting (one packet per station in the single-batch case).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StationMetrics {
    /// Transmission attempts, including the final successful one.
    pub attempts: u32,
    /// ACK timeouts suffered ≡ collisions this station was part of
    /// (the paper's "ACK timeout ≈ collision" identification).
    pub ack_timeouts: u32,
    /// Total time spent waiting out ACK timeouts.
    pub ack_timeout_time: Nanos,
    /// Instant the station's packet was acknowledged, if it finished.
    pub success_time: Option<Nanos>,
    /// Backoff slots this station personally counted down.
    pub backoff_slots: u64,
}

/// Result of simulating one single-batch trial.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchMetrics {
    /// Number of stations/packets in the batch.
    pub n: u32,
    /// Packets that completed (equals `n` unless the run was truncated).
    pub successes: u32,
    /// Total time: batch arrival → last ACK received. Zero for the abstract
    /// simulator, which has no notion of wall-clock time.
    pub total_time: Nanos,
    /// Time until ⌈n/2⌉ packets had succeeded (Figures 9–10).
    pub half_time: Nanos,
    /// Global contention-window slots elapsed until the last success
    /// (Figures 3–5).
    pub cw_slots: u64,
    /// CW slots elapsed until ⌈n/2⌉ packets had succeeded (Figure 6).
    pub half_cw_slots: u64,
    /// Disjoint collisions: maximal groups of temporally overlapping failed
    /// transmissions (§III-B "Disjoint Collisions").
    pub collisions: u64,
    /// Total stations involved across all collisions (≥ 2 × `collisions`);
    /// `colliding_stations / collisions` is the mean collision multiplicity
    /// the §III-B discussion attributes slow-backoff's cost to.
    pub colliding_stations: u64,
    /// Per-station detail.
    pub stations: Vec<StationMetrics>,
}

impl BatchMetrics {
    /// Figure 11's statistic: the maximum number of ACK timeouts suffered by
    /// any single station.
    pub fn max_ack_timeouts(&self) -> u32 {
        self.stations
            .iter()
            .map(|s| s.ack_timeouts)
            .max()
            .unwrap_or(0)
    }

    /// Figure 12's statistic: ACK-timeout waiting time of the station with
    /// the most ACK timeouts.
    pub fn max_ack_timeout_time(&self) -> Nanos {
        self.stations
            .iter()
            .max_by_key(|s| (s.ack_timeouts, s.ack_timeout_time))
            .map(|s| s.ack_timeout_time)
            .unwrap_or(Nanos::ZERO)
    }

    /// Mean number of stations per disjoint collision (≥ 2 when any
    /// collision occurred).
    pub fn mean_collision_multiplicity(&self) -> f64 {
        if self.collisions == 0 {
            0.0
        } else {
            self.colliding_stations as f64 / self.collisions as f64
        }
    }

    /// Total transmission attempts across stations.
    pub fn total_attempts(&self) -> u64 {
        self.stations.iter().map(|s| s.attempts as u64).sum()
    }

    /// Sum of per-station ACK timeouts — the total number of station-level
    /// collision events (each disjoint collision contributes its
    /// multiplicity).
    pub fn total_ack_timeouts(&self) -> u64 {
        self.stations.iter().map(|s| s.ack_timeouts as u64).sum()
    }

    /// Sanity relation: every attempt either succeeded or timed out.
    /// (Only meaningful for MAC runs that completed all packets.)
    pub fn attempts_balance(&self) -> bool {
        self.total_attempts() == self.successes as u64 + self.total_ack_timeouts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BatchMetrics {
        BatchMetrics {
            n: 3,
            successes: 3,
            total_time: Nanos::from_micros(1_000),
            half_time: Nanos::from_micros(400),
            cw_slots: 50,
            half_cw_slots: 20,
            collisions: 2,
            colliding_stations: 5,
            stations: vec![
                StationMetrics {
                    attempts: 2,
                    ack_timeouts: 1,
                    ack_timeout_time: Nanos::from_micros(75),
                    success_time: Some(Nanos::from_micros(500)),
                    backoff_slots: 10,
                },
                StationMetrics {
                    attempts: 3,
                    ack_timeouts: 2,
                    ack_timeout_time: Nanos::from_micros(150),
                    success_time: Some(Nanos::from_micros(900)),
                    backoff_slots: 12,
                },
                StationMetrics {
                    attempts: 3,
                    ack_timeouts: 2,
                    ack_timeout_time: Nanos::from_micros(150),
                    success_time: Some(Nanos::from_micros(1_000)),
                    backoff_slots: 9,
                },
            ],
        }
    }

    #[test]
    fn max_ack_timeouts_and_time() {
        let m = sample();
        assert_eq!(m.max_ack_timeouts(), 2);
        assert_eq!(m.max_ack_timeout_time(), Nanos::from_micros(150));
    }

    #[test]
    fn collision_multiplicity() {
        let m = sample();
        assert!((m.mean_collision_multiplicity() - 2.5).abs() < 1e-12);
        let empty = BatchMetrics {
            collisions: 0,
            ..sample()
        };
        assert_eq!(empty.mean_collision_multiplicity(), 0.0);
    }

    #[test]
    fn attempts_balance_holds_for_consistent_run() {
        let m = sample();
        // 8 attempts = 3 successes + 5 ACK timeouts.
        assert_eq!(m.total_attempts(), 8);
        assert_eq!(m.total_ack_timeouts(), 5);
        assert!(m.attempts_balance());
    }

    #[test]
    fn empty_metrics_are_safe() {
        let m = BatchMetrics::default();
        assert_eq!(m.max_ack_timeouts(), 0);
        assert_eq!(m.max_ack_timeout_time(), Nanos::ZERO);
        assert_eq!(m.mean_collision_multiplicity(), 0.0);
        assert!(m.attempts_balance());
    }
}
