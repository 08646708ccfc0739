//! Reference simulators: the windowed and dynamic models written as
//! plainly as possible, to check the fast engines against and to time them
//! against.
//!
//! * [`windowed`] is Figure 2's aligned-window model over any channel:
//!   one loop per window, in which every alive station draws its slot in
//!   alive order, a `Vec` counts each slot's senders, and the occupied
//!   slots resolve in ascending order through `ChannelModel::sample_slot`.
//!   That is the RNG contract of [`crate::noisy`], so the result equals
//!   [`crate::NoisySim::run`] bit for bit, per-station table included.
//! * [`dynamic`] is the dynamic-traffic model of [`crate::dynamic`]: the
//!   same arrival stream, an ordered set of pending timers, one
//!   [`Schedule`] per packet and every latency kept exactly. Packets that
//!   fire in the same slot redraw in the order their timers were set. The
//!   fast engine's calendar queue keeps that order too, except for timers
//!   set more than its ring width ahead, which rejoin in packet-id order; a
//!   collision among those is the one place the two can draw differently.
//!
//! Both favour obviousness over speed: they allocate per window or per
//! packet and never reuse a buffer.
//!
//! Everything here is generic or `#[inline]`, so this module adds no code to
//! the crate's own build: with two plain methods and derived impls in it,
//! the window loop's code moved and `repro scale --full` ran ~20 % slower
//! on the same host.

use crate::dynamic::{ArrivalGen, DynamicConfig};
use crate::noisy::NoisyConfig;
use contention_core::channel::SlotFate;
use contention_core::metrics::{BatchMetrics, StationMetrics};
use contention_core::rng::DrawBuffer;
use contention_core::schedule::{Schedule, WindowSchedule};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// One single-batch trial of `n` stations under `config`.
pub fn windowed<R: Rng>(config: &NoisyConfig, n: u32, rng: &mut R) -> BatchMetrics {
    let mut schedule = config
        .algorithm
        .schedule(config.truncation)
        .expect("the windowed model needs a static window schedule");
    // Never prefilled, so every draw comes straight from `rng`.
    let mut draws = DrawBuffer::default();
    let mut stations = vec![StationMetrics::default(); n as usize];
    let mut alive: Vec<usize> = (0..n as usize).collect();
    // The 1-based slot of every success, counted from the first window.
    let mut success_slots: Vec<u64> = Vec::new();
    let mut metrics = BatchMetrics {
        n,
        ..BatchMetrics::default()
    };
    let mut elapsed = 0u64;
    let mut windows = 0u32;
    while !alive.is_empty() && (config.max_windows == 0 || windows < config.max_windows) {
        windows += 1;
        let width = schedule.next_window() as usize;
        let drawn: Vec<usize> = alive
            .iter()
            .map(|_| draws.uniform_below(rng, width as u64) as usize)
            .collect();
        let mut senders = vec![0u32; width];
        for &slot in &drawn {
            senders[slot] += 1;
        }
        // Which of a slot's senders (in draw order) gets through, if any.
        let mut winner: Vec<Option<u32>> = vec![None; width];
        for (slot, &k) in senders.iter().enumerate() {
            if k == 0 {
                continue;
            }
            if k >= 2 {
                metrics.collisions += 1;
                metrics.colliding_stations += k as u64;
            }
            if let SlotFate::Delivered { winner: w } = config.channel.sample_slot(k, rng) {
                winner[slot] = Some(w);
            }
        }
        let mut rank = vec![0u32; width];
        let mut survivors = Vec::new();
        for (&station, &slot) in alive.iter().zip(&drawn) {
            let s = &mut stations[station];
            s.attempts += 1;
            s.backoff_slots += slot as u64;
            if winner[slot] == Some(rank[slot]) {
                let at = elapsed + slot as u64 + 1;
                s.success_time = Some(config.slot * at);
                success_slots.push(at);
            } else {
                s.ack_timeouts += 1;
                survivors.push(station);
            }
            rank[slot] += 1;
        }
        alive = survivors;
        elapsed += width as u64;
    }

    success_slots.sort_unstable();
    metrics.successes = success_slots.len() as u32;
    let half = n.div_ceil(2) as usize;
    if half > 0 && success_slots.len() >= half {
        metrics.half_cw_slots = success_slots[half - 1];
    }
    if metrics.successes == n {
        metrics.cw_slots = success_slots.last().copied().unwrap_or(0);
        metrics.total_time = config.slot * metrics.cw_slots;
    } else {
        // Stopped by `max_windows`: report the span of the windows opened.
        metrics.total_time = config.slot * elapsed;
    }
    metrics.half_time = config.slot * metrics.half_cw_slots;
    metrics.stations = stations;
    metrics
}

/// What a [`dynamic`] run reports: [`crate::DynamicMetrics`]' counts, with
/// the exact latency of every completed packet in place of its histogram.
pub struct DynamicOutcome {
    pub offered: u64,
    pub wall_slots: u64,
    pub collisions: u64,
    /// Arrival → end of the successful exchange, in wall slots, one entry
    /// per completed packet in completion order.
    pub latencies: Vec<u64>,
}

impl DynamicOutcome {
    #[inline]
    pub fn completed(&self) -> u64 {
        self.latencies.len() as u64
    }

    /// Exact mean latency, computed the way the histogram computes it.
    #[inline]
    pub fn mean_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return 0.0;
        }
        let sum: u128 = self.latencies.iter().map(|&l| l as u128).sum();
        sum as f64 / self.latencies.len() as f64
    }
}

/// One dynamic-traffic trial under `config`, run as given (no sweep axis).
///
/// Timers count idle slots: a busy channel freezes every countdown, so a
/// timer set for idle slot `x` fires at wall slot `x + busy`, where `busy`
/// is the busy time accumulated by then.
pub fn dynamic<R: Rng>(config: &DynamicConfig, rng: &mut R) -> DynamicOutcome {
    config.validate();
    let new_schedule = || {
        config
            .algorithm
            .schedule(config.truncation)
            .expect("validated: a static window schedule")
    };
    let mut arrivals = ArrivalGen::new(
        config.arrivals,
        config.horizon_slots,
        SmallRng::seed_from_u64(rng.next_u64()),
    );
    let mut pending = arrivals.next();
    let mut draws = DrawBuffer::default();
    // Every packet that arrived: (arrival wall slot, its window schedule).
    let mut packets: Vec<(u64, Schedule)> = Vec::new();
    // Pending timers as (idle slot, set order, packet): the next to fire is
    // the first, and timers due in the same slot fire in the order set.
    let mut timers: BTreeSet<(u64, u64, usize)> = BTreeSet::new();
    let mut set_order = 0u64;
    let mut set_timer = |timers: &mut BTreeSet<(u64, u64, usize)>, at: u64, packet: usize| {
        timers.insert((at, set_order, packet));
        set_order += 1;
    };

    let deadline = config.horizon_slots + config.drain_slots;
    let mut busy = 0u64;
    let mut next_idle = 0u64;
    let mut wall_now = 0u64;
    let mut outcome = DynamicOutcome {
        offered: 0,
        wall_slots: 0,
        collisions: 0,
        latencies: Vec::new(),
    };
    loop {
        // Take in every arrival due no later than the next timer.
        while let Some((wall, count)) = pending {
            if timers.first().is_some_and(|&(x, _, _)| wall > x + busy) {
                break;
            }
            pending = arrivals.next();
            outcome.offered += count as u64;
            // An arrival during a busy period starts counting when it ends.
            let idle = wall.saturating_sub(busy).max(next_idle);
            for _ in 0..count {
                let mut schedule = new_schedule();
                let timer = draws.uniform_below(rng, schedule.next_window() as u64);
                packets.push((wall, schedule));
                set_timer(&mut timers, idle + timer, packets.len() - 1);
            }
        }

        let Some(&(x, _, _)) = timers.first() else {
            break;
        };
        wall_now = x + busy;
        if wall_now > deadline {
            break;
        }
        let mut group = Vec::new();
        while timers.first().is_some_and(|&(at, _, _)| at == x) {
            group.push(timers.pop_first().expect("non-empty").2);
        }
        next_idle = x + 1;
        if let [packet] = group[..] {
            busy += config.success_cost - 1;
            let done = wall_now + config.success_cost - 1;
            outcome.latencies.push(done - packets[packet].0);
        } else {
            outcome.collisions += 1;
            busy += config.collision_cost - 1;
            for packet in group {
                let window = packets[packet].1.next_window() as u64;
                let timer = draws.uniform_below(rng, window);
                set_timer(&mut timers, x + 1 + timer, packet);
            }
        }
    }

    // Arrivals past the drain deadline were still offered.
    if let Some((_, count)) = pending {
        outcome.offered += count as u64;
    }
    while let Some((_, count)) = arrivals.next() {
        outcome.offered += count as u64;
    }
    outcome.wall_slots = wall_now.max(config.horizon_slots);
    outcome
}
