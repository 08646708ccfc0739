//! Aligned-window execution over a noisy channel with softened collisions.
//!
//! Same window semantics as [`crate::windowed::WindowedSim`] (all stations
//! arrive at slot 0, windows are globally aligned, a failed station waits out
//! the window), but assumption A1 is replaced by a
//! [`ChannelModel`]: a slot carrying `k ≥ 2` transmissions still delivers one
//! of them with probability `p_recover(k)`, and any slot can be erased by
//! noise — the regime of *Softening the Impact of Collisions in Contention
//! Resolution* (arXiv:2408.11275).
//!
//! RNG discipline: each window first draws every alive station's slot (in
//! alive order), then resolves occupied slots in ascending slot order
//! through [`ChannelModel::sample_slot`]. Because the ideal channel samples
//! without consuming randomness, the `p = 0` / zero-noise configuration *is*
//! assumption A1 with the identical RNG stream — which is why
//! [`crate::windowed::WindowedSim`] is implemented as a delegation to this
//! loop over [`ChannelModel::ideal`], and why the workspace's
//! degenerate-equality regression tests can demand bit-identity.
//!
//! The loop has two instantiations: the per-station one behind
//! [`NoisySim::run`] and `Simulator::run_with` (the full [`BatchMetrics`]),
//! and the aggregate one behind [`NoisySim::summarize`] and
//! `Simulator::summarize_with` — what every summary fold of a sweep runs —
//! which keeps only the alive count and the slot occupancy.

use contention_core::algorithm::AlgorithmKind;
use contention_core::channel::{ChannelModel, SlotFate};
use contention_core::metrics::{BatchMetrics, StationMetrics};
use contention_core::rng::DrawBuffer;
use contention_core::schedule::{Schedule, Truncation, WindowSchedule};
use contention_core::time::Nanos;
use contention_sim::engine::Simulator;
use contention_sim::summary::TrialSummary;
use rand::rngs::SmallRng;
use rand::Rng;

/// Configuration for one noisy-channel windowed run.
#[derive(Debug, Clone, Copy)]
pub struct NoisyConfig {
    /// Which backoff algorithm every station runs.
    pub algorithm: AlgorithmKind,
    /// Window clamping; unbounded by default to mirror the abstract model.
    pub truncation: Truncation,
    /// Slot duration used only to express `total_time = cw_slots × slot`.
    pub slot: Nanos,
    /// The channel: collision softening + per-slot noise.
    pub channel: ChannelModel,
    /// Safety valve: abort after this many windows (0 = no limit). Unlike
    /// the fatal-collision model, a noisy channel with `noise = 1` would
    /// never finish, so long-running noisy sweeps should set this.
    pub max_windows: u32,
}

impl NoisyConfig {
    /// Abstract-model geometry (unbounded windows, 9 µs slots) over an
    /// arbitrary channel.
    pub fn abstract_model(algorithm: AlgorithmKind, channel: ChannelModel) -> NoisyConfig {
        NoisyConfig {
            algorithm,
            truncation: Truncation::unbounded(),
            slot: Nanos::from_micros(9),
            channel,
            max_windows: 0,
        }
    }

    /// The degenerate configuration: ideal channel, i.e. exactly
    /// [`crate::windowed::WindowedConfig::abstract_model`] semantics.
    pub fn fatal(algorithm: AlgorithmKind) -> NoisyConfig {
        NoisyConfig::abstract_model(algorithm, ChannelModel::ideal())
    }
}

/// Slot-indexed buffers above this many entries are released at the end of
/// a trial (see [`NoisyScratch`]): a sharded sweep parks its workers for
/// long stretches, and one pathological (huge-window) trial must not pin
/// that window's high-water memory for the rest of the shard. 2²¹ entries
/// keeps every window the paper's grids produce allocation-free while
/// capping the retained slot state at 16 MB per worker.
const MAX_RETAINED_SLOT_ENTRIES: usize = 1 << 21;

/// Dense ideal windows track occupancy as plain `u32` counts up to this many
/// slots (an 8 KB, L1-resident table) and as `seen`/`dup` bitmaps above it.
/// Counts win at small widths, where the bitmaps' read-modify-write chains
/// pile onto a handful of words and serialize on store forwarding; bitmaps
/// win at large widths, where a count table would fall out of L1 but the
/// `width/8`-byte bitmaps never do.
const DENSE_COUNTS_MAX_SLOTS: usize = 2048;

/// Reusable per-worker buffers for the windowed loop: the epoch-stamped
/// occupancy counters and the per-window draw lists all keep their
/// high-water capacity from trial to trial (slot-indexed buffers up to
/// [`MAX_RETAINED_SLOT_ENTRIES`]). A fresh (`Default`) scratch behaves
/// identically — reuse may only move memory, never results.
#[derive(Default)]
pub struct NoisyScratch {
    /// Epoch-stamped per-slot state: `(epoch << 32) | first drawer`, or
    /// `(epoch << 32) | u32::MAX` once the slot collided. A stale epoch
    /// reads as empty, so neither window turnover nor buffer growth ever
    /// has to reset slots — the per-window touched-slot reset loop and the
    /// growth re-zeroing of the old `occupancy`/`counted` pair are gone.
    slot_state: Vec<u64>,
    /// The stamp of the current window. Persistent across trials (resetting
    /// it would alias stale stamps); on the 2³²-window wraparound the whole
    /// buffer is cleared once instead.
    epoch: u32,
    /// Per-station runs: the alive stations' ids, in draw order.
    alive: Vec<u32>,
    /// Slot drawn by each alive station this window (alive order; the
    /// drawer of entry `i` is `alive[i]`, which compaction reads first).
    /// Aggregate runs fill it only on sparse and sampled windows.
    slots: Vec<u32>,
    /// Per-station runs: backoff-slot accumulators, station-indexed. The
    /// only per-station state the hot loop touches: `attempts`/
    /// `ack_timeouts` need no accumulator, because a station attempts every
    /// window until it exits by winning — both counts derive from its exit
    /// window.
    backoff: Vec<u64>,
    /// Success slots of a window that may cross the half-`n` target or
    /// finish the batch (unsorted; the crossing window selects its k-th
    /// smallest once).
    window_successes: Vec<u32>,
    /// Sampled path: `(slot << 32) | draw index`, grouped ascending — packed
    /// so plain `u64` order is exactly (slot, draw order).
    order: Vec<u64>,
    /// Sampled path, counting-sort group-by: scatter cursor per slot.
    slot_offsets: Vec<u32>,
    /// Dense ideal windows: slot-occupancy bitmaps (`seen` = drawn at least
    /// once, `dup` = drawn at least twice), `width/8` bytes each so they
    /// stay L1-resident at any dense width. Every per-window aggregate is
    /// a popcount over them: collided slots = |dup|, singleton slots =
    /// |seen| − |dup|, colliding stations = alive − singletons.
    seen: Vec<u64>,
    dup: Vec<u64>,
    /// Per-station runs: which draws won their slot, for the
    /// classify/compaction pass.
    won: Vec<bool>,
    /// Batched raw RNG words for the per-window draw pass.
    buf: DrawBuffer,
}

impl NoisyScratch {
    /// Releases slot-indexed buffers beyond [`MAX_RETAINED_SLOT_ENTRIES`];
    /// called at the end of every trial (a no-op for ordinary widths).
    fn shed_pathological_buffers(&mut self) {
        if self.slot_state.capacity() > MAX_RETAINED_SLOT_ENTRIES {
            self.slot_state.truncate(MAX_RETAINED_SLOT_ENTRIES);
            self.slot_state.shrink_to(MAX_RETAINED_SLOT_ENTRIES);
        }
        if self.slot_offsets.capacity() > MAX_RETAINED_SLOT_ENTRIES {
            self.slot_offsets.truncate(MAX_RETAINED_SLOT_ENTRIES);
            self.slot_offsets.shrink_to(MAX_RETAINED_SLOT_ENTRIES);
        }
        // The occupancy bitmaps hold width/64 entries, so the same entry cap
        // translates to 64×-wider windows; still worth shedding — one
        // 2³⁰-slot window would otherwise pin 2 × 16 MB of bitmap forever.
        if self.seen.capacity() > MAX_RETAINED_SLOT_ENTRIES {
            self.seen.truncate(MAX_RETAINED_SLOT_ENTRIES);
            self.seen.shrink_to(MAX_RETAINED_SLOT_ENTRIES);
        }
        if self.dup.capacity() > MAX_RETAINED_SLOT_ENTRIES {
            self.dup.truncate(MAX_RETAINED_SLOT_ENTRIES);
            self.dup.shrink_to(MAX_RETAINED_SLOT_ENTRIES);
        }
    }
}

/// The noisy-channel aligned-window simulator.
///
/// Two window-resolution paths share one loop: ideal channels (which sample
/// without randomness) classify slots with O(alive) occupancy counters —
/// the hot path every paper figure runs — while non-ideal channels group
/// same-slot draws by sorting and resolve each group through
/// [`ChannelModel::sample_slot`]. Both paths are outcome-identical for an
/// ideal channel (a unit test forces the sampled path and checks
/// bit-equality), so which one runs is purely a performance choice.
pub struct NoisySim {
    config: NoisyConfig,
    schedule: Schedule,
    scratch: NoisyScratch,
}

impl NoisySim {
    /// Builds a simulator; panics for algorithms without a static window
    /// schedule (BEST-OF-k belongs to the MAC simulator).
    pub fn new(config: NoisyConfig) -> NoisySim {
        NoisySim {
            config,
            schedule: noisy_schedule(&config),
            scratch: NoisyScratch::default(),
        }
    }

    /// Runs one single-batch trial of `n` stations.
    pub fn run<R: Rng>(&mut self, n: u32, rng: &mut R) -> BatchMetrics {
        self.run_inner::<PerStation, R>(n, rng, false).metrics
    }

    /// Runs one trial forcing the sampled (channel-grouping) resolution path
    /// even when the channel is ideal. Outcomes are bit-identical to
    /// [`run`](Self::run) — the fast/sampled split is purely a performance
    /// choice — which is exactly what the workspace's path-equality golden
    /// and proptests use this seam to demand.
    pub fn run_sampled<R: Rng>(&mut self, n: u32, rng: &mut R) -> BatchMetrics {
        self.run_inner::<PerStation, R>(n, rng, true).metrics
    }

    /// [`run`](Self::run) reduced to its [`TrialSummary`] by the aggregate
    /// instantiation of the window loop: the same draws, no per-station
    /// state. Equals `TrialSummary::from(self.run(n, rng))` bit for bit.
    pub fn summarize<R: Rng>(&mut self, n: u32, rng: &mut R) -> TrialSummary {
        self.run_inner::<Aggregate, R>(n, rng, false).summary()
    }

    /// [`run_sampled`](Self::run_sampled) reduced the same way.
    pub fn summarize_sampled<R: Rng>(&mut self, n: u32, rng: &mut R) -> TrialSummary {
        self.run_inner::<Aggregate, R>(n, rng, true).summary()
    }

    fn run_inner<T: Tally, R: Rng>(
        &mut self,
        n: u32,
        rng: &mut R,
        force_sampled: bool,
    ) -> WindowsRun {
        self.schedule.reset();
        run_windows::<T, R>(
            &self.config,
            &mut self.schedule,
            &mut self.scratch,
            n,
            rng,
            force_sampled,
        )
    }
}

/// The schedule a config prescribes; panics for algorithms without one.
fn noisy_schedule(config: &NoisyConfig) -> Schedule {
    config
        .algorithm
        .schedule(config.truncation)
        .unwrap_or_else(|| {
            panic!(
                "{} has no static window schedule; use the MAC simulator",
                config.algorithm
            )
        })
}

/// The window loop's one type parameter: what a run keeps besides slot
/// occupancy. Resolved at compile time, so each instantiation's branches
/// for the other compile out.
trait Tally {
    /// Track station identities — the `alive` list, the per-station backoff
    /// accumulators and the [`StationMetrics`] table. Stations are
    /// exchangeable, so a run that reports only sums and maxima needs none
    /// of them: the alive *count* is `n − successes`.
    const STATIONS: bool;
}

/// The full per-station [`BatchMetrics`]: `run`, `run_sampled`, `run_with`.
struct PerStation;

impl Tally for PerStation {
    const STATIONS: bool = true;
}

/// Only what a [`TrialSummary`] reads: `summarize*` and `summarize_with`.
struct Aggregate;

impl Tally for Aggregate {
    const STATIONS: bool = false;
}

/// What one run of the window loop returns: the trial's [`BatchMetrics`]
/// (with an empty station table under [`Aggregate`]) plus the two tallies
/// that stand in for that table in a summary.
struct WindowsRun {
    metrics: BatchMetrics,
    /// Windows opened (the valve counts against this).
    windows_run: u32,
    /// Σ over windows of the stations still alive after it. A station times
    /// out in every window it survives (a station attempts every window
    /// until it exits by winning), so this is the total ACK-timeout count.
    ack_timeouts: u64,
}

impl WindowsRun {
    /// The summary, from tallies alone. The station with the most ACK
    /// timeouts is a survivor of a valve-truncated run (it timed out in
    /// every window), or else the last winner, which timed out in every
    /// window but the final one. No windowed station accrues ACK-timeout
    /// *time*, so that statistic is zero.
    fn summary(&self) -> TrialSummary {
        let m = &self.metrics;
        let max_ack_timeouts = if m.successes < m.n {
            self.windows_run
        } else {
            self.windows_run.saturating_sub(1)
        };
        TrialSummary::from_totals(m, self.ack_timeouts, max_ack_timeouts, Nanos::ZERO)
    }
}

/// The shared windowed loop over caller-owned scratch buffers. `schedule`
/// must be freshly built or reset.
///
/// Hot-path structure (every outcome bit-identical to the straightforward
/// loop it replaced — the windowed golden fixture and the path-equality
/// proptest pin this):
///
/// * **Batched RNG.** Each window prefetches exactly one raw word per alive
///   station into the scratch [`DrawBuffer`] and consumes them in alive
///   order, so the underlying word stream is unchanged (rejection
///   replacements continue the stream; width 1 consumes nothing).
///   Power-of-two spans skip the buffer: they reduce rejection-free
///   (`word & mask`), so generation and occupancy fuse into one pass.
/// * **Epoch-stamped occupancy** (sparse ideal windows + counting-sort
///   group-by). Slots carry `(epoch << 32) | count`; bumping the epoch
///   retires a whole window in O(1) instead of re-zeroing touched slots.
/// * **Sort-free success classification** (ideal path). Success ⟺ final
///   slot count 1, which is order-independent — as are every aggregate
///   except `half_cw_slots` (the k-th smallest success slot of the one
///   window crossing ⌈n/2⌉, selected once per trial) and `cw_slots` (the
///   max success slot of the final window).
/// * **Counting-sort group-by** (sampled path). When the window is at most
///   4× the alive set, same-slot groups are formed by prefix-summed
///   scatter in O(alive + width) instead of `sort_unstable`; wider windows
///   sort packed `(slot << 32) | index` keys, whose plain `u64` order is
///   exactly the old (slot, draw index) order.
/// * **Two instantiations of one loop** ([`Tally`], resolved at compile
///   time). Both make the same draws, in the same order, and the same
///   `sample_slot` calls; they differ only in what they keep.
/// * **Per-station instantiation** ([`PerStation`], the full
///   [`BatchMetrics`]). Keeps the `alive` identity list, one `u64` backoff
///   accumulator per station (touched on every draw, indirectly once
///   stations start leaving), each window's drawn slots and the 40-byte
///   [`StationMetrics`] table. Winners are stamped in the table during
///   classification and failures are compacted back into `alive` in the
///   same pass; `attempts` and `ack_timeouts` are derived once per trial
///   from each station's exit window (a station attempts every window until
///   it exits by winning, and every attempt except a final winning one
///   times out — true in both resolution paths).
/// * **Aggregate instantiation** ([`Aggregate`], a [`TrialSummary`]).
///   Stations are exchangeable, so it keeps only the alive count
///   (`n − successes`) and the slot occupancy: no identities, no backoff,
///   no drawn slots on dense windows, no station table and no end-of-trial
///   fold. Each window adds its singletons to `successes` and its survivors
///   to the ACK-timeout tally; the success slots of the (at most two)
///   windows that set `half_cw_slots` and `cw_slots` are read back from the
///   occupancy table (dense windows) or the drawn slots (sparse windows),
///   and [`WindowsRun::summary`] derives the per-station maxima.
/// * **Width-1 windows resolve arithmetically** on the ideal path: a slot-1
///   window consumes no RNG words and every alive station lands in slot 0,
///   so its outcome (all collide, or a lone station succeeds) needs no
///   draw, occupancy or classify work at all.
fn run_windows<T: Tally, R: Rng>(
    config: &NoisyConfig,
    schedule: &mut Schedule,
    scratch: &mut NoisyScratch,
    n: u32,
    rng: &mut R,
    force_sampled: bool,
) -> WindowsRun {
    /// Collision accounting over a dense window's occupancy state, returned
    /// as `(collided slots, singleton slots)`: each slot with ≥ 2 drawers
    /// is one disjoint collision, and no per-slot participant tally is
    /// needed because participants across the window are simply
    /// `alive − singletons`. A zero singleton count additionally lets the
    /// caller skip classification outright (no winners means no metrics
    /// changes and no compaction) — the common case for every window with
    /// width ≪ alive. One sweep per occupancy representation:
    #[inline]
    fn count_sweep(counts: &[u32]) -> (u64, u64) {
        let mut collided_slots = 0u64;
        let mut singles = 0u64;
        for &c in counts {
            collided_slots += u64::from(c >= 2);
            singles += u64::from(c == 1);
        }
        (collided_slots, singles)
    }

    /// …and the popcount version over the `seen`/`dup` bitmaps:
    /// `(|dup|, |seen| − |dup|)`.
    #[inline]
    fn bitmap_sweep(seen: &[u64], dup: &[u64]) -> (u64, u64) {
        let mut occupied = 0u64;
        let mut collided_slots = 0u64;
        for (&s, &d) in seen.iter().zip(dup.iter()) {
            occupied += s.count_ones() as u64;
            collided_slots += d.count_ones() as u64;
        }
        (collided_slots, occupied - collided_slots)
    }

    /// Classify + compact one ideal-channel window of a per-station run in
    /// alive order: the drawer of entry `i` is `alive[i]`, still intact
    /// during the pass because compaction writes trail reads. Winners get
    /// their success time and attempt count (= this window's index — a
    /// station attempts every window until it exits by winning) stamped
    /// directly; failures are compacted back into `alive` and take their
    /// ACK timeout implicitly, reconstructed by the end-of-trial fold.
    /// Returns the window's maximum success slot (for the final window's
    /// `cw_slots`).
    #[allow(clippy::too_many_arguments)]
    #[inline]
    fn classify_window(
        alive_n: usize,
        slot_of: impl Fn(usize) -> u32,
        is_success: impl Fn(usize, u32) -> bool,
        alive: &mut Vec<u32>,
        stations: &mut [StationMetrics],
        successes: &mut u32,
        window_successes: &mut Vec<u32>,
        crossing: bool,
        slots_before_window: u64,
        slot_len: Nanos,
        windows_run: u32,
    ) -> u32 {
        let mut kept = 0usize;
        let mut last_slot_max = 0u32;
        for i in 0..alive_n {
            let slot = slot_of(i);
            if is_success(i, slot) {
                *successes += 1;
                let s = &mut stations[alive[i] as usize];
                s.success_time = Some(slot_len * (slots_before_window + slot as u64 + 1));
                s.attempts = windows_run;
                last_slot_max = last_slot_max.max(slot);
                if crossing {
                    window_successes.push(slot);
                }
            } else {
                // A1 failure; under A2 the station learns it in-slot at
                // zero extra cost — the assumption under test.
                alive[kept] = alive[i];
                kept += 1;
            }
        }
        alive.truncate(kept);
        last_slot_max
    }

    /// The aggregate instantiation's stand-in for classification, run only
    /// in a window whose success slots set `half_cw_slots` or `cw_slots`:
    /// collects the singleton slots among `candidates` into
    /// `window_successes` and returns the largest.
    #[inline]
    fn singleton_slots(
        candidates: impl Iterator<Item = u32>,
        is_single: impl Fn(u32) -> bool,
        window_successes: &mut Vec<u32>,
    ) -> u32 {
        window_successes.extend(candidates.filter(|&slot| is_single(slot)));
        window_successes.iter().copied().max().unwrap_or(0)
    }

    let mut metrics = BatchMetrics {
        n,
        stations: if T::STATIONS {
            vec![StationMetrics::default(); n as usize]
        } else {
            Vec::new()
        },
        ..BatchMetrics::default()
    };
    let mut windows_run: u32 = 0;
    let mut ack_timeouts: u64 = 0;
    if n == 0 {
        return WindowsRun {
            metrics,
            windows_run,
            ack_timeouts,
        };
    }

    let fast_path = config.channel.is_ideal() && !force_sampled;
    let half_target = n.div_ceil(2);
    let NoisyScratch {
        slot_state,
        epoch,
        alive,
        slots,
        backoff,
        window_successes,
        order,
        slot_offsets,
        seen,
        dup,
        won,
        buf,
    } = scratch;
    if T::STATIONS {
        alive.clear();
        alive.extend(0..n);
        backoff.clear();
        backoff.resize(n as usize, 0);
    }

    // One window's draw pass over `$alive_n` stations: draws each slot in
    // alive order from `$next`, adds it to the drawer's backoff accumulator
    // and records it in `slots` (per-station runs; aggregate runs record
    // only when `$record`), then runs `$visit` with the draw index and the
    // slot bound to `$i` and `$slot`. Expanded in place rather than taking
    // closures, so every window shape's loop is straight-line code with the
    // generator state in registers.
    macro_rules! draw_pass {
        ($alive_n:expr, $record:expr, |$i:ident, $slot:ident| $next:expr => $visit:expr) => {{
            let alive_n: usize = $alive_n;
            if T::STATIONS || $record {
                // Alive counts only ever shrink within a trial, so this
                // resize is a truncation (no refill) after the first window.
                slots.resize(alive_n, 0);
            }
            if !T::STATIONS {
                if $record {
                    for ($i, s) in slots.iter_mut().enumerate() {
                        let $slot: u32 = $next;
                        *s = $slot;
                        $visit;
                    }
                } else {
                    for $i in 0..alive_n {
                        let $slot: u32 = $next;
                        $visit;
                    }
                }
            } else if alive_n == backoff.len() {
                // Identity regime: no station has exited yet, so
                // `alive[i] == i` and the indirection (with its bounds
                // check) drops out — every window before the first
                // success, i.e. most of a large batch's draws.
                for ($i, (b, s)) in backoff.iter_mut().zip(slots.iter_mut()).enumerate() {
                    let $slot: u32 = $next;
                    *b += $slot as u64;
                    *s = $slot;
                    $visit;
                }
            } else {
                for ($i, (&station, s)) in alive.iter().zip(slots.iter_mut()).enumerate() {
                    let $slot: u32 = $next;
                    backoff[station as usize] += $slot as u64;
                    *s = $slot;
                    $visit;
                }
            }
        }};
    }

    // A dense window's draw pass. Power-of-two spans reduce rejection-free
    // (`word & mask`), so generation and occupancy fuse into one pass with
    // no round trip through memory; words are consumed in exactly
    // generation order, so the stream is bit-identical to the buffered
    // form, and the generator's serial dependency chain leaves the ALU
    // slack that hides the fused bookkeeping. Other spans go through the
    // zone-rejection reduction, batched through the draw buffer.
    macro_rules! dense_draws {
        ($span:expr, $alive_n:expr, |$slot:ident| $visit:expr) => {{
            let span: u64 = $span;
            if span.is_power_of_two() {
                let mask = span - 1;
                draw_pass!($alive_n, false, |_i, $slot| (rng.next_u64() & mask) as u32 => $visit);
            } else {
                buf.prefill(rng, $alive_n);
                draw_pass!($alive_n, false, |_i, $slot| {
                    buf.uniform_below(rng, span) as u32
                } => $visit);
            }
        }};
    }

    let mut slots_before_window: u64 = 0;

    while metrics.successes < n {
        if config.max_windows != 0 && windows_run >= config.max_windows {
            break;
        }
        windows_run += 1;
        let width = schedule.next_window();
        let span = width as u64;
        let wslots = width as usize;
        // Every success removes exactly one station.
        let alive_n = (n - metrics.successes) as usize;
        debug_assert!(!T::STATIONS || alive.len() == alive_n);
        // Width-bounded O(width) sweeps (a count reset, a collision scan, a
        // prefix sum) are worth buying while they stay within a small factor
        // of the draw count; both paths switch strategy on that boundary.
        let dense = wslots <= 4 * alive_n;
        let counting = !fast_path && dense;

        if (fast_path && !dense) || counting {
            // One epoch per window; stale stamps read as count 0, so there
            // is nothing to reset. On the (once per 2³² windows) wrap the
            // buffer is cleared instead, because stamp 0 becomes live again.
            *epoch = epoch.wrapping_add(1);
            if *epoch == 0 {
                slot_state.iter_mut().for_each(|s| *s = 0);
                *epoch = 1;
            }
            if slot_state.len() < wslots {
                // Fresh entries carry stamp 0 = stale, i.e. count 0: growth
                // needs no re-zeroing of previously grown regions either.
                slot_state.resize(wslots, 0);
            }
        }
        let stamp = (*epoch as u64) << 32;

        if fast_path && width == 1 {
            // Everyone is in slot 0 and no RNG word is consumed, so the
            // window resolves in O(1): a lone station succeeds there, two
            // or more all collide, add zero backoff and all stay alive —
            // no per-station work at all.
            if alive_n >= 2 {
                metrics.collisions += 1;
                metrics.colliding_stations += alive_n as u64;
            } else {
                let at_slot = slots_before_window + 1;
                if T::STATIONS {
                    let s = &mut metrics.stations[alive[0] as usize];
                    s.success_time = Some(config.slot * at_slot);
                    s.attempts = windows_run;
                    alive.clear();
                }
                metrics.successes += 1;
                if metrics.successes == half_target {
                    metrics.half_cw_slots = at_slot;
                }
                if metrics.successes == n {
                    metrics.cw_slots = at_slot;
                }
            }
        } else if fast_path {
            let prior = metrics.successes;
            let crossing = prior < half_target;
            window_successes.clear();
            let last_slot_max;

            if dense {
                // Dense windows — the collision-heavy early/mid windows that
                // carry most of a trial's draws. Occupancy is width-bounded:
                // plain `u32` counts reset by one memset while the table
                // fits in L1, first-seen/duplicate bitmaps past that (see
                // `DENSE_COUNTS_MAX_SLOTS`); either way every per-draw step
                // is branch-free, which beats cleverer schemes exactly where
                // slot occupancy makes branches unpredictable. Reuses
                // `slot_offsets` (the sampled path's scatter cursors; the
                // paths are exclusive).
                let use_counts = wslots <= DENSE_COUNTS_MAX_SLOTS;
                if use_counts {
                    slot_offsets.clear();
                    slot_offsets.resize(wslots, 0);
                } else {
                    let bm_words = wslots.div_ceil(64);
                    seen.clear();
                    seen.resize(bm_words, 0);
                    dup.clear();
                    dup.resize(bm_words, 0);
                }
                // Each occupancy representation gets its own tight loop
                // so no dead occupancy pointers stay live.
                if use_counts {
                    dense_draws!(span, alive_n, |slot| {
                        slot_offsets[slot as usize] += 1;
                    });
                } else {
                    dense_draws!(span, alive_n, |slot| {
                        let idx = (slot >> 6) as usize;
                        let bit = 1u64 << (slot & 63);
                        dup[idx] |= seen[idx] & bit;
                        seen[idx] |= bit;
                    });
                }
                let (collided_slots, singles) = if use_counts {
                    count_sweep(slot_offsets)
                } else {
                    bitmap_sweep(seen, dup)
                };
                metrics.collisions += collided_slots;
                metrics.colliding_stations += alive_n as u64 - singles;
                let counted = |slot: u32| slot_offsets[slot as usize] == 1;
                let lone = |slot: u32| dup[(slot >> 6) as usize] & (1u64 << (slot & 63)) == 0;
                last_slot_max = if singles == 0 {
                    0
                } else if !T::STATIONS {
                    metrics.successes += singles as u32;
                    if (crossing && metrics.successes >= half_target) || metrics.successes == n {
                        if use_counts {
                            singleton_slots(0..width, counted, window_successes)
                        } else {
                            let single = |slot: u32| {
                                let idx = (slot >> 6) as usize;
                                (seen[idx] & !dup[idx]) & (1u64 << (slot & 63)) != 0
                            };
                            singleton_slots(0..width, single, window_successes)
                        }
                    } else {
                        0
                    }
                } else if use_counts {
                    classify_window(
                        alive_n,
                        |i| slots[i],
                        |_, slot| counted(slot),
                        alive,
                        &mut metrics.stations,
                        &mut metrics.successes,
                        window_successes,
                        crossing,
                        slots_before_window,
                        config.slot,
                        windows_run,
                    )
                } else {
                    classify_window(
                        alive_n,
                        |i| slots[i],
                        |_, slot| lone(slot),
                        alive,
                        &mut metrics.stations,
                        &mut metrics.successes,
                        window_successes,
                        crossing,
                        slots_before_window,
                        config.slot,
                        windows_run,
                    )
                };
            } else {
                // Sparse windows (width ≫ alive, the resolution tail):
                // epoch-stamped first-drawer entries. A slot records its
                // first drawer (`stamp | draw index`); the second arrival
                // demotes that drawer in the `won` bitmap (per-station runs)
                // and marks the slot collided (`stamp | u32::MAX`) — one new
                // disjoint collision with two participants, every further
                // arrival adding one. The mostly-empty branch predicts well
                // here, and no width-bounded sweep ever runs.
                buf.prefill(rng, alive_n);
                if T::STATIONS {
                    won.clear();
                    won.resize(alive_n, false);
                }
                let colliding_before = metrics.colliding_stations;
                draw_pass!(alive_n, true, |i, slot| buf.uniform_below(rng, span) as u32 => {
                    let entry = &mut slot_state[slot as usize];
                    let e = *entry;
                    if e < stamp {
                        *entry = stamp | i as u64;
                        if T::STATIONS {
                            won[i] = true;
                        }
                    } else {
                        let first = e as u32;
                        if first != u32::MAX {
                            if T::STATIONS {
                                won[first as usize] = false;
                            }
                            *entry = stamp | u32::MAX as u64;
                            metrics.collisions += 1;
                            metrics.colliding_stations += 2;
                        } else {
                            metrics.colliding_stations += 1;
                        }
                    }
                });
                last_slot_max = if T::STATIONS {
                    classify_window(
                        alive_n,
                        |i| slots[i],
                        |i, _| won[i],
                        alive,
                        &mut metrics.stations,
                        &mut metrics.successes,
                        window_successes,
                        crossing,
                        slots_before_window,
                        config.slot,
                        windows_run,
                    )
                } else {
                    let colliding = metrics.colliding_stations - colliding_before;
                    metrics.successes += (alive_n as u64 - colliding) as u32;
                    if (crossing && metrics.successes >= half_target) || metrics.successes == n {
                        singleton_slots(
                            slots.iter().copied(),
                            |slot| slot_state[slot as usize] as u32 != u32::MAX,
                            window_successes,
                        )
                    } else {
                        0
                    }
                };
            }

            if crossing && metrics.successes >= half_target {
                // The one window that crosses ⌈n/2⌉: the ⌈n/2⌉-th success
                // overall is the (⌈n/2⌉ − prior)-th smallest success slot
                // here (success slots are distinct singletons).
                let rank = (half_target - prior - 1) as usize;
                let (_, kth, _) = window_successes.select_nth_unstable(rank);
                metrics.half_cw_slots = slots_before_window + *kth as u64 + 1;
            }
            if metrics.successes == n {
                metrics.cw_slots = slots_before_window + last_slot_max as u64 + 1;
            }
        } else {
            // Sampled path: draw pass (batched words, sequential station
            // accumulators, occupancy counts when the counting-sort group-by
            // applies)…
            buf.prefill(rng, if width == 1 { 0 } else { alive_n });
            draw_pass!(alive_n, true, |_i, slot| buf.uniform_below(rng, span) as u32 => {
                if counting {
                    let entry = &mut slot_state[slot as usize];
                    *entry = if *entry >= stamp { *entry } else { stamp } + 1;
                }
            });

            // …then group same-slot draws in (slot, draw order) order.
            order.clear();
            if counting {
                // Prefix-summed scatter: O(alive + width), no comparisons.
                slot_offsets.clear();
                slot_offsets.reserve(wslots);
                let mut running = 0u32;
                for &entry in slot_state.iter().take(wslots) {
                    slot_offsets.push(running);
                    if entry >= stamp {
                        running += entry as u32;
                    }
                }
                order.resize(alive_n, 0);
                for (i, &slot) in slots.iter().enumerate() {
                    let cursor = &mut slot_offsets[slot as usize];
                    order[*cursor as usize] = ((slot as u64) << 32) | i as u64;
                    *cursor += 1;
                }
            } else {
                order.extend(
                    slots
                        .iter()
                        .enumerate()
                        .map(|(i, &slot)| ((slot as u64) << 32) | i as u64),
                );
                order.sort_unstable();
            }

            // Resolve each occupied slot through the channel in ascending
            // slot order (the RNG contract), recording winners; successes
            // arrive in slot order, so the half/full targets are direct.
            if T::STATIONS {
                won.clear();
                won.resize(alive_n, false);
            }
            let mut group_start = 0usize;
            while group_start < order.len() {
                let slot = (order[group_start] >> 32) as u32;
                let mut group_end = group_start + 1;
                while group_end < order.len() && (order[group_end] >> 32) as u32 == slot {
                    group_end += 1;
                }
                let k = (group_end - group_start) as u32;
                let fate = config.channel.sample_slot(k, rng);
                if k >= 2 {
                    metrics.collisions += 1;
                    metrics.colliding_stations += k as u64;
                }
                if let SlotFate::Delivered { winner } = fate {
                    let at_slot = slots_before_window + slot as u64 + 1;
                    if T::STATIONS {
                        let draw_idx = order[group_start + winner as usize] as u32 as usize;
                        won[draw_idx] = true;
                        let s = &mut metrics.stations[alive[draw_idx] as usize];
                        s.success_time = Some(config.slot * at_slot);
                        s.attempts = windows_run;
                    }
                    metrics.successes += 1;
                    if metrics.successes == half_target {
                        metrics.half_cw_slots = at_slot;
                    }
                    if metrics.successes == n {
                        metrics.cw_slots = at_slot;
                    }
                }
                group_start = group_end;
            }

            // Compaction pass in alive order: losers (collision loss or
            // noise erasure — the station learns it in-slot under A2 and
            // waits out the window) stay alive; their ACK timeouts are
            // reconstructed by the end-of-trial fold.
            if T::STATIONS {
                let mut kept = 0usize;
                for i in 0..alive_n {
                    if !won[i] {
                        alive[kept] = alive[i];
                        kept += 1;
                    }
                }
                alive.truncate(kept);
            }
        }

        slots_before_window += span;
        ack_timeouts += (n - metrics.successes) as u64;
    }

    if metrics.successes == n {
        metrics.total_time = config.slot * metrics.cw_slots;
    } else {
        // Valve-truncated: `cw_slots` never fired, but the run did consume
        // every window it opened — report that elapsed span rather than 0,
        // mirroring the MAC valve's `max_sim_time` exception.
        metrics.total_time = config.slot * slots_before_window;
    }
    metrics.half_time = config.slot * metrics.half_cw_slots;

    if T::STATIONS {
        // Fold the backoff accumulators into the per-station table and
        // derive the attempt counts: a station attempts every window until
        // it exits by winning (winners had `attempts` stamped with their
        // exit window at the success site; survivors attempted them all),
        // and every attempt except a final winning one took an ACK timeout.
        for (station, &b) in backoff.iter().enumerate() {
            let s = &mut metrics.stations[station];
            s.backoff_slots = b;
            if s.success_time.is_some() {
                s.ack_timeouts = s.attempts - 1;
            } else {
                s.attempts = windows_run;
                s.ack_timeouts = windows_run;
            }
        }
    }
    scratch.shed_pathological_buffers();
    WindowsRun {
        metrics,
        windows_run,
        ack_timeouts,
    }
}

/// Plugs the noisy-channel semantics into the generic sweep engine.
impl Simulator for NoisySim {
    type Config = NoisyConfig;
    type Output = BatchMetrics;
    const NAME: &'static str = "noisy";

    fn algorithm(config: &NoisyConfig) -> AlgorithmKind {
        config.algorithm
    }

    fn with_algorithm(config: &NoisyConfig, algorithm: AlgorithmKind) -> NoisyConfig {
        NoisyConfig {
            algorithm,
            ..*config
        }
    }

    type Scratch = NoisyScratch;

    fn run_with(
        config: &NoisyConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut NoisyScratch,
    ) -> BatchMetrics {
        run_windows::<PerStation, _>(config, &mut noisy_schedule(config), scratch, n, rng, false)
            .metrics
    }

    /// The aggregate instantiation of the window loop: no station table,
    /// no per-station state, the same draws.
    fn summarize_with(
        config: &NoisyConfig,
        n: u32,
        rng: &mut SmallRng,
        scratch: &mut NoisyScratch,
    ) -> TrialSummary {
        run_windows::<Aggregate, _>(config, &mut noisy_schedule(config), scratch, n, rng, false)
            .summary()
    }
}

contention_sim::raw_trial_value!(NoisySim);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::windowed::{WindowedConfig, WindowedSim};
    use contention_core::channel::Recovery;
    use contention_core::rng::{experiment_tag, trial_rng};

    fn run_once(config: NoisyConfig, n: u32, trial: u32) -> BatchMetrics {
        let mut sim = NoisySim::new(config);
        let mut rng = trial_rng(experiment_tag("noisy-test"), config.algorithm, n, trial);
        sim.run(n, &mut rng)
    }

    #[test]
    fn all_packets_finish_with_softening() {
        for kind in AlgorithmKind::PAPER_SET {
            let m = run_once(
                NoisyConfig::abstract_model(kind, ChannelModel::softened(0.5)),
                100,
                0,
            );
            assert_eq!(m.successes, 100, "{kind}");
            assert!(m.stations.iter().all(|s| s.success_time.is_some()));
            assert!(m.attempts_balance(), "{kind}");
        }
    }

    #[test]
    fn degenerate_channel_replays_windowed_sim_exactly() {
        // The acceptance-criterion regression in miniature: ideal channel ⇒
        // the full BatchMetrics (not just the summary) match WindowedSim
        // draw for draw.
        for kind in AlgorithmKind::PAPER_SET {
            for trial in 0..3 {
                let n = 80;
                let noisy = run_once(NoisyConfig::fatal(kind), n, trial);
                let mut sim = WindowedSim::new(WindowedConfig::abstract_model(kind));
                let mut rng = trial_rng(experiment_tag("noisy-test"), kind, n, trial);
                let windowed = sim.run(n, &mut rng);
                assert_eq!(noisy, windowed, "{kind} trial {trial}");
            }
        }
    }

    #[test]
    fn sampled_path_matches_fast_path_bit_for_bit() {
        // The ideal channel draws nothing in either path, so forcing the
        // sampled (grouping) path must reproduce the occupancy fast path
        // exactly — same outcomes from the same RNG stream. This is what
        // makes the fast/sampled split purely a performance choice.
        for kind in AlgorithmKind::PAPER_SET {
            for trial in 0..3 {
                let n = 90;
                let config = NoisyConfig::fatal(kind);
                let mut rng = trial_rng(experiment_tag("noisy-paths"), kind, n, trial);
                let fast = NoisySim::new(config).run(n, &mut rng);
                let mut rng = trial_rng(experiment_tag("noisy-paths"), kind, n, trial);
                let sampled = NoisySim::new(config).run_sampled(n, &mut rng);
                assert_eq!(fast, sampled, "{kind} trial {trial}");
            }
        }
    }

    #[test]
    fn certain_recovery_finishes_faster_than_fatal() {
        // With p = 1 every collision still delivers a packet, so the batch
        // drains at least as fast as under fatal collisions, usually faster.
        let med = |channel: ChannelModel| -> u64 {
            let mut xs: Vec<u64> = (0..9)
                .map(|t| {
                    run_once(
                        NoisyConfig::abstract_model(AlgorithmKind::Beb, channel),
                        400,
                        t,
                    )
                    .cw_slots
                })
                .collect();
            xs.sort_unstable();
            xs[4]
        };
        let fatal = med(ChannelModel::ideal());
        let soft = med(ChannelModel::softened(1.0));
        assert!(soft < fatal, "softened {soft} should beat fatal {fatal}");
    }

    #[test]
    fn noise_slows_the_batch_down() {
        let med = |channel: ChannelModel| -> u64 {
            let mut xs: Vec<u64> = (0..9)
                .map(|t| {
                    run_once(
                        NoisyConfig::abstract_model(AlgorithmKind::Beb, channel),
                        200,
                        t,
                    )
                    .cw_slots
                })
                .collect();
            xs.sort_unstable();
            xs[4]
        };
        assert!(med(ChannelModel::noisy(0.4)) > med(ChannelModel::ideal()));
    }

    #[test]
    fn recovered_collisions_still_count_as_collisions() {
        let m = run_once(
            NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::softened(1.0)),
            50,
            1,
        );
        assert!(m.collisions > 0);
        // Every disjoint collision involves ≥ 2 participants…
        assert!(m.colliding_stations >= 2 * m.collisions);
        // …and with p = 1 exactly one participant per collision is rescued,
        // so failures = participants − collisions (no noise in this config).
        assert_eq!(m.total_ack_timeouts(), m.colliding_stations - m.collisions);
    }

    #[test]
    fn noise_failures_are_not_collisions() {
        // A lone station on a noisy channel fails repeatedly without a
        // single collision being recorded.
        let m = run_once(
            NoisyConfig::abstract_model(
                AlgorithmKind::Fixed { window: 4 },
                ChannelModel::noisy(0.7),
            ),
            1,
            0,
        );
        assert_eq!(m.successes, 1);
        assert_eq!(m.collisions, 0);
        assert_eq!(m.colliding_stations, 0);
        assert_eq!(m.total_ack_timeouts(), m.stations[0].ack_timeouts as u64);
    }

    #[test]
    fn max_windows_valve_truncates() {
        let mut config = NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::noisy(1.0));
        config.max_windows = 25;
        let m = run_once(config, 10, 0);
        // Full noise: nothing can ever succeed; the valve must stop the run.
        assert_eq!(m.successes, 0);
        // Stations attempted every window the valve allowed, timing out in
        // each one.
        assert!(m.stations.iter().all(|s| s.attempts == 25));
        assert!(m.stations.iter().all(|s| s.ack_timeouts == 25));
    }

    #[test]
    fn valve_truncation_reports_elapsed_slots() {
        // `cw_slots` never fires on a truncated run, but the run still
        // consumed every window it opened: unbounded BEB widths are
        // 1, 2, 4, …, so 25 windows span exactly 2²⁵ − 1 slots, and
        // `total_time` must report that span (× the 9 µs abstract slot)
        // rather than 0 — mirroring the MAC valve's `max_sim_time`
        // exception.
        let mut config = NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::noisy(1.0));
        config.max_windows = 25;
        let m = run_once(config, 10, 0);
        assert_eq!(m.cw_slots, 0);
        assert_eq!(m.total_time, Nanos::from_micros(9) * ((1u64 << 25) - 1));
        // An untruncated run keeps the completion-time identity.
        let m = run_once(
            NoisyConfig::abstract_model(AlgorithmKind::Beb, ChannelModel::ideal()),
            10,
            0,
        );
        assert_eq!(m.total_time, Nanos::from_micros(9) * m.cw_slots);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let config = NoisyConfig::abstract_model(
            AlgorithmKind::Sawtooth,
            ChannelModel {
                recovery: Recovery::Geometric { base: 0.6 },
                noise: 0.1,
            },
        );
        let a = run_once(config, 120, 7);
        let b = run_once(config, 120, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn zero_stations_is_a_noop() {
        let m = run_once(NoisyConfig::fatal(AlgorithmKind::Beb), 0, 0);
        assert_eq!(m.successes, 0);
        assert_eq!(m.cw_slots, 0);
    }

    #[test]
    #[should_panic(expected = "no static window schedule")]
    fn best_of_k_is_rejected() {
        let _ = NoisySim::new(NoisyConfig::fatal(AlgorithmKind::BestOfK { k: 3 }));
    }
}
