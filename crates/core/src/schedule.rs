//! Contention-window growth schedules (Figure 2 of the paper).
//!
//! A *window schedule* is the deterministic part of a windowed backoff
//! algorithm: the sequence `W_0, W_1, W_2, …` of contention-window sizes a
//! station walks through as its transmissions keep failing. The random part —
//! picking a slot (or residual timer) uniformly inside each window — belongs
//! to the simulators.
//!
//! All schedules honour a [`Truncation`] (CWmin/CWmax); the paper's Table I
//! uses `CWmin = 1`, `CWmax = 1024`, the values IEEE 802.11g runs with in the
//! authors' NS3 setup.
//!
//! ```
//! use contention_core::schedule::{Schedule, Truncation, WindowSchedule};
//!
//! let mut beb = Schedule::beb(Truncation::paper());
//! assert_eq!(beb.take_windows(5), vec![1, 2, 4, 8, 16]);
//!
//! // SAWTOOTH's "backon" runs each doubled window back down to 2:
//! let mut stb = Schedule::sawtooth(Truncation::paper());
//! assert_eq!(stb.take_windows(6), vec![2, 4, 2, 8, 4, 2]);
//! ```

/// CWmin/CWmax clamping applied to every schedule (Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Truncation {
    /// Smallest window a schedule may emit (also the starting window).
    pub cw_min: u32,
    /// Largest window a schedule may emit; growth saturates here.
    pub cw_max: u32,
}

impl Truncation {
    /// The paper's values: CWmin = 1, CWmax = 1024 (Table I).
    pub fn paper() -> Truncation {
        Truncation {
            cw_min: 1,
            cw_max: 1024,
        }
    }

    /// No practical truncation — the abstract model of §I-A, where windows
    /// may grow without bound. (`u32::MAX` is unreachable in any experiment.)
    pub fn unbounded() -> Truncation {
        Truncation {
            cw_min: 1,
            cw_max: u32::MAX,
        }
    }

    /// Clamp a window size into `[cw_min, cw_max]`.
    pub fn clamp(&self, w: u32) -> u32 {
        w.clamp(self.cw_min, self.cw_max)
    }

    fn clamp_f64(&self, w: f64) -> u32 {
        if w >= self.cw_max as f64 {
            self.cw_max
        } else {
            (w.ceil() as u32).clamp(self.cw_min, self.cw_max)
        }
    }
}

impl Default for Truncation {
    fn default() -> Self {
        Truncation::paper()
    }
}

/// A (re)playable sequence of contention-window sizes.
///
/// Implementations are cheap to clone; every simulated station owns one.
pub trait WindowSchedule {
    /// The size, in slots, of the next contention window. Never returns 0.
    fn next_window(&mut self) -> u32;

    /// Rewind to the first window.
    fn reset(&mut self);

    /// Convenience: the next `count` windows (consumes schedule state).
    fn take_windows(&mut self, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.next_window()).collect()
    }
}

/// Binary exponential backoff: `1, 2, 4, 8, …` up to CWmax (then flat).
#[derive(Debug, Clone)]
pub struct Beb {
    trunc: Truncation,
    current: u32,
}

impl Beb {
    pub fn new(trunc: Truncation) -> Beb {
        Beb {
            trunc,
            current: trunc.cw_min,
        }
    }
}

impl WindowSchedule for Beb {
    fn next_window(&mut self) -> u32 {
        let w = self.trunc.clamp(self.current);
        self.current = self.current.saturating_mul(2).min(self.trunc.cw_max);
        w
    }

    fn reset(&mut self) {
        self.current = self.trunc.cw_min;
    }
}

/// LOG-BACKOFF: `W ← (1 + 1/lg W) W` (Figure 2 with `r = 1/lg W`).
///
/// The width is tracked as a real number so the sub-doubling growth rate is
/// not destroyed by repeated rounding; the emitted window is the ceiling.
/// For `W ≤ 2` (where `lg W ≤ 1`) the rate clamps to `r = 1`, i.e. the
/// schedule doubles exactly like BEB until the logarithm is meaningful.
#[derive(Debug, Clone)]
pub struct LogBackoff {
    trunc: Truncation,
    width: f64,
}

impl LogBackoff {
    pub fn new(trunc: Truncation) -> LogBackoff {
        LogBackoff {
            trunc,
            width: trunc.cw_min as f64,
        }
    }
}

impl WindowSchedule for LogBackoff {
    fn next_window(&mut self) -> u32 {
        let w = self.trunc.clamp_f64(self.width);
        let r = 1.0 / crate::util::lg(self.width);
        self.width = (self.width * (1.0 + r)).min(self.trunc.cw_max as f64 * 2.0);
        w
    }

    fn reset(&mut self) {
        self.width = self.trunc.cw_min as f64;
    }
}

/// LOGLOG-BACKOFF: `W ← (1 + 1/lg lg W) W` (Figure 2 with `r = 1/lg lg W`).
///
/// Backs off *faster* than LOG-BACKOFF but slower than BEB — the paper's
/// §III-B1 calls it the "closest competitor" to BEB for exactly this reason.
#[derive(Debug, Clone)]
pub struct LogLogBackoff {
    trunc: Truncation,
    width: f64,
}

impl LogLogBackoff {
    pub fn new(trunc: Truncation) -> LogLogBackoff {
        LogLogBackoff {
            trunc,
            width: trunc.cw_min as f64,
        }
    }
}

impl WindowSchedule for LogLogBackoff {
    fn next_window(&mut self) -> u32 {
        let w = self.trunc.clamp_f64(self.width);
        let r = 1.0 / crate::util::lglg(self.width);
        self.width = (self.width * (1.0 + r)).min(self.trunc.cw_max as f64 * 2.0);
        w
    }

    fn reset(&mut self) {
        self.width = self.trunc.cw_min as f64;
    }
}

/// SAWTOOTH-BACKOFF (Geréb-Graus & Tsantilas; Greenberg & Leiserson).
///
/// Doubly-nested loop: the outer loop doubles `W`; for each outer `W` the
/// inner "backon" loop runs windows of size `W, W/2, W/4, …, 2`. Once the
/// outer window saturates at CWmax the sawtooth keeps cycling
/// `CWmax, CWmax/2, …, 2` — the truncated analogue of the unbounded
/// algorithm.
#[derive(Debug, Clone)]
pub struct Sawtooth {
    trunc: Truncation,
    outer: u32,
    inner: u32,
}

impl Sawtooth {
    pub fn new(trunc: Truncation) -> Sawtooth {
        // The first outer window is the first power of two > CWmin so the
        // backon run (down to 2) is non-empty; with the paper's CWmin = 1
        // this makes the window sequence 2, 4, 2, 8, 4, 2, 16, 8, 4, 2, …
        let outer = trunc.cw_min.next_power_of_two().max(2).min(trunc.cw_max);
        Sawtooth {
            trunc,
            outer,
            inner: outer,
        }
    }
}

impl WindowSchedule for Sawtooth {
    fn next_window(&mut self) -> u32 {
        let w = self.trunc.clamp(self.inner);
        if self.inner > 2 {
            self.inner /= 2;
        } else {
            self.outer = self.outer.saturating_mul(2).min(self.trunc.cw_max);
            self.inner = self.outer;
        }
        w
    }

    fn reset(&mut self) {
        *self = Sawtooth::new(self.trunc);
    }
}

/// Fixed backoff: the same window every time.
///
/// This is the transmission stage of the §VI size-estimation approach: once a
/// station has a (one-time) estimate `Ŵ ≈ n`, it repeats windows of size `Ŵ`
/// until it succeeds.
#[derive(Debug, Clone)]
pub struct FixedWindow {
    window: u32,
}

impl FixedWindow {
    pub fn new(window: u32, trunc: Truncation) -> FixedWindow {
        FixedWindow {
            window: trunc.clamp(window.max(1)),
        }
    }
}

impl WindowSchedule for FixedWindow {
    fn next_window(&mut self) -> u32 {
        self.window
    }

    fn reset(&mut self) {}
}

/// Polynomial backoff ablation: window `(attempt + 1)^degree`, clamped.
///
/// Not in the paper's evaluation; included because the related work the paper
/// cites ([53], Sun & Dai) argues quadratic backoff is a strong candidate
/// under non-bursty traffic, making it a natural extra baseline for the
/// single-batch experiments.
#[derive(Debug, Clone)]
pub struct Polynomial {
    trunc: Truncation,
    degree: u32,
    attempt: u32,
}

impl Polynomial {
    pub fn new(degree: u32, trunc: Truncation) -> Polynomial {
        Polynomial {
            trunc,
            degree: degree.max(1),
            attempt: 0,
        }
    }
}

impl WindowSchedule for Polynomial {
    fn next_window(&mut self) -> u32 {
        let base = (self.attempt as u64 + 1).saturating_pow(self.degree);
        self.attempt = self.attempt.saturating_add(1);
        self.trunc.clamp(base.min(u32::MAX as u64) as u32)
    }

    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// Enum dispatch over every schedule, so simulators can hold stations of
/// mixed algorithms without boxing.
#[derive(Debug, Clone)]
pub enum Schedule {
    Beb(Beb),
    Log(LogBackoff),
    LogLog(LogLogBackoff),
    Sawtooth(Sawtooth),
    Fixed(FixedWindow),
    Polynomial(Polynomial),
}

impl Schedule {
    pub fn beb(trunc: Truncation) -> Schedule {
        Schedule::Beb(Beb::new(trunc))
    }
    pub fn log_backoff(trunc: Truncation) -> Schedule {
        Schedule::Log(LogBackoff::new(trunc))
    }
    pub fn loglog_backoff(trunc: Truncation) -> Schedule {
        Schedule::LogLog(LogLogBackoff::new(trunc))
    }
    pub fn sawtooth(trunc: Truncation) -> Schedule {
        Schedule::Sawtooth(Sawtooth::new(trunc))
    }
    pub fn fixed(window: u32, trunc: Truncation) -> Schedule {
        Schedule::Fixed(FixedWindow::new(window, trunc))
    }
    pub fn polynomial(degree: u32, trunc: Truncation) -> Schedule {
        Schedule::Polynomial(Polynomial::new(degree, trunc))
    }
}

impl WindowSchedule for Schedule {
    fn next_window(&mut self) -> u32 {
        match self {
            Schedule::Beb(s) => s.next_window(),
            Schedule::Log(s) => s.next_window(),
            Schedule::LogLog(s) => s.next_window(),
            Schedule::Sawtooth(s) => s.next_window(),
            Schedule::Fixed(s) => s.next_window(),
            Schedule::Polynomial(s) => s.next_window(),
        }
    }

    fn reset(&mut self) {
        match self {
            Schedule::Beb(s) => s.reset(),
            Schedule::Log(s) => s.reset(),
            Schedule::LogLog(s) => s.reset(),
            Schedule::Sawtooth(s) => s.reset(),
            Schedule::Fixed(s) => s.reset(),
            Schedule::Polynomial(s) => s.reset(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn windows(mut s: Schedule, count: usize) -> Vec<u32> {
        s.take_windows(count)
    }

    #[test]
    fn beb_doubles_and_saturates() {
        let t = Truncation {
            cw_min: 1,
            cw_max: 16,
        };
        assert_eq!(windows(Schedule::beb(t), 7), vec![1, 2, 4, 8, 16, 16, 16]);
    }

    #[test]
    fn beb_paper_truncation() {
        let w = windows(Schedule::beb(Truncation::paper()), 12);
        assert_eq!(w[..11], [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]);
        assert_eq!(w[11], 1024);
    }

    #[test]
    fn log_backoff_grows_slower_than_beb_but_monotonically() {
        let mut s = Schedule::log_backoff(Truncation::unbounded());
        let w = s.take_windows(40);
        for pair in w.windows(2) {
            assert!(pair[1] >= pair[0], "monotone: {w:?}");
        }
        // After the initial doubling region, growth must be sub-doubling.
        let idx = w.iter().position(|&x| x >= 16).unwrap();
        for pair in w[idx..].windows(2) {
            assert!(
                pair[1] < pair[0] * 2,
                "sub-doubling after W=16: {pair:?} in {w:?}"
            );
        }
        // And slower than BEB overall: BEB reaches 1024 in 11 windows.
        assert!(w[10] < 1024, "LB should lag BEB: {w:?}");
    }

    #[test]
    fn loglog_backs_off_faster_than_log() {
        // Result 4 discussion (§III-B1): LLB backs off faster than LB, i.e.
        // after the same number of failures its window is at least as large.
        let lb = windows(Schedule::log_backoff(Truncation::unbounded()), 30);
        let llb = windows(Schedule::loglog_backoff(Truncation::unbounded()), 30);
        for (i, (l, ll)) in lb.iter().zip(llb.iter()).enumerate() {
            assert!(ll >= l, "window {i}: LLB {ll} < LB {l}");
        }
        // Strictly ahead somewhere past the doubling prefix.
        assert!(llb[20] > lb[20], "LLB {llb:?} vs LB {lb:?}");
    }

    #[test]
    fn beb_dominates_both_log_variants() {
        let beb = windows(Schedule::beb(Truncation::unbounded()), 25);
        let lb = windows(Schedule::log_backoff(Truncation::unbounded()), 25);
        let llb = windows(Schedule::loglog_backoff(Truncation::unbounded()), 25);
        for i in 0..25 {
            assert!(beb[i] >= lb[i]);
            assert!(beb[i] >= llb[i]);
        }
    }

    #[test]
    fn sawtooth_shape() {
        let t = Truncation {
            cw_min: 1,
            cw_max: 64,
        };
        let w = windows(Schedule::sawtooth(t), 10);
        assert_eq!(w, vec![2, 4, 2, 8, 4, 2, 16, 8, 4, 2]);
    }

    #[test]
    fn sawtooth_saturated_cycle() {
        let t = Truncation {
            cw_min: 1,
            cw_max: 8,
        };
        let w = windows(Schedule::sawtooth(t), 12);
        // 2 | 4,2 | 8,4,2 | then cycles 8,4,2 forever.
        assert_eq!(w, vec![2, 4, 2, 8, 4, 2, 8, 4, 2, 8, 4, 2]);
    }

    #[test]
    fn fixed_window_is_constant_and_clamped() {
        let t = Truncation {
            cw_min: 2,
            cw_max: 100,
        };
        assert_eq!(windows(Schedule::fixed(37, t), 3), vec![37, 37, 37]);
        assert_eq!(windows(Schedule::fixed(1000, t), 2), vec![100, 100]);
        assert_eq!(windows(Schedule::fixed(0, t), 1), vec![2]);
    }

    #[test]
    fn polynomial_quadratic() {
        let w = windows(Schedule::polynomial(2, Truncation::unbounded()), 6);
        assert_eq!(w, vec![1, 4, 9, 16, 25, 36]);
    }

    #[test]
    fn reset_replays_identically() {
        for kind in [
            Schedule::beb(Truncation::paper()),
            Schedule::log_backoff(Truncation::paper()),
            Schedule::loglog_backoff(Truncation::paper()),
            Schedule::sawtooth(Truncation::paper()),
            Schedule::polynomial(3, Truncation::paper()),
        ] {
            let mut s = kind;
            let first = s.take_windows(20);
            s.reset();
            let second = s.take_windows(20);
            assert_eq!(first, second);
        }
    }

    #[test]
    fn no_schedule_emits_zero_or_exceeds_cap() {
        let t = Truncation::paper();
        for sched in [
            Schedule::beb(t),
            Schedule::log_backoff(t),
            Schedule::loglog_backoff(t),
            Schedule::sawtooth(t),
            Schedule::fixed(64, t),
            Schedule::polynomial(2, t),
        ] {
            let mut s = sched;
            for (i, w) in s.take_windows(200).into_iter().enumerate() {
                assert!(w >= 1, "window {i} is zero");
                assert!(w <= t.cw_max, "window {i} = {w} exceeds CWmax");
            }
        }
    }
}
