//! Channel models: what happens to the transmissions sharing a slot.
//!
//! The paper's assumption A1 — and every simulator in this repository up to
//! now — makes collisions *fatal*: a slot with two or more senders delivers
//! nothing. *Softening the Impact of Collisions in Contention Resolution*
//! (arXiv:2408.11275) studies the complementary regime where a collision is
//! partially recoverable (capture effect, coding, rateless erasure codes):
//! with some probability `p_recover(k)` one of the `k` colliding senders is
//! decoded anyway. This module captures that family of channels — plus an
//! independent per-slot noise/erasure rate — as data, so any simulator
//! (slotted or MAC-level) can sample slot outcomes through one abstraction.
//!
//! Two structural guarantees every [`Recovery`] rule upholds (property-tested
//! in this crate and at the workspace level):
//!
//! * `p_recover(1) == 1` — a lone sender is only ever lost to *noise*, never
//!   to "collision recovery" (there is no collision);
//! * `p_recover` is non-increasing in `k` — piling more senders onto a slot
//!   can only hurt.
//!
//! The ideal (paper) channel is [`ChannelModel::ideal`]: zero noise, zero
//! recovery. In that configuration [`ChannelModel::sample_slot`] draws
//! **nothing** from the RNG, so a simulator threading its slots through this
//! model is bit-identical to one hard-coding A1 — the degenerate-equality
//! regression tests rely on exactly this.

use rand::Rng;

/// How (and whether) a collision of `k ≥ 2` senders can still deliver one
/// frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recovery {
    /// Collisions are fatal (assumption A1; the paper's model).
    None,
    /// Every collision is recovered with the same probability `p`,
    /// independent of its multiplicity.
    Constant { p: f64 },
    /// Recovery decays geometrically with multiplicity:
    /// `p_recover(k) = base^(k-1)` — each extra sender multiplies the odds
    /// of decoding anyone by `base`.
    Geometric { base: f64 },
    /// Capture effect with a hard threshold: collisions of up to `max_k`
    /// senders are recovered with probability `p`; anything denser is fatal.
    Capture { max_k: u32, p: f64 },
}

impl Recovery {
    /// Probability that a slot carrying `k` simultaneous transmissions still
    /// delivers one of them (before noise is applied). `k = 0` delivers
    /// nothing, `k = 1` always delivers.
    pub fn p_recover(&self, k: u32) -> f64 {
        if k == 0 {
            return 0.0;
        }
        if k == 1 {
            return 1.0;
        }
        match *self {
            Recovery::None => 0.0,
            Recovery::Constant { p } => clamp01(p),
            Recovery::Geometric { base } => clamp01(base).powi((k - 1) as i32),
            Recovery::Capture { max_k, p } => {
                if k <= max_k {
                    clamp01(p)
                } else {
                    0.0
                }
            }
        }
    }

    /// True when no collision of any multiplicity can ever be recovered —
    /// the configuration under which sampling must consume zero randomness.
    pub fn is_fatal(&self) -> bool {
        match *self {
            Recovery::None => true,
            Recovery::Constant { p } => p <= 0.0,
            Recovery::Geometric { base } => base <= 0.0,
            Recovery::Capture { max_k, p } => max_k < 2 || p <= 0.0,
        }
    }
}

/// Outcome of one occupied slot, as decided by [`ChannelModel::sample_slot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotFate {
    /// Nothing was decoded: every sender in the slot fails.
    Lost,
    /// Exactly one transmission was decoded: the `winner`-th sender of the
    /// slot (0-based, in the caller's deterministic sender order) succeeds;
    /// the remaining `k − 1` fail.
    Delivered { winner: u32 },
}

/// A noisy channel with softened collisions: the pair of a [`Recovery`] rule
/// and an independent per-slot erasure rate.
///
/// Sampling order is fixed (noise first, then recovery, then winner
/// selection) so every consumer draws the same RNG stream for the same
/// channel state — thread-count-invariant sweeps depend on this being
/// deterministic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelModel {
    /// Collision-softening rule.
    pub recovery: Recovery,
    /// Probability that a slot is erased outright (deep fade, external
    /// interference) regardless of how many senders it carries.
    pub noise: f64,
}

impl ChannelModel {
    /// The paper's channel: fatal collisions, no noise. Samples draw nothing
    /// from the RNG.
    pub fn ideal() -> ChannelModel {
        ChannelModel {
            recovery: Recovery::None,
            noise: 0.0,
        }
    }

    /// Multiplicity-independent softening: every collision survives with
    /// probability `p`.
    pub fn softened(p: f64) -> ChannelModel {
        ChannelModel {
            recovery: Recovery::Constant { p },
            noise: 0.0,
        }
    }

    /// A noisy but collision-fatal channel.
    pub fn noisy(noise: f64) -> ChannelModel {
        ChannelModel {
            recovery: Recovery::None,
            noise,
        }
    }

    /// Shorthand for `recovery.p_recover(k)`.
    pub fn p_recover(&self, k: u32) -> f64 {
        self.recovery.p_recover(k)
    }

    /// True iff this channel is exactly assumption A1: sampling is then a
    /// pure function (no RNG draws) and simulators may take their fast path.
    pub fn is_ideal(&self) -> bool {
        self.noise <= 0.0 && self.recovery.is_fatal()
    }

    /// Decides the fate of one slot carrying `k` transmissions.
    ///
    /// RNG usage contract (load-bearing for determinism regressions):
    /// * no draw for `k == 0`;
    /// * no draw at all when the channel [`is_ideal`](Self::is_ideal);
    /// * one `gen_bool` per active noise rate, one `gen_bool` per non-zero
    ///   recovery chance, one `gen_range` to pick a winner among `k ≥ 2`.
    pub fn sample_slot<R: Rng>(&self, k: u32, rng: &mut R) -> SlotFate {
        if k == 0 {
            return SlotFate::Lost;
        }
        if self.noise > 0.0 && rng.gen_bool(clamp01(self.noise)) {
            return SlotFate::Lost;
        }
        if k == 1 {
            return SlotFate::Delivered { winner: 0 };
        }
        let p = self.p_recover(k);
        if p > 0.0 && rng.gen_bool(p) {
            SlotFate::Delivered {
                winner: rng.gen_range(0..k),
            }
        } else {
            SlotFate::Lost
        }
    }
}

impl Default for ChannelModel {
    fn default() -> ChannelModel {
        ChannelModel::ideal()
    }
}

fn clamp01(p: f64) -> f64 {
    p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{experiment_tag, trial_rng};
    use crate::AlgorithmKind;
    use rand::rngs::SmallRng;
    use rand::RngCore;

    fn rng(trial: u32) -> SmallRng {
        trial_rng(experiment_tag("channel-test"), AlgorithmKind::Beb, 1, trial)
    }

    const ALL_RULES: [Recovery; 5] = [
        Recovery::None,
        Recovery::Constant { p: 0.4 },
        Recovery::Geometric { base: 0.7 },
        Recovery::Capture { max_k: 3, p: 0.9 },
        Recovery::Constant { p: 1.0 },
    ];

    #[test]
    fn lone_sender_always_recoverable() {
        for rule in ALL_RULES {
            assert_eq!(rule.p_recover(1), 1.0, "{rule:?}");
        }
    }

    #[test]
    fn empty_slot_delivers_nothing() {
        for rule in ALL_RULES {
            assert_eq!(rule.p_recover(0), 0.0, "{rule:?}");
        }
        let mut r = rng(0);
        assert_eq!(
            ChannelModel::softened(1.0).sample_slot(0, &mut r),
            SlotFate::Lost
        );
    }

    #[test]
    fn geometric_decays_and_capture_cuts_off() {
        let geo = Recovery::Geometric { base: 0.5 };
        assert_eq!(geo.p_recover(2), 0.5);
        assert_eq!(geo.p_recover(3), 0.25);
        let cap = Recovery::Capture { max_k: 3, p: 0.9 };
        assert_eq!(cap.p_recover(3), 0.9);
        assert_eq!(cap.p_recover(4), 0.0);
    }

    #[test]
    fn ideal_channel_draws_nothing() {
        // Identical generators: sampling through the ideal channel must
        // leave the stream untouched for any k.
        let mut a = rng(1);
        let mut b = rng(1);
        let ideal = ChannelModel::ideal();
        for k in 0..6 {
            let fate = ideal.sample_slot(k, &mut a);
            if k == 1 {
                assert_eq!(fate, SlotFate::Delivered { winner: 0 });
            } else {
                assert_eq!(fate, SlotFate::Lost);
            }
        }
        assert_eq!(a.next_u64(), b.next_u64(), "ideal channel consumed RNG");
    }

    #[test]
    fn is_ideal_matches_structure() {
        assert!(ChannelModel::ideal().is_ideal());
        assert!(ChannelModel::softened(0.0).is_ideal());
        assert!(ChannelModel {
            recovery: Recovery::Capture { max_k: 1, p: 0.9 },
            noise: 0.0
        }
        .is_ideal());
        assert!(!ChannelModel::softened(0.1).is_ideal());
        assert!(!ChannelModel::noisy(0.1).is_ideal());
    }

    #[test]
    fn certain_recovery_always_delivers_a_winner() {
        let model = ChannelModel::softened(1.0);
        let mut r = rng(2);
        for _ in 0..200 {
            match model.sample_slot(5, &mut r) {
                SlotFate::Delivered { winner } => assert!(winner < 5),
                SlotFate::Lost => panic!("p = 1 channel lost a slot"),
            }
        }
    }

    #[test]
    fn full_noise_loses_everything() {
        let model = ChannelModel {
            recovery: Recovery::Constant { p: 1.0 },
            noise: 1.0,
        };
        let mut r = rng(3);
        for k in 1..5 {
            assert_eq!(model.sample_slot(k, &mut r), SlotFate::Lost);
        }
    }

    #[test]
    fn sampled_recovery_rate_matches_p() {
        let model = ChannelModel::softened(0.3);
        let mut r = rng(4);
        let trials = 20_000;
        let delivered = (0..trials)
            .filter(|_| matches!(model.sample_slot(2, &mut r), SlotFate::Delivered { .. }))
            .count();
        let rate = delivered as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "recovery rate {rate} ≠ 0.3");
    }

    #[test]
    fn out_of_range_probabilities_clamp() {
        assert_eq!(Recovery::Constant { p: 7.0 }.p_recover(2), 1.0);
        assert_eq!(Recovery::Constant { p: -1.0 }.p_recover(2), 0.0);
        assert!(Recovery::Constant { p: -1.0 }.is_fatal());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Any recovery rule the workspace can express.
    fn arb_recovery() -> impl Strategy<Value = Recovery> {
        prop_oneof![
            Just(Recovery::None),
            (0.0..=1.0f64).prop_map(|p| Recovery::Constant { p }),
            (0.0..=1.0f64).prop_map(|base| Recovery::Geometric { base }),
            ((2u32..=8), (0.0..=1.0f64)).prop_map(|(max_k, p)| Recovery::Capture { max_k, p }),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// A lone sender is never lost to the recovery rule.
        #[test]
        fn p_recover_of_one_is_one(rule in arb_recovery()) {
            prop_assert_eq!(rule.p_recover(1), 1.0);
        }

        /// Probabilities are valid and non-increasing in the multiplicity.
        #[test]
        fn p_recover_is_monotone_in_k(rule in arb_recovery(), k in 1u32..=16) {
            let here = rule.p_recover(k);
            let denser = rule.p_recover(k + 1);
            prop_assert!((0.0..=1.0).contains(&here), "p_recover({k}) = {here}");
            prop_assert!(denser <= here, "{rule:?}: p({}) = {denser} > p({k}) = {here}", k + 1);
        }

        /// The winner index is always a valid sender index.
        #[test]
        fn winners_are_in_range(
            k in 1u32..=12,
            p in 0.0..=1.0f64,
            noise in 0.0..=1.0f64,
            trial in 0u32..1000,
        ) {
            let model = ChannelModel { recovery: Recovery::Constant { p }, noise };
            let mut rng = crate::rng::trial_rng(
                crate::rng::experiment_tag("channel-prop"),
                crate::AlgorithmKind::Beb,
                k,
                trial,
            );
            if let SlotFate::Delivered { winner } = model.sample_slot(k, &mut rng) {
                prop_assert!(winner < k);
            }
        }
    }
}
