//! Deterministic fault injection for the rank runtime.
//!
//! A [`FaultPlan`] perturbs the simulated network: per-message delay jitter,
//! duplication, drop-with-retry (timeout/backoff charged to the sender's
//! simulated clock), payload corruption, permanent delivery failure, bounded
//! send reordering, and whole-rank stalls. Every decision is a **pure
//! function of the plan seed and the message's identity** — the directed
//! link `(src, dst)` and that link's sequence number — hashed into a
//! [`SmallRng`] stream. Thread scheduling therefore cannot change which
//! messages fault: two runs with the same plan fault identically, and
//! `FaultPlan::none()` is bit-for-bit the unfaulted runtime.
//!
//! # Control plane vs data plane
//!
//! The runtime is SPMD: every rank must take the same branch at every
//! reduced scalar, or ranks deadlock waiting on collectives their peers
//! never enter. The fault layer therefore splits messages into two classes:
//!
//! - **Control plane** (gather/broadcast rows of a reduction): may be
//!   delayed, duplicated, reordered, or retried — faults that change *when*
//!   a payload arrives, never *what* it says. Every rank still folds the
//!   same rows, so reduced scalars — and with them all control flow — stay
//!   identical on every rank.
//! - **Data plane** (halo strips): additionally subject to corruption and
//!   permanent failure. A poisoned strip fills with NaN, which the next
//!   residual reduction propagates to *every* rank identically — the
//!   recovery logic in the solvers then restarts all ranks in lockstep.
//!
//! Benign faults (delay, duplicate, reorder, successful retry, stall) touch
//! only simulated time and counters; solutions remain bitwise identical to
//! a fault-free run. `tests/chaos_equivalence.rs` pins this conformance
//! property.

use pop_rng::SmallRng;

/// Per-category fault probabilities and penalties. All probabilities are
/// per-message (or per-operation for stalls), in `[0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability a message's arrival is jittered late.
    pub delay_prob: f64,
    /// Maximum extra delay (s); the actual jitter is uniform in `[0, max)`.
    pub delay_max: f64,
    /// Probability a message is delivered twice (the duplicate is discarded
    /// by sequence-number dedup at the receiver).
    pub dup_prob: f64,
    /// Probability a halo send burst is permuted before posting (exercises
    /// the receiver's reorder buffer; bounded to one burst so no message is
    /// held back across epochs).
    pub reorder_prob: f64,
    /// Per-attempt probability a message is dropped and must be resent
    /// after a timeout.
    pub drop_prob: f64,
    /// Cap on retransmissions charged per message. The transport is
    /// reliable: once the budget is spent the message delivers anyway (the
    /// cap bounds the time charged, not delivery). Unrecoverable loss is
    /// modeled separately by `fail_prob`.
    pub max_retries: u32,
    /// Sender timeout before the first retransmission (s).
    pub retry_timeout: f64,
    /// Multiplier on the timeout for each further retransmission.
    pub backoff: f64,
    /// Probability a halo payload arrives corrupted (detected by the
    /// simulated checksum: the strip is poisoned with NaN and counted).
    pub corrupt_prob: f64,
    /// Probability a halo message fails outright: the full retry budget is
    /// charged, then the strip is poisoned with NaN and counted.
    pub fail_prob: f64,
    /// Per-operation probability a rank stalls (OS jitter, page fault,
    /// slow NIC) before a halo exchange or reduction.
    pub stall_prob: f64,
    /// Maximum stall length (s); uniform in `[0, max)`.
    pub stall_max: f64,
}

impl Default for FaultConfig {
    /// A zero plan: every probability 0, every penalty 0.
    fn default() -> Self {
        FaultConfig {
            delay_prob: 0.0,
            delay_max: 0.0,
            dup_prob: 0.0,
            reorder_prob: 0.0,
            drop_prob: 0.0,
            max_retries: 3,
            retry_timeout: 1e-4,
            backoff: 2.0,
            corrupt_prob: 0.0,
            fail_prob: 0.0,
            stall_prob: 0.0,
            stall_max: 0.0,
        }
    }
}

impl FaultConfig {
    /// A benign chaos mix: delays, duplicates, reorders, recoverable drops
    /// and stalls — no corruption, no permanent failures. Under this config
    /// solutions stay bitwise identical to fault-free runs; only simulated
    /// time and counters move.
    pub fn benign() -> Self {
        FaultConfig {
            delay_prob: 0.2,
            delay_max: 5e-4,
            dup_prob: 0.1,
            reorder_prob: 0.3,
            drop_prob: 0.05,
            stall_prob: 0.05,
            stall_max: 1e-3,
            ..FaultConfig::default()
        }
    }

    /// A hostile mix on top of [`FaultConfig::benign`]: occasional halo
    /// corruption and permanent failures, exercising the solvers' restart
    /// path.
    pub fn hostile() -> Self {
        FaultConfig {
            corrupt_prob: 2e-3,
            fail_prob: 1e-3,
            ..FaultConfig::benign()
        }
    }
}

/// What the plan decided for one message on one directed link.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct MessageFaults {
    /// Extra seconds added to the arrival stamp (delay jitter plus the
    /// timeout/backoff charges of every dropped attempt).
    pub extra_delay: f64,
    /// Retransmissions performed (0 = first attempt delivered).
    pub retries: u32,
    /// Deliver the message twice.
    pub duplicate: bool,
    /// Data-plane only: payload arrives poisoned (corruption, or retry
    /// budget exhausted).
    pub poison: bool,
}

/// A seeded, deterministic fault plan. `Copy` so it rides inside
/// [`crate::RankSimConfig`]; the disabled plan is free on the hot path
/// (one branch per message).
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    seed: u64,
    cfg: FaultConfig,
    enabled: bool,
}

/// SplitMix64 finalizer: the avalanche permutation used to key per-message
/// RNG streams from `(seed, src, dst, seq)`.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FaultPlan {
    /// The disabled plan: no fault ever fires; the runtime is bit-for-bit
    /// identical to one built without a fault layer.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            cfg: FaultConfig::default(),
            enabled: false,
        }
    }

    /// An active plan drawing every decision from `seed`.
    pub fn seeded(seed: u64, cfg: FaultConfig) -> Self {
        FaultPlan {
            seed,
            cfg,
            enabled: true,
        }
    }

    /// Whether any fault can fire.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.enabled
    }

    /// The plan's configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// The plan's seed (0 for the disabled plan).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A fresh RNG stream keyed by this plan's seed and a message/operation
    /// identity. Pure: the same key always yields the same stream.
    fn stream(&self, kind: u64, a: u64, b: u64, c: u64) -> SmallRng {
        let mut h = self.seed ^ mix(kind.wrapping_add(0x9e37_79b9_7f4a_7c15));
        h = mix(h ^ a);
        h = mix(h ^ b);
        h = mix(h ^ c);
        SmallRng::seed_from_u64(h)
    }

    /// Decide the faults for message `seq` on the directed link
    /// `src → dst`. `data_plane` marks halo strips, the only class eligible
    /// for corruption and permanent failure.
    pub(crate) fn message(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        data_plane: bool,
    ) -> MessageFaults {
        let mut out = MessageFaults::default();
        if !self.enabled {
            return out;
        }
        let mut rng = self.stream(1, src as u64, dst as u64, seq);
        let c = &self.cfg;

        // Draw order is part of the determinism contract: delay, dup,
        // drops, corrupt, fail — always all five, so the stream position
        // never depends on earlier outcomes.
        let delay_roll: f64 = rng.gen();
        let delay_jit: f64 = rng.gen();
        if delay_roll < c.delay_prob {
            out.extra_delay += delay_jit * c.delay_max;
        }
        out.duplicate = rng.gen::<f64>() < c.dup_prob;

        let mut timeout = c.retry_timeout;
        for _ in 0..c.max_retries {
            if rng.gen::<f64>() >= c.drop_prob {
                break;
            }
            out.retries += 1;
            out.extra_delay += timeout;
            timeout *= c.backoff;
        }

        let corrupt = rng.gen::<f64>() < c.corrupt_prob;
        let fail = rng.gen::<f64>() < c.fail_prob;
        if data_plane {
            if fail {
                // Permanent failure: the sender burns the whole retry
                // budget before giving up.
                let mut t = c.retry_timeout;
                for _ in out.retries..c.max_retries {
                    out.retries += 1;
                    out.extra_delay += t;
                    t *= c.backoff;
                }
            }
            out.poison = corrupt || fail;
        }
        // Drops alone never destroy a payload (the transport is reliable;
        // the budget only caps time), and the control plane is never
        // poisoned at all — a lost reduction row would deadlock the tree.
        out
    }

    /// Should the halo send burst of `(rank, epoch)` be permuted? Returns a
    /// shuffle seed when it should.
    pub(crate) fn reorder(&self, rank: usize, epoch: u64) -> Option<u64> {
        if !self.enabled || self.cfg.reorder_prob <= 0.0 {
            return None;
        }
        let mut rng = self.stream(2, rank as u64, epoch, 0);
        let roll: f64 = rng.gen();
        let shuffle_seed = rng.next_u64();
        (roll < self.cfg.reorder_prob).then_some(shuffle_seed)
    }

    /// Seconds rank `rank` stalls before its operation number `op`
    /// (0.0 almost always).
    pub(crate) fn stall(&self, rank: usize, op: u64) -> f64 {
        if !self.enabled || self.cfg.stall_prob <= 0.0 {
            return 0.0;
        }
        let mut rng = self.stream(3, rank as u64, op, 1);
        let roll: f64 = rng.gen();
        let len: f64 = rng.gen();
        if roll < self.cfg.stall_prob {
            len * self.cfg.stall_max
        } else {
            0.0
        }
    }
}

/// Fisher–Yates over `items` driven by a seeded stream; used to permute a
/// halo send burst.
pub(crate) fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Tracks which sequence numbers a receiver has already consumed on one
/// incoming link, so duplicate deliveries are discarded idempotently.
/// A watermark plus a small out-of-order set: under FIFO delivery the set
/// stays empty; reordered bursts park a handful of entries until the gap
/// closes, so memory stays O(burst), not O(messages).
#[derive(Debug, Default)]
pub(crate) struct SeqTracker {
    /// All sequence numbers `<= watermark` have been seen (seqs start at 1).
    watermark: u64,
    /// Seen seqs above the watermark (out-of-order arrivals).
    pending: Vec<u64>,
}

impl SeqTracker {
    /// Record `seq`; returns `false` if it was already seen (a duplicate).
    pub(crate) fn accept(&mut self, seq: u64) -> bool {
        if seq <= self.watermark || self.pending.contains(&seq) {
            return false;
        }
        self.pending.push(seq);
        // Advance the watermark over any now-contiguous prefix.
        loop {
            let next = self.watermark + 1;
            if let Some(pos) = self.pending.iter().position(|&s| s == next) {
                self.pending.swap_remove(pos);
                self.watermark = next;
            } else {
                break;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_inert() {
        let p = FaultPlan::none();
        assert!(!p.is_active());
        for seq in 0..100 {
            let f = p.message(0, 1, seq, true);
            assert_eq!(f.extra_delay, 0.0);
            assert_eq!(f.retries, 0);
            assert!(!f.duplicate && !f.poison);
        }
        assert_eq!(p.stall(3, 17), 0.0);
        assert!(p.reorder(2, 5).is_none());
    }

    #[test]
    fn decisions_are_pure_functions_of_identity() {
        let p = FaultPlan::seeded(42, FaultConfig::hostile());
        for seq in 0..200 {
            let a = p.message(3, 5, seq, true);
            let b = p.message(3, 5, seq, true);
            assert_eq!(a.extra_delay.to_bits(), b.extra_delay.to_bits());
            assert_eq!(a.retries, b.retries);
            assert_eq!(a.duplicate, b.duplicate);
            assert_eq!(a.poison, b.poison);
        }
        // Different link or seq → independent draws (at least one differs
        // over a window).
        let differs = (0..200).any(|seq| {
            let a = p.message(3, 5, seq, true);
            let b = p.message(5, 3, seq, true);
            a.extra_delay.to_bits() != b.extra_delay.to_bits() || a.duplicate != b.duplicate
        });
        assert!(differs, "link direction must key the stream");
    }

    #[test]
    fn control_plane_never_poisons() {
        let cfg = FaultConfig {
            corrupt_prob: 1.0,
            fail_prob: 1.0,
            drop_prob: 1.0,
            ..FaultConfig::default()
        };
        let p = FaultPlan::seeded(7, cfg);
        for seq in 0..50 {
            assert!(!p.message(0, 1, seq, false).poison);
            assert!(p.message(0, 1, seq, true).poison);
        }
    }

    #[test]
    fn fault_rates_track_probabilities() {
        let p = FaultPlan::seeded(11, FaultConfig::benign());
        let n = 20_000;
        let mut dups = 0usize;
        let mut delays = 0usize;
        let mut retries = 0u64;
        for seq in 0..n {
            let f = p.message(1, 2, seq, true);
            if f.duplicate {
                dups += 1;
            }
            if f.extra_delay > 0.0 && f.retries == 0 {
                delays += 1;
            }
            retries += u64::from(f.retries);
        }
        let dup_rate = dups as f64 / n as f64;
        assert!((dup_rate - 0.1).abs() < 0.02, "dup rate {dup_rate}");
        assert!(delays > 0 && retries > 0);
    }

    #[test]
    fn retry_penalty_backs_off() {
        let cfg = FaultConfig {
            drop_prob: 1.0,
            max_retries: 3,
            retry_timeout: 1.0,
            backoff: 2.0,
            ..FaultConfig::default()
        };
        let p = FaultPlan::seeded(1, cfg);
        let f = p.message(0, 1, 0, false);
        // Every attempt drops: 3 retries at 1 + 2 + 4 seconds.
        assert_eq!(f.retries, 3);
        assert!((f.extra_delay - 7.0).abs() < 1e-12);
    }

    #[test]
    fn seq_tracker_discards_duplicates_and_handles_reorder() {
        let mut t = SeqTracker::default();
        assert!(t.accept(1));
        assert!(!t.accept(1));
        // Out of order: 3 before 2.
        assert!(t.accept(3));
        assert!(t.accept(2));
        assert!(!t.accept(2));
        assert!(!t.accept(3));
        assert!(t.accept(4));
        assert_eq!(t.watermark, 4);
        assert!(t.pending.is_empty());
    }

    #[test]
    fn shuffle_is_seeded_permutation() {
        let mut a: Vec<usize> = (0..10).collect();
        let mut b: Vec<usize> = (0..10).collect();
        shuffle(&mut a, 99);
        shuffle(&mut b, 99);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }
}
