//! The rank runtime's allreduce: which message schedule a collective runs
//! ([`ReduceAlgo`] and its selector) and the schedules themselves.
//!
//! Every algorithm moves the same `(block id, partials)` rows and produces
//! the same block-ordered fold — the rows are the determinism mechanism,
//! not the modelled payload (a real `MPI_Allreduce` moves only the reduced
//! scalars, and each hop is charged for the payload the real algorithm's
//! schedule would carry). What an algorithm changes is the *message
//! schedule*, hence the simulated time and the wire counters:
//!
//! | algorithm           | stages            | per-stage payload            |
//! |---------------------|-------------------|------------------------------|
//! | binomial            | `2·⌈log₂ p⌉`      | `s` scalars                  |
//! | recursive doubling  | `⌈log₂ p⌉`        | `s` scalars                  |
//! | Rabenseifner        | `2·⌈log₂ p⌉`      | `s/2, s/4, …` then back up   |
//! | hierarchical        | `≈2·log₂ m + log₂ (p/m)` | `s`, intra hops cheap |
//!
//! Recursive doubling halves the latency term vs the gather+broadcast
//! binomial tree (every rank finishes after `log₂ p` exchange stages).
//! Rabenseifner trades stages for bandwidth: total bytes per rank fall
//! from `s·log₂ p` to `2·s·(p−1)/p` — the classic choice for large
//! payloads. The hierarchical variant folds within each node over the
//! cheap shared-memory path first, runs recursive doubling among the
//! `p/m` node leaders only, then broadcasts down inside each node — the
//! only algorithm whose inter-node stage count does not grow with
//! ranks-per-node.
//!
//! Two bodies execute all four: a binomial gather/broadcast over nodes of
//! `m` consecutive ranks with a leader exchange in the middle
//! (`tree_allreduce` — binomial is one node of `p` ranks, hierarchical uses
//! the network's node size), and a butterfly over a list of stages
//! (`butterfly_allreduce` — recursive doubling, Rabenseifner, and the
//! tree's leader exchange). Both end in the one slot fold.

use crate::fabric::{MemoFold, RowRope, GATHER_ROUND, PREAMBLE_ROUND};
use crate::runtime::RankComm;
use pop_comm::{SweepPartials, MAX_SWEEP_PARTIALS};
use std::collections::hash_map::Entry;

/// Which allreduce exchange pattern the rank runtime executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceAlgo {
    /// Binomial gather to rank 0 + binomial broadcast.
    Binomial,
    /// Recursive doubling: `⌈log₂ p⌉` pairwise exchange stages, every rank
    /// holds the result when the last stage lands.
    RecursiveDoubling,
    /// Rabenseifner: recursive-halving reduce-scatter followed by a
    /// recursive-doubling allgather — bandwidth-optimal for large payloads.
    Rabenseifner,
    /// Node-aware: binomial fold to the node leader over intra-node links,
    /// recursive doubling among node leaders over the fabric, binomial
    /// broadcast back down inside each node.
    Hierarchical,
    /// Pick per collective from `(ranks, payload scalars, topology)` — see
    /// [`ReduceAlgo::resolve`].
    Auto,
}

impl ReduceAlgo {
    /// The four concrete algorithms (everything [`ReduceAlgo::resolve`] can
    /// return), in bench-sweep order.
    pub const ALL: [ReduceAlgo; 4] = [
        ReduceAlgo::Binomial,
        ReduceAlgo::RecursiveDoubling,
        ReduceAlgo::Rabenseifner,
        ReduceAlgo::Hierarchical,
    ];

    /// Stable name for provenance, metrics labels, and CLI parsing.
    pub fn name(self) -> &'static str {
        match self {
            ReduceAlgo::Binomial => "binomial",
            ReduceAlgo::RecursiveDoubling => "recursive-doubling",
            ReduceAlgo::Rabenseifner => "rabenseifner",
            ReduceAlgo::Hierarchical => "hierarchical",
            ReduceAlgo::Auto => "auto",
        }
    }

    /// Parse a [`ReduceAlgo::name`] back (for bench flags / env overrides).
    pub fn parse(s: &str) -> Option<ReduceAlgo> {
        match s {
            "binomial" => Some(ReduceAlgo::Binomial),
            "recursive-doubling" => Some(ReduceAlgo::RecursiveDoubling),
            "rabenseifner" => Some(ReduceAlgo::Rabenseifner),
            "hierarchical" => Some(ReduceAlgo::Hierarchical),
            "auto" => Some(ReduceAlgo::Auto),
            _ => None,
        }
    }

    /// Resolve `Auto` for one collective; concrete algorithms return
    /// themselves. The rule mirrors MPICH's selection logic adapted to the
    /// simulated cost model:
    ///
    /// 1. ≤ 2 ranks: binomial (a single exchange; nothing to shape).
    /// 2. A real node topology with more than two nodes' worth of ranks:
    ///    hierarchical — intra-node hops are orders of magnitude cheaper,
    ///    so collapsing each node first always shortens the critical path.
    /// 3. Large payloads (≥ 16 scalars, e.g. wide multi-RHS batches) at
    ///    ≥ 8 ranks: Rabenseifner — the halved per-stage payloads beat the
    ///    extra stage count once bandwidth matters.
    /// 4. Otherwise: recursive doubling — half the latency of the
    ///    gather+broadcast tree for the small payloads solvers reduce.
    pub fn resolve(self, ranks: usize, scalars: u64, ranks_per_node: usize) -> ReduceAlgo {
        match self {
            ReduceAlgo::Auto => {
                if ranks <= 2 {
                    ReduceAlgo::Binomial
                } else if ranks_per_node > 1 && ranks > 2 * ranks_per_node {
                    ReduceAlgo::Hierarchical
                } else if scalars >= 16 && ranks >= 8 {
                    ReduceAlgo::Rabenseifner
                } else {
                    ReduceAlgo::RecursiveDoubling
                }
            }
            concrete => concrete,
        }
    }
}

/// Worlds up to this size fold every reduction independently on every rank
/// and assert bitwise agreement through the fabric's fold memo; larger
/// worlds reuse the memoized fold after an O(1) completeness check (see
/// [`RankComm::fold_reduced`]). Covers every in-tree equivalence suite, so
/// the per-rank fold path stays exercised where it's cheap.
const INDEPENDENT_FOLD_MAX_RANKS: usize = 64;

/// One butterfly stage: `(partner distance, payload bytes, carries rows)`.
type Stage = (usize, usize, bool);

/// Largest power of two ≤ `n` (`n ≥ 1`) — the butterfly core of a
/// non-power-of-two participant set.
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Recursive doubling over a power-of-two `core`: `log₂ core` pairwise
/// exchange stages at doubling distances, full payload each stage; every
/// participant holds the result when its last exchange lands.
fn doubling_stages(core: usize, bytes: usize) -> Vec<Stage> {
    (0..core.trailing_zeros())
        .map(|k| (1usize << k, bytes, true))
        .collect()
}

/// Rabenseifner over a power-of-two `core` for an `s`-scalar payload: a
/// recursive-halving reduce-scatter (payload `s/2, s/4, …`) followed by a
/// recursive-doubling allgather (payload growing back up).
fn rabenseifner_stages(core: usize, s: u64) -> Vec<Stage> {
    let q = core.trailing_zeros();
    let mut stages = Vec::new();
    // Reduce-scatter: halving distances, halving payloads. These stages
    // carry the rows (the reduction data really flows here).
    for k in 0..q {
        let dist = core >> (k + 1);
        let bytes = (s >> (k + 1)).max(1) as usize * 8;
        stages.push((dist, bytes, true));
    }
    // Allgather: doubling distances, payloads growing back. Row-free —
    // the reduced vector segments travel, not partial rows.
    for k in 0..q {
        let dist = 1usize << k;
        let bytes = (s >> (q - k)).max(1) as usize * 8;
        stages.push((dist, bytes, false));
    }
    stages
}

impl RankComm {
    /// Execute reduce epoch `epoch` of this rank's per-block `rows` under
    /// the concrete algorithm `algo`, modelling a payload of `scalars`.
    pub(crate) fn allreduce(
        &self,
        algo: ReduceAlgo,
        epoch: u64,
        rows: &[(u32, SweepPartials)],
        scalars: u64,
    ) -> SweepPartials {
        let (r, p) = (self.rank(), self.n_ranks());
        let s = scalars.max(1);
        let bytes = s as usize * 8;
        // The one materialization per rank: its own sweep rows become a
        // rope leaf; everything downstream moves Arc handles.
        let own = RowRope::from_slice(rows);
        match algo {
            ReduceAlgo::Binomial => self.tree_allreduce(epoch, own, p, bytes),
            // On a flat network (`ranks_per_node() == 1`) every rank is its
            // own leader and this degenerates to recursive doubling.
            ReduceAlgo::Hierarchical => {
                self.tree_allreduce(epoch, own, self.net.ranks_per_node().max(1), bytes)
            }
            ReduceAlgo::RecursiveDoubling => {
                let stages = doubling_stages(prev_power_of_two(p), bytes);
                self.butterfly_allreduce(epoch, r, p, &|i| i, own, &stages, bytes)
            }
            ReduceAlgo::Rabenseifner => {
                let stages = rabenseifner_stages(prev_power_of_two(p), s);
                self.butterfly_allreduce(epoch, r, p, &|i| i, own, &stages, bytes)
            }
            ReduceAlgo::Auto => unreachable!("resolve() returns a concrete algorithm"),
        }
    }

    /// The world cut into nodes of `m` consecutive ranks: binomial gather of
    /// rows to each node's leader (its first rank), recursive doubling among
    /// the leaders, binomial broadcast of the result back down each node —
    /// every hop carrying the full `bytes` payload.
    ///
    /// With one node spanning the world (`m ≥ p`, [`ReduceAlgo::Binomial`])
    /// the lone leader just folds: `2·⌈log₂ p⌉` hops on the critical path.
    /// With `m` the network's node size ([`ReduceAlgo::Hierarchical`]) the
    /// gather and broadcast ride intra-node links and only the
    /// `⌈log₂ (p/m)⌉` leader stages cross the fabric.
    fn tree_allreduce(&self, epoch: u64, own: RowRope, m: usize, bytes: usize) -> SweepPartials {
        let (r, p) = (self.rank(), self.n_ranks());
        let node = r / m;
        let base = node * m;
        let size = m.min(p - base);
        let rel = r - base;
        let n_nodes = p.div_ceil(m);

        // Gather: children (bit set) send up, parents absorb.
        let mut acc = own;
        let mut mask = 1usize;
        while mask < size {
            if rel & mask != 0 {
                let parent = base + (rel - mask);
                self.send_rows(parent, epoch, GATHER_ROUND, std::mem::take(&mut acc), bytes);
                break;
            }
            let child = rel + mask;
            if child < size {
                acc.extend(self.recv_rows(epoch, GATHER_ROUND, base + child));
            }
            mask <<= 1;
        }

        // Leaders exchange across nodes; members wait for the result to
        // come back down.
        let result = if rel == 0 {
            let stages = doubling_stages(prev_power_of_two(n_nodes), bytes);
            self.butterfly_allreduce(epoch, node, n_nodes, &|i| i * m, acc, &stages, bytes)
        } else {
            self.recv_result(epoch)
        };

        // Broadcast: forward to the subtree below our entry point.
        let mut mask = if rel == 0 {
            size.next_power_of_two()
        } else {
            rel & rel.wrapping_neg() // lowest set bit: where we received
        };
        mask >>= 1;
        while mask > 0 {
            let dst = rel + mask;
            if dst < size {
                self.send_result(base + dst, epoch, result, bytes);
            }
            mask >>= 1;
        }
        result
    }

    /// A butterfly exchange among a power-of-two participant set plus the
    /// MPICH even/odd preamble for leftover ranks, shared by recursive
    /// doubling, Rabenseifner, and the tree's leader phase.
    ///
    /// `me` is this rank's participant index in `0..n`; `to_rank` maps a
    /// participant index to its world rank. `stages` is the butterfly plan
    /// over the power-of-two core `n'`. Stages that don't carry rows still
    /// move (and charge) a message — Rabenseifner's allgather phase
    /// transports segments of the already-reduced vector, which the row
    /// mechanism has no need for but the clock must feel.
    ///
    /// Non-power-of-two `n`: the odd rank of each of the first `n − n'`
    /// pairs folds its rows into its even partner up front and receives the
    /// finished result at the end, exactly MPICH's reduction preamble.
    #[allow(clippy::too_many_arguments)]
    fn butterfly_allreduce(
        &self,
        epoch: u64,
        me: usize,
        n: usize,
        to_rank: &dyn Fn(usize) -> usize,
        mut acc: RowRope,
        stages: &[Stage],
        full_bytes: usize,
    ) -> SweepPartials {
        debug_assert!(n >= 1 && me < n);
        if n == 1 {
            return self.fold_reduced(epoch, &acc, 1);
        }
        let core = prev_power_of_two(n);
        let rem = n - core;

        if me < 2 * rem {
            if me % 2 == 1 {
                let partner = to_rank(me - 1);
                self.send_rows(partner, epoch, PREAMBLE_ROUND, acc, full_bytes);
                return self.recv_result(epoch);
            }
            let theirs = self.recv_rows(epoch, PREAMBLE_ROUND, to_rank(me + 1));
            acc.extend(theirs);
        }

        // Relabel the survivors 0..core and run the butterfly.
        let bme = if me < 2 * rem { me / 2 } else { me - rem };
        let unlabel = |b: usize| -> usize {
            if b < rem {
                to_rank(2 * b)
            } else {
                to_rank(b + rem)
            }
        };
        for (k, &(dist, bytes, carry)) in stages.iter().enumerate() {
            let partner = unlabel(bme ^ dist);
            // Carrying stages clone the rope — O(1) Arc handles, not rows.
            let rows = if carry {
                acc.clone()
            } else {
                RowRope::default()
            };
            self.send_rows(partner, epoch, k as u32, rows, bytes);
            let theirs = self.recv_rows(epoch, k as u32, partner);
            acc.extend(theirs);
        }
        // Every survivor of the preamble folds; the odd partners wait.
        let result = self.fold_reduced(epoch, &acc, core);
        if me < 2 * rem {
            self.send_result(to_rank(me + 1), epoch, result, full_bytes);
        }
        result
    }

    /// Fold rows exactly like `CommWorld::sweep_reduce`: place each block's
    /// row in its global slot, then left-fold slots `0..n_blocks` from zero.
    /// The slot array makes arrival and rope-traversal order irrelevant.
    fn fold_slots(&self, rows: &RowRope) -> SweepPartials {
        let mut slots = self.fold_scratch.borrow_mut();
        slots.clear();
        slots.resize(self.layout.n_blocks(), [0.0; MAX_SWEEP_PARTIALS]);
        rows.visit(&mut |gb, row| slots[gb as usize] = *row);
        let mut acc = [0.0; MAX_SWEEP_PARTIALS];
        for row in slots.iter() {
            for (a, v) in acc.iter_mut().zip(row) {
                *a += *v;
            }
        }
        acc
    }

    /// Fold a *fully accumulated* rope — the terminal step of an allreduce,
    /// where this rank holds every block's row.
    ///
    /// The completeness check is O(1) (the rope tracks its length; each
    /// block contributes exactly one row, and exchange stages merge
    /// disjoint groups, so a complete accumulation has exactly `n_blocks`
    /// rows). The fold input multiset is then identical on every rank, so
    /// the canonical block-ordered fold is rank-independent — which lets
    /// large worlds memoize it per epoch through the fabric instead of
    /// paying `p · n_blocks` slot writes per collective. Small worlds —
    /// every in-tree equivalence test — fold independently on each rank
    /// and assert bitwise agreement with the memo, keeping the per-rank
    /// protocol cross-checked where it's cheap.
    ///
    /// `folders` is how many ranks fold epoch `epoch` (the butterfly core).
    /// The first to finish leaves its fold in the memo for the other
    /// `folders − 1`, and the last of them removes the entry.
    fn fold_reduced(&self, epoch: u64, rows: &RowRope, folders: usize) -> SweepPartials {
        assert_eq!(
            rows.len(),
            self.layout.n_blocks(),
            "allreduce accumulated an incomplete row set"
        );
        let independent = self.n_ranks() <= INDEPENDENT_FOLD_MAX_RANKS;
        // Large worlds fold only while no peer has. An entry this rank sees
        // stays until it has read it: it is one of the readers counted.
        let mine = (independent || !self.fabric.fold_memo().contains_key(&epoch))
            .then(|| self.fold_slots(rows));
        let mut memo = self.fabric.fold_memo();
        match memo.entry(epoch) {
            Entry::Vacant(slot) => {
                let vals = mine.expect("a rank that finds no memo entry has folded");
                if folders > 1 {
                    slot.insert(MemoFold {
                        vals,
                        readers_left: folders - 1,
                    });
                }
                vals
            }
            Entry::Occupied(mut slot) => {
                let entry = slot.get_mut();
                let vals = entry.vals;
                if let Some(mine) = mine {
                    let same = vals
                        .iter()
                        .zip(mine.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "rank {} folded a different reduction than its peers (epoch {})",
                        self.rank(),
                        epoch
                    );
                }
                entry.readers_left -= 1;
                if entry.readers_left == 0 {
                    slot.remove();
                }
                vals
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for a in ReduceAlgo::ALL.into_iter().chain([ReduceAlgo::Auto]) {
            assert_eq!(ReduceAlgo::parse(a.name()), Some(a));
        }
        assert_eq!(ReduceAlgo::parse("bogus"), None);
    }

    #[test]
    fn concrete_algorithms_resolve_to_themselves() {
        for a in ReduceAlgo::ALL {
            assert_eq!(a.resolve(4096, 1, 16), a);
            assert_eq!(a.resolve(2, 64, 1), a);
        }
    }

    #[test]
    fn auto_follows_the_documented_rule() {
        let auto = ReduceAlgo::Auto;
        // Tiny worlds: binomial.
        assert_eq!(auto.resolve(1, 1, 16), ReduceAlgo::Binomial);
        assert_eq!(auto.resolve(2, 64, 16), ReduceAlgo::Binomial);
        // Node topology with enough ranks to span >2 nodes: hierarchical.
        assert_eq!(auto.resolve(4096, 1, 16), ReduceAlgo::Hierarchical);
        assert_eq!(auto.resolve(64, 2, 16), ReduceAlgo::Hierarchical);
        // Flat network, wide payload: Rabenseifner.
        assert_eq!(auto.resolve(64, 48, 1), ReduceAlgo::Rabenseifner);
        // Flat network, scalar payloads: recursive doubling.
        assert_eq!(auto.resolve(64, 2, 1), ReduceAlgo::RecursiveDoubling);
        // Few ranks per node but not enough ranks to span nodes: latency
        // algorithms win.
        assert_eq!(auto.resolve(16, 2, 16), ReduceAlgo::RecursiveDoubling);
    }

    #[test]
    fn auto_never_resolves_to_auto() {
        for ranks in [1usize, 2, 3, 5, 16, 64, 1000, 16384] {
            for scalars in [1u64, 3, 16, 64] {
                for rpn in [1usize, 4, 16, 24] {
                    assert_ne!(
                        ReduceAlgo::Auto.resolve(ranks, scalars, rpn),
                        ReduceAlgo::Auto
                    );
                }
            }
        }
    }
}
