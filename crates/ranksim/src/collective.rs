//! Collective-algorithm selection for the rank runtime's allreduce.
//!
//! Four exchange patterns are implemented in `runtime.rs`; this module owns
//! the selector. All of them reduce the same `(block id, partials)` rows
//! with the same block-ordered fold, so they are bit-identical — what an
//! algorithm changes is the *message schedule*, hence the simulated cost:
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

/// Which allreduce exchange pattern the rank runtime executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceAlgo {
    /// Binomial gather to rank 0 + binomial broadcast (the PR-2 baseline).
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
