//! LRU cache of per-operator setup state.
//!
//! The expensive, immutable part of a solve — EVP influence matrices,
//! band-LU land-tile factors, Lanczos eigenbounds — is an
//! [`OperatorState`] keyed by the operator's fingerprint plus the
//! preconditioner spec and whether bounds were estimated. States are
//! `Arc`-shared: eviction only drops the cache's reference, so a batch
//! solving against an evicted state keeps it alive and is never corrupted
//! (`tests/serve_cache_equivalence.rs` exercises exactly this).
//!
//! Because [`OperatorState::build`] is deterministic, a hit is not merely
//! "close enough" — it is the same bits a cold build would produce, which
//! is what makes the cache transparent to results.

use pop_comm::CommWorld;
use pop_core::lanczos::LanczosConfig;
use pop_core::setup::{OperatorState, PrecondSpec};
use pop_stencil::NinePoint;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// Cache identity of one setup state. Fingerprint collisions are treated
/// as identity (see `pop_core::fingerprint` for the collision semantics);
/// `with_bounds` keeps a CG-grade state (no Lanczos run) from masquerading
/// as a P-CSI-grade one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey {
    pub fingerprint: u64,
    pub precond: PrecondSpec,
    pub with_bounds: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    /// Lookups that neither hit the LRU nor built: they arrived while
    /// another worker was building the same state and waited for it
    /// (single-flight, [`SharedOperatorCache`]). Counted inside `hits`
    /// as well — a coalesced lookup did not pay for a build.
    pub coalesced_builds: u64,
}

struct Entry {
    state: Arc<OperatorState>,
    last_used: u64,
}

/// Least-recently-used map of [`OperatorState`]s: the LRU half of
/// [`SharedOperatorCache`], which locks it. No interior locking; eviction
/// only drops the map's `Arc`.
struct OperatorCache {
    capacity: usize,
    tick: u64,
    map: HashMap<CacheKey, Entry>,
    stats: CacheStats,
}

impl OperatorCache {
    /// `capacity = 0` disables retention (every lookup misses).
    fn new(capacity: usize) -> OperatorCache {
        OperatorCache {
            capacity,
            tick: 0,
            map: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// LRU lookup: bumps recency and the hit counter on success. The
    /// miss counter is charged by [`OperatorCache::insert_built`] so a
    /// (lookup, build, insert) sequence counts one miss.
    fn lookup(&mut self, key: &CacheKey) -> Option<Arc<OperatorState>> {
        self.tick += 1;
        if let Some(e) = self.map.get_mut(key) {
            e.last_used = self.tick;
            self.stats.hits += 1;
            return Some(Arc::clone(&e.state));
        }
        None
    }

    /// Record a freshly built state after a miss ([`OperatorCache::lookup`]
    /// returned `None`), evicting the LRU entry if at capacity. With
    /// `capacity = 0` the state is not retained — the miss is still
    /// counted.
    fn insert_built(&mut self, key: CacheKey, state: &Arc<OperatorState>) {
        self.stats.misses += 1;
        if self.capacity > 0 {
            if self.map.len() >= self.capacity {
                self.evict_lru();
            }
            self.map.insert(
                key,
                Entry {
                    state: Arc::clone(state),
                    last_used: self.tick,
                },
            );
        }
    }

    fn evict_lru(&mut self) {
        if let Some(key) = self
            .map
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)
        {
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
    }
}

/// One in-flight build: waiters block on the condvar until the builder
/// publishes the finished state.
struct Flight {
    done: Mutex<Option<Arc<OperatorState>>>,
    cv: Condvar,
}

/// The operator-state cache of the dispatch worker pool: an LRU of
/// [`OperatorState`]s behind a lock, with **single-flight** miss handling:
/// when several workers miss on the same [`CacheKey`] concurrently, exactly
/// one builds the `OperatorState` and the rest wait for that build instead
/// of duplicating the (expensive, deterministic) work. Waiters count as
/// hits plus [`CacheStats::coalesced_builds`].
///
/// The LRU lock is never held across a build — only across map lookups
/// and inserts — so a slow Lanczos/EVP setup on one operator cannot
/// stall workers serving other operators.
pub struct SharedOperatorCache {
    inner: Mutex<OperatorCache>,
    /// Builds in flight, keyed by cache identity. Entries are inserted
    /// by the worker that claims the build and removed when it
    /// publishes; the map lock is disjoint from the LRU lock.
    building: Mutex<HashMap<CacheKey, Arc<Flight>>>,
}

impl SharedOperatorCache {
    /// `capacity = 0` disables LRU retention (misses still single-flight).
    pub fn new(capacity: usize) -> SharedOperatorCache {
        SharedOperatorCache {
            inner: Mutex::new(OperatorCache::new(capacity)),
            building: Mutex::new(HashMap::new()),
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.inner.lock().unwrap_or_else(|e| e.into_inner()).stats
    }

    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .map
            .len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch the setup state for `op`: LRU hit, wait on an in-flight build
    /// of the same key, or claim the build (and cache it). Returns the
    /// state and whether it was served without building (LRU hit or
    /// coalesced onto another worker's build). The Lanczos estimation runs
    /// only when `solver_needs_bounds` — CG-type traffic never pays for
    /// bounds it won't use.
    pub fn get_or_build(
        &self,
        fingerprint: u64,
        op: &NinePoint,
        precond: PrecondSpec,
        solver_needs_bounds: bool,
        lanczos: &LanczosConfig,
        world: &CommWorld,
    ) -> (Arc<OperatorState>, bool) {
        let key = CacheKey {
            fingerprint,
            precond,
            with_bounds: solver_needs_bounds,
        };
        if let Some(state) = self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .lookup(&key)
        {
            return (state, true);
        }
        let flight = {
            let mut b = self.building.lock().unwrap_or_else(|e| e.into_inner());
            match b.get(&key) {
                Some(f) => Some(Arc::clone(f)),
                None => {
                    b.insert(
                        key,
                        Arc::new(Flight {
                            done: Mutex::new(None),
                            cv: Condvar::new(),
                        }),
                    );
                    None
                }
            }
        };
        match flight {
            Some(f) => {
                // Another worker owns the build; wait for it to publish,
                // then report a coalesced hit.
                let mut done = f.done.lock().unwrap_or_else(|e| e.into_inner());
                while done.is_none() {
                    done = f.cv.wait(done).unwrap_or_else(|e| e.into_inner());
                }
                let state = Arc::clone(done.as_ref().expect("flight published"));
                let mut c = self.inner.lock().unwrap_or_else(|e| e.into_inner());
                c.stats.hits += 1;
                c.stats.coalesced_builds += 1;
                (state, true)
            }
            None => {
                // We claimed the build. Between our LRU miss and the
                // claim, the previous builder may have published and
                // retired its flight — re-check the LRU before paying
                // for a build.
                if let Some(state) = self
                    .inner
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .lookup(&key)
                {
                    self.retire_flight(&key, &state);
                    return (state, true);
                }
                let state = OperatorState::build(
                    op,
                    precond,
                    solver_needs_bounds.then_some(lanczos),
                    world,
                );
                self.inner
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert_built(key, &state);
                self.retire_flight(&key, &state);
                (state, false)
            }
        }
    }

    /// Publish the built state to waiters and drop the flight entry.
    fn retire_flight(&self, key: &CacheKey, state: &Arc<OperatorState>) {
        let flight = self
            .building
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(key);
        if let Some(f) = flight {
            *f.done.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(state));
            f.cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_comm::DistLayout;
    use pop_grid::Grid;

    fn op() -> (NinePoint, CommWorld) {
        let grid = Grid::gx1_scaled(31, 32, 24);
        let layout = DistLayout::build(&grid, 8, 6);
        let world = CommWorld::serial();
        let op = NinePoint::assemble(&grid, &layout, &world, 4000.0);
        (op, world)
    }

    #[test]
    fn hit_returns_the_same_state() {
        let (op, world) = op();
        let fp = pop_core::fingerprint::operator_fingerprint(&op);
        let lz = LanczosConfig::default();
        let c = SharedOperatorCache::new(4);
        let (a, hit_a) = c.get_or_build(fp, &op, PrecondSpec::Diagonal, false, &lz, &world);
        let (b, hit_b) = c.get_or_build(fp, &op, PrecondSpec::Diagonal, false, &lz, &world);
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the identical state");
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 1,
                misses: 1,
                ..CacheStats::default()
            }
        );
    }

    #[test]
    fn bounds_grade_is_part_of_the_key() {
        let (op, world) = op();
        let fp = pop_core::fingerprint::operator_fingerprint(&op);
        let lz = LanczosConfig::default();
        let c = SharedOperatorCache::new(4);
        let (no_bounds, _) = c.get_or_build(fp, &op, PrecondSpec::Diagonal, false, &lz, &world);
        let (with_bounds, hit) = c.get_or_build(fp, &op, PrecondSpec::Diagonal, true, &lz, &world);
        assert!(!hit, "a CG-grade state must not satisfy a P-CSI lookup");
        assert!(no_bounds.bounds.is_none());
        assert!(with_bounds.bounds.is_some());
    }

    #[test]
    fn lru_evicts_least_recently_used_and_keeps_arcs_alive() {
        let (op, world) = op();
        let lz = LanczosConfig::default();
        let c = SharedOperatorCache::new(2);
        // Distinct fingerprints stand in for distinct operators; the
        // builder only cares about the op it is given.
        let (s1, _) = c.get_or_build(1, &op, PrecondSpec::Diagonal, false, &lz, &world);
        let (_s2, _) = c.get_or_build(2, &op, PrecondSpec::Diagonal, false, &lz, &world);
        // Touch 1 so 2 is the LRU, then insert 3.
        let (_, hit) = c.get_or_build(1, &op, PrecondSpec::Diagonal, false, &lz, &world);
        assert!(hit);
        let (_s3, _) = c.get_or_build(3, &op, PrecondSpec::Diagonal, false, &lz, &world);
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().evictions, 1);
        let (_, hit1) = c.get_or_build(1, &op, PrecondSpec::Diagonal, false, &lz, &world);
        assert!(hit1, "recently-used entry survived");
        // s1 still usable after all the churn — eviction can't free it
        // while we hold the Arc.
        assert_eq!(s1.precond.name(), "diagonal");
    }

    /// The two traffic shapes of the serving claim: operators cycling
    /// through a capacity-1 cache never hit (every request pays setup),
    /// and the same stream replayed against a cache that holds them all
    /// is all hits.
    #[test]
    fn cycling_capacity_one_never_hits_and_a_replayed_warm_stream_always_hits() {
        let (op, world) = op();
        let lz = LanczosConfig::default();
        let stream: Vec<u64> = (0..4).flat_map(|_| 1..=3u64).collect();
        let cold = SharedOperatorCache::new(1);
        let warm = SharedOperatorCache::new(3);
        for &fp in &stream[..3] {
            warm.get_or_build(fp, &op, PrecondSpec::Diagonal, false, &lz, &world);
        }
        for &fp in &stream {
            let (_, hit) = cold.get_or_build(fp, &op, PrecondSpec::Diagonal, false, &lz, &world);
            assert!(!hit, "cycling a capacity-1 cache must never hit");
            let (_, hit) = warm.get_or_build(fp, &op, PrecondSpec::Diagonal, false, &lz, &world);
            assert!(hit, "the replayed warm stream must be all cache hits");
        }
        assert_eq!(cold.stats().misses, stream.len() as u64);
        assert_eq!(warm.stats().misses, 3, "only the warm-up pass builds");
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let (op, world) = op();
        let lz = LanczosConfig::default();
        let c = SharedOperatorCache::new(0);
        let (_, h1) = c.get_or_build(9, &op, PrecondSpec::Diagonal, false, &lz, &world);
        let (_, h2) = c.get_or_build(9, &op, PrecondSpec::Diagonal, false, &lz, &world);
        assert!(!h1 && !h2);
        assert!(c.is_empty());
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn shared_cache_single_flights_concurrent_misses() {
        let (op, world) = op();
        let fp = pop_core::fingerprint::operator_fingerprint(&op);
        let lz = LanczosConfig::default();
        let cache = SharedOperatorCache::new(4);
        let n = 8;
        let states: Vec<Arc<OperatorState>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        let world = CommWorld::serial();
                        cache
                            .get_or_build(fp, &op, PrecondSpec::Evp, true, &lz, &world)
                            .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let _ = world;
        // All callers share one state: exactly one build happened.
        for s in &states[1..] {
            assert!(Arc::ptr_eq(&states[0], s), "workers built duplicate states");
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "single-flight must build exactly once");
        assert_eq!(stats.hits, (n - 1) as u64);
        // Every hit either waited on the in-flight build or arrived after
        // it was published into the LRU.
        assert!(stats.coalesced_builds <= stats.hits);
    }
}
