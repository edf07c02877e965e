//! A lock-free metrics registry keyed by static metric and label names.
//!
//! The registry is a fixed-capacity open-addressing hash table whose update
//! path is atomics-only: once a (name, labels) slot has been claimed, every
//! subsequent `counter_add` / `gauge_set` / `observe` on that series is a
//! handful of relaxed atomic operations with no locking and no allocation.
//! Slot *creation* goes through the slot's `OnceLock`: racing creators of a
//! slot block until the winner's series is set, a cost paid once per series
//! for the lifetime of the registry.
//!
//! Keys are `&'static str` by design: the metric catalogue is fixed at
//! compile time (DESIGN.md §11), which removes string hashing ambiguity,
//! interning, and any allocation from the hot path. Label *values* must also
//! be `'static` — in practice they are solver/preconditioner/outcome names,
//! which already live in the binary.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum labels per series. Three covers the widest series in the
/// catalogue (`solver`, `precond`, `outcome`).
pub const MAX_LABELS: usize = 3;

/// Fixed slot count. The catalogue defines a few dozen series; 512 keeps
/// the table far below the load factors where open addressing degrades.
const CAPACITY: usize = 512;

/// A metric series identity: static metric name plus up to [`MAX_LABELS`]
/// static label pairs. Labels are compared in the order given, so callers
/// must pass them in a consistent (alphabetical) order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Key {
    pub name: &'static str,
    labels: [(&'static str, &'static str); MAX_LABELS],
    n_labels: usize,
}

impl Key {
    fn new(name: &'static str, labels: &[(&'static str, &'static str)]) -> Key {
        assert!(
            labels.len() <= MAX_LABELS,
            "metric {name}: at most {MAX_LABELS} labels supported"
        );
        let mut arr = [("", ""); MAX_LABELS];
        arr[..labels.len()].copy_from_slice(labels);
        Key {
            name,
            labels: arr,
            n_labels: labels.len(),
        }
    }

    /// The label pairs actually present.
    pub fn labels(&self) -> &[(&'static str, &'static str)] {
        &self.labels[..self.n_labels]
    }

    /// FNV-1a over the name and label bytes. Stable across runs (no
    /// per-process seed), which keeps probe sequences deterministic.
    fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            // Separator so ("ab","c") and ("a","bc") hash differently.
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        eat(self.name.as_bytes());
        for (k, v) in self.labels() {
            eat(k.as_bytes());
            eat(v.as_bytes());
        }
        h
    }
}

/// What kind of series a slot holds. Counters are monotonic; gauges are
/// last-write-wins; histograms bucket observations against a static bound
/// slice shared by every series of that metric.
enum Metric {
    /// Integer counter (`fetch_add`).
    Counter(AtomicU64),
    /// Float counter: f64 bits in an `AtomicU64`, added via CAS loop.
    FloatCounter(AtomicU64),
    /// Float gauge: f64 bits, plain store.
    Gauge(AtomicU64),
    Histogram(Hist),
}

struct Hist {
    /// Upper bucket bounds (ascending); an implicit +Inf bucket follows.
    bounds: &'static [f64],
    /// `bounds.len() + 1` cumulative-later buckets (stored non-cumulative;
    /// the exporter accumulates).
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    /// f64 bits, CAS-add.
    sum: AtomicU64,
}

/// CAS-accumulate `v` into an f64 stored as bits in `a`.
fn f64_add(a: &AtomicU64, v: f64) {
    let mut cur = a.load(Ordering::Relaxed);
    loop {
        let next = (f64::from_bits(cur) + v).to_bits();
        match a.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A slot is set once, to the series that first claims it, and never
/// changes again.
type Slot = OnceLock<(Key, Metric)>;

/// One exported sample, produced by [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSample {
    pub name: &'static str,
    pub labels: Vec<(&'static str, &'static str)>,
    pub value: SampleValue,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    Counter(u64),
    FloatCounter(f64),
    Gauge(f64),
    Histogram {
        bounds: &'static [f64],
        /// Non-cumulative per-bucket counts, last entry is the +Inf bucket.
        buckets: Vec<u64>,
        count: u64,
        sum: f64,
    },
}

/// The lock-free registry. Cheap to share behind an `Arc`; all methods take
/// `&self`.
pub struct Registry {
    slots: Box<[Slot]>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    pub fn new() -> Registry {
        let slots: Vec<Slot> = (0..CAPACITY).map(|_| Slot::new()).collect();
        Registry {
            slots: slots.into_boxed_slice(),
        }
    }

    /// Find the slot for `key`, creating it with `make` on first use.
    /// Linear probing from the key's hash; panics if the table fills
    /// (a registry-capacity bug, not a runtime condition).
    fn slot(&self, key: Key, make: impl FnOnce() -> Metric) -> &Metric {
        let mut make = Some(make);
        let start = (key.hash() as usize) % CAPACITY;
        for probe in 0..CAPACITY {
            let slot = &self.slots[(start + probe) % CAPACITY];
            let (k, m) = slot.get_or_init(|| (key, make.take().expect("a claim wins once")()));
            if *k == key {
                return m;
            }
            // Occupied by another key: next probe.
        }
        panic!(
            "metrics registry full ({CAPACITY} series) registering {}",
            key.name
        );
    }

    /// Add `v` to an integer counter series.
    pub fn counter_add(&self, name: &'static str, labels: &[(&'static str, &'static str)], v: u64) {
        let m = self.slot(Key::new(name, labels), || {
            Metric::Counter(AtomicU64::new(0))
        });
        match m {
            Metric::Counter(c) => {
                c.fetch_add(v, Ordering::Relaxed);
            }
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Add `v` to a float counter series (e.g. seconds totals).
    pub fn counter_add_f64(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        v: f64,
    ) {
        let m = self.slot(Key::new(name, labels), || {
            Metric::FloatCounter(AtomicU64::new(0f64.to_bits()))
        });
        match m {
            Metric::FloatCounter(c) => f64_add(c, v),
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Set a gauge series to `v` (last write wins).
    pub fn gauge_set(&self, name: &'static str, labels: &[(&'static str, &'static str)], v: f64) {
        let m = self.slot(Key::new(name, labels), || {
            Metric::Gauge(AtomicU64::new(0f64.to_bits()))
        });
        match m {
            Metric::Gauge(g) => g.store(v.to_bits(), Ordering::Relaxed),
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// Record `v` into a fixed-bucket histogram series. `bounds` must be the
    /// same static slice on every call for a given metric name.
    pub fn observe(
        &self,
        name: &'static str,
        labels: &[(&'static str, &'static str)],
        bounds: &'static [f64],
        v: f64,
    ) {
        let m = self.slot(Key::new(name, labels), || {
            let buckets: Vec<AtomicU64> = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
            Metric::Histogram(Hist {
                bounds,
                buckets: buckets.into_boxed_slice(),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0f64.to_bits()),
            })
        });
        match m {
            Metric::Histogram(h) => {
                debug_assert!(
                    std::ptr::eq(h.bounds, bounds),
                    "histogram {name}: bounds differ"
                );
                let idx = h
                    .bounds
                    .iter()
                    .position(|&b| v <= b)
                    .unwrap_or(h.bounds.len());
                h.buckets[idx].fetch_add(1, Ordering::Relaxed);
                h.count.fetch_add(1, Ordering::Relaxed);
                f64_add(&h.sum, v);
            }
            _ => panic!("metric {name} registered with a different type"),
        }
    }

    /// A consistent-enough snapshot of every series, sorted by
    /// (name, labels) so exports are deterministic regardless of the hash
    /// order series were created in. Individual values are read with relaxed
    /// loads; cross-series consistency is not guaranteed (nor needed — the
    /// registry is only snapshotted at quiesce points in this codebase).
    pub fn snapshot(&self) -> Vec<MetricSample> {
        let mut out = Vec::new();
        for (key, metric) in self.slots.iter().filter_map(OnceLock::get) {
            let value = match metric {
                Metric::Counter(c) => SampleValue::Counter(c.load(Ordering::Relaxed)),
                Metric::FloatCounter(c) => {
                    SampleValue::FloatCounter(f64::from_bits(c.load(Ordering::Relaxed)))
                }
                Metric::Gauge(g) => SampleValue::Gauge(f64::from_bits(g.load(Ordering::Relaxed))),
                Metric::Histogram(h) => SampleValue::Histogram {
                    bounds: h.bounds,
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: h.count.load(Ordering::Relaxed),
                    sum: f64::from_bits(h.sum.load(Ordering::Relaxed)),
                },
            };
            out.push(MetricSample {
                name: key.name,
                labels: key.labels().to_vec(),
                value,
            });
        }
        out.sort_by(|a, b| (a.name, &a.labels).cmp(&(b.name, &b.labels)));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_per_label_set() {
        let r = Registry::new();
        r.counter_add("solves", &[("solver", "pcsi")], 2);
        r.counter_add("solves", &[("solver", "pcsi")], 3);
        r.counter_add("solves", &[("solver", "pcg")], 1);
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].labels, vec![("solver", "pcg")]);
        assert_eq!(snap[0].value, SampleValue::Counter(1));
        assert_eq!(snap[1].labels, vec![("solver", "pcsi")]);
        assert_eq!(snap[1].value, SampleValue::Counter(5));
    }

    #[test]
    fn float_counter_and_gauge() {
        let r = Registry::new();
        r.counter_add_f64("secs", &[], 0.25);
        r.counter_add_f64("secs", &[], 0.5);
        r.gauge_set("nu", &[], 0.1);
        r.gauge_set("nu", &[], 0.2);
        let snap = r.snapshot();
        assert_eq!(snap[0].value, SampleValue::Gauge(0.2));
        assert_eq!(snap[1].value, SampleValue::FloatCounter(0.75));
    }

    #[test]
    fn histogram_buckets_and_inf_overflow() {
        static BOUNDS: [f64; 3] = [0.1, 1.0, 10.0];
        let r = Registry::new();
        for v in [0.05, 0.5, 0.5, 5.0, 50.0] {
            r.observe("h", &[], &BOUNDS, v);
        }
        let snap = r.snapshot();
        match &snap[0].value {
            SampleValue::Histogram {
                buckets,
                count,
                sum,
                ..
            } => {
                assert_eq!(buckets.as_slice(), &[1, 2, 1, 1]);
                assert_eq!(*count, 5);
                assert!((sum - 56.05).abs() < 1e-12);
            }
            v => panic!("expected histogram, got {v:?}"),
        }
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        // Create series in two different orders; snapshots must agree.
        let names = ["c", "a", "b", "a"];
        let r1 = Registry::new();
        for n in names {
            r1.counter_add(n, &[], 1);
        }
        let r2 = Registry::new();
        for n in names.iter().rev() {
            r2.counter_add(n, &[], 1);
        }
        let order1: Vec<_> = r1.snapshot().into_iter().map(|s| s.name).collect();
        let order2: Vec<_> = r2.snapshot().into_iter().map(|s| s.name).collect();
        assert_eq!(order1, order2);
        assert_eq!(order1, vec!["a", "b", "c"]);
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let r = Arc::new(Registry::new());
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let label = if t % 2 == 0 { "even" } else { "odd" };
                    for _ in 0..10_000 {
                        r.counter_add("hits", &[("par", label)], 1);
                        r.counter_add_f64("time", &[], 0.001);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        let total: u64 = snap
            .iter()
            .filter(|s| s.name == "hits")
            .map(|s| match s.value {
                SampleValue::Counter(c) => c,
                _ => 0,
            })
            .sum();
        assert_eq!(total, 80_000);
        let time = snap.iter().find(|s| s.name == "time").unwrap();
        match time.value {
            SampleValue::FloatCounter(v) => assert!((v - 80.0).abs() < 1e-6),
            _ => panic!("wrong type"),
        }
    }

    /// A leaked, distinct static metric name per index.
    fn name(i: usize) -> &'static str {
        Box::leak(format!("series_{i}").into_boxed_str())
    }

    #[test]
    fn colliding_keys_get_their_own_series_under_racing_threads() {
        let start = |n: &'static str| (Key::new(n, &[]).hash() as usize) % CAPACITY;
        let first = name(0);
        let second = (1..)
            .map(name)
            .find(|&n| start(n) == start(first))
            .expect("two names share a start slot");
        let r = Arc::new(Registry::new());
        let start_line = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let r = Arc::clone(&r);
                let start_line = Arc::clone(&start_line);
                // Half the threads claim in each order.
                let (a, b) = if t % 2 == 0 {
                    (first, second)
                } else {
                    (second, first)
                };
                std::thread::spawn(move || {
                    // All eight race for the shared start slot at once.
                    start_line.wait();
                    for _ in 0..1_000 {
                        r.counter_add(a, &[], 1);
                        r.counter_add(b, &[], 2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 2);
        for s in &snap {
            assert!(s.name == first || s.name == second);
            assert_eq!(s.value, SampleValue::Counter(8 * 1_000 * 3 / 2));
        }
    }

    #[test]
    #[should_panic(expected = "registry full")]
    fn the_series_past_capacity_panics() {
        let r = Registry::new();
        for i in 0..=CAPACITY {
            r.counter_add(name(i), &[], 1);
        }
    }
}
