//! The message transport between simulated ranks: what travels ([`Msg`],
//! [`RowRope`]), the shared queues it travels through ([`Fabric`]), and each
//! rank's receive side ([`Mailbox`]).
//!
//! The fabric is where ranks block, and the only place: [`Fabric::recv`]
//! waits on the rank's condvar under the thread executor and parks the
//! rank's fiber under the fiber executor (see [`crate::executor`]).

use crate::executor;
use crate::fault::SeqTracker;
use pop_comm::SweepPartials;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// A message between ranks. Every variant carries the simulated time at
/// which its payload is available to the receiver.
#[derive(Clone)]
pub(crate) enum Msg {
    /// The rows of halo pull `pull` (its id in the layout's
    /// [`HaloPlan`](pop_comm::halo::HaloPlan)) of halo epoch `epoch`.
    Halo {
        epoch: u64,
        pull: u32,
        data: Vec<f64>,
        /// The payload arrived corrupted (simulated checksum failure) or its
        /// retry budget was exhausted; `data` is NaN-poisoned and the
        /// receiver counts a delivery failure.
        poisoned: bool,
        avail_at: f64,
    },
    /// Partial-reduction rows on their way to be folded: up a gather tree
    /// ([`GATHER_ROUND`]), from the odd rank of a non-power-of-two preamble
    /// pair ([`PREAMBLE_ROUND`]), or one stage of a butterfly exchange
    /// (`round` = stage index). A reduce epoch revisits the same partner
    /// across stages, so `round` is part of the reorder-buffer key; the
    /// sender rides the envelope's `from`.
    Rows {
        epoch: u64,
        round: u32,
        rows: RowRope,
        avail_at: f64,
    },
    /// The folded result flowing down a broadcast tree (or handed to the
    /// odd partner of the non-power-of-two preamble).
    /// Boxed: a full `SweepPartials` inline would dominate the enum's
    /// size and make every queued halo strip pay for it.
    Bcast {
        epoch: u64,
        vals: Box<SweepPartials>,
        avail_at: f64,
    },
}

/// [`Msg::Rows`] round id of the non-power-of-two preamble: one fixed slot
/// above every butterfly stage index.
pub(crate) const PREAMBLE_ROUND: u32 = u32::MAX;

/// [`Msg::Rows`] round id of a gather-tree hop, beside the preamble's.
pub(crate) const GATHER_ROUND: u32 = u32::MAX - 1;

/// Partial-reduction rows `(global block id, partials)` in transit: a rope
/// of immutable shared segments.
///
/// Butterfly allreduces accumulate *every* rank's rows at *every* rank;
/// physically copying the accumulated set each stage is
/// O(p · n_blocks · log p) host memcpy — tens of gigabytes per collective
/// at 16384 ranks, plus the same again sitting in transit queues. The rope
/// makes concatenation O(1): an exchange clones `Arc` handles to
/// already-built subtrees, and only the leaves (each rank's own sweep
/// rows) are ever materialized. The fold places rows in a global slot array
/// indexed by block id, so traversal order is irrelevant and the result
/// stays bitwise identical to a flat representation.
///
/// Tree depth is one per gather child or butterfly stage — O(log p) — so
/// the recursive visit and drop are shallow.
#[derive(Clone, Default)]
pub(crate) enum RowRope {
    #[default]
    Empty,
    Leaf(Arc<[(u32, SweepPartials)]>),
    Cat {
        len: usize,
        left: Arc<RowRope>,
        right: Arc<RowRope>,
    },
}

impl RowRope {
    /// A single-segment rope holding a copy of `rows` (the one
    /// materialization an allreduce performs per rank).
    pub(crate) fn from_slice(rows: &[(u32, SweepPartials)]) -> Self {
        if rows.is_empty() {
            RowRope::Empty
        } else {
            RowRope::Leaf(rows.into())
        }
    }

    pub(crate) fn len(&self) -> usize {
        match self {
            RowRope::Empty => 0,
            RowRope::Leaf(s) => s.len(),
            RowRope::Cat { len, .. } => *len,
        }
    }

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append `other` in O(1) by linking subtrees — no row copies.
    pub(crate) fn extend(&mut self, other: RowRope) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other;
            return;
        }
        let left = std::mem::take(self);
        *self = RowRope::Cat {
            len: left.len() + other.len(),
            left: Arc::new(left),
            right: Arc::new(other),
        };
    }

    /// Visit every row in the rope.
    pub(crate) fn visit(&self, f: &mut impl FnMut(u32, &SweepPartials)) {
        match self {
            RowRope::Empty => {}
            RowRope::Leaf(s) => {
                for (gb, row) in s.iter() {
                    f(*gb, row);
                }
            }
            RowRope::Cat { left, right, .. } => {
                left.visit(f);
                right.visit(f);
            }
        }
    }
}

/// A message on the wire: the payload plus the sender's identity and the
/// per-link sequence number that makes delivery idempotent (duplicates are
/// discarded at [`Mailbox::pump`] before they can be filed twice).
struct Envelope {
    from: u32,
    seq: u64,
    msg: Msg,
}

/// One filed halo strip: payload, simulated arrival time, poison flag.
pub(crate) struct HaloArrival {
    pub(crate) data: Vec<f64>,
    pub(crate) avail_at: f64,
    pub(crate) poisoned: bool,
}

/// One rank's incoming queue on the shared fabric.
#[derive(Default)]
struct RankQueue {
    q: Mutex<VecDeque<Envelope>>,
    cv: Condvar,
}

impl RankQueue {
    /// Lock the queue, shrugging off mutex poisoning: a panicking peer
    /// already raised the fabric's own dead flag, which is what receivers
    /// act on.
    fn lock(&self) -> MutexGuard<'_, VecDeque<Envelope>> {
        self.q.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// The shared message fabric: one queue per rank plus a poison flag raised
/// when any rank panics, so blocked receivers fail fast instead of hanging
/// the world. Every rank shares one `Arc<Fabric>` and addresses peers by
/// index, so fabric memory is O(p) (per-rank sender handles would be O(p²):
/// ≈ 270 M at 16384 ranks).
pub(crate) struct Fabric {
    queues: Vec<RankQueue>,
    dead: AtomicBool,
    /// Epoch-keyed memo of finished reduction folds. Every rank of a
    /// butterfly collective accumulates the complete row multiset, so the
    /// canonical block-ordered fold is rank-independent; at large worlds
    /// the per-rank fold itself is the host bottleneck (p · n_blocks slot
    /// writes per collective), so ranks beyond the first reuse the memo
    /// after an O(1) completeness check. Small worlds fold independently
    /// and *assert* agreement with the memo — see `RankComm::fold_reduced`.
    /// Each entry carries a countdown of the epoch's folding ranks that have
    /// yet to read it; the last reader removes it, so the memo holds only
    /// epochs still being folded.
    folds: Mutex<HashMap<u64, MemoFold>>,
}

/// A finished reduction fold in [`Fabric`]'s memo, and how many of its
/// epoch's folding ranks have yet to read it.
pub(crate) struct MemoFold {
    pub(crate) vals: SweepPartials,
    pub(crate) readers_left: usize,
}

impl Fabric {
    pub(crate) fn new(p: usize) -> Self {
        Fabric {
            queues: (0..p).map(|_| RankQueue::default()).collect(),
            dead: AtomicBool::new(false),
            folds: Mutex::new(HashMap::new()),
        }
    }

    /// Lock the fold memo, shrugging off mutex poisoning like
    /// [`RankQueue::lock`].
    pub(crate) fn fold_memo(&self) -> MutexGuard<'_, HashMap<u64, MemoFold>> {
        self.folds.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Put `msg` on the wire from rank `from` to rank `dst` (twice when the
    /// fault plan duplicated it — the receiver's sequence tracker discards
    /// the copy). Queues live for the whole world run, so a post after the
    /// receiver logically finished just parks a message nobody drains —
    /// which can only be a stale duplicate or a fault-delayed copy.
    pub(crate) fn post(&self, from: usize, dst: usize, seq: u64, duplicate: bool, msg: Msg) {
        let from = from as u32;
        if duplicate {
            let msg = msg.clone();
            self.send(dst, Envelope { from, seq, msg });
        }
        self.send(dst, Envelope { from, seq, msg });
    }

    fn send(&self, dst: usize, env: Envelope) {
        let queue = &self.queues[dst];
        queue.lock().push_back(env);
        queue.cv.notify_one();
        // Under the fiber executor the receiver is a parked coroutine on
        // this very thread, not a thread in a condvar wait.
        executor::wake(dst);
    }

    /// Block until a message addressed to `rank` arrives. Panics if the
    /// world was poisoned — the peer this rank is waiting on may be gone.
    fn recv(&self, rank: usize) -> Envelope {
        let queue = &self.queues[rank];
        let mut q = queue.lock();
        loop {
            if let Some(env) = q.pop_front() {
                return env;
            }
            if self.dead.load(Ordering::SeqCst) {
                panic!("peer rank terminated mid-protocol");
            }
            q = if executor::active() {
                // Cooperative path: park this rank's fiber instead of the OS
                // thread (holding no lock). No lost-wakeup window exists —
                // sends only happen from sibling fibers on this same thread,
                // so nothing can land between the failed pop and the park.
                drop(q);
                executor::park_current();
                queue.lock()
            } else {
                queue.cv.wait(q).unwrap_or_else(|e| e.into_inner())
            };
        }
    }

    /// Raise the dead flag and wake every blocked receiver. Taking each
    /// queue's lock before notifying closes the race with a receiver that
    /// checked the flag and is about to wait.
    pub(crate) fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for queue in &self.queues {
            drop(queue.lock());
            queue.cv.notify_all();
        }
        // Parked fibers hold no condvar; requeue them so they observe the
        // dead flag and unwind.
        executor::wake_all();
    }
}

/// Poisons the fabric if its rank unwinds, so every peer blocked on a
/// receive panics with a protocol error instead of deadlocking the world.
pub(crate) struct PoisonOnPanic(pub(crate) Arc<Fabric>);

impl Drop for PoisonOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.poison();
        }
    }
}

/// A rank's receive side: the fabric queue plus reorder buffers. Ranks
/// drift (one may post epoch `e+1` halo sends while a neighbour still waits
/// on epoch `e`), so every message is filed under its epoch key until asked
/// for.
pub(crate) struct Mailbox {
    fabric: Arc<Fabric>,
    rank: usize,
    /// Per-sender sequence tracking for duplicate discard. Keyed lazily:
    /// a rank only ever hears from its halo neighbours and collective
    /// partners (O(log p) peers), so a dense `Vec` per rank would be
    /// another O(p²) memory term at high rank counts.
    seen: HashMap<u32, SeqTracker>,
    /// Duplicate deliveries discarded so far.
    pub(crate) duplicates: u64,
    /// Keyed `(epoch, pull)`.
    halos: HashMap<(u64, u32), HaloArrival>,
    /// Keyed `(epoch, round, from)`.
    rows: HashMap<(u64, u32, u32), (RowRope, f64)>,
    bcasts: HashMap<u64, (SweepPartials, f64)>,
}

impl Mailbox {
    pub(crate) fn new(fabric: Arc<Fabric>, rank: usize) -> Self {
        Mailbox {
            fabric,
            rank,
            seen: HashMap::new(),
            duplicates: 0,
            halos: HashMap::new(),
            rows: HashMap::new(),
            bcasts: HashMap::new(),
        }
    }

    /// Block on the fabric for one message and file it; duplicates (same
    /// sender, same sequence number) are counted and dropped, so pumping
    /// may file nothing.
    fn pump(&mut self) {
        let env = self.fabric.recv(self.rank);
        if !self.seen.entry(env.from).or_default().accept(env.seq) {
            self.duplicates += 1;
            return;
        }
        match env.msg {
            Msg::Halo {
                epoch,
                pull,
                data,
                poisoned,
                avail_at,
            } => {
                self.halos.insert(
                    (epoch, pull),
                    HaloArrival {
                        data,
                        avail_at,
                        poisoned,
                    },
                );
            }
            Msg::Rows {
                epoch,
                round,
                rows,
                avail_at,
            } => {
                self.rows.insert((epoch, round, env.from), (rows, avail_at));
            }
            Msg::Bcast {
                epoch,
                vals,
                avail_at,
            } => {
                self.bcasts.insert(epoch, (*vals, avail_at));
            }
        }
    }

    /// Pump until `take` finds what it is waiting for in the buffers.
    fn recv_filed<V>(&mut self, mut take: impl FnMut(&mut Self) -> Option<V>) -> V {
        loop {
            if let Some(v) = take(self) {
                return v;
            }
            self.pump();
        }
    }

    pub(crate) fn recv_halo(&mut self, epoch: u64, pull: u32) -> HaloArrival {
        self.recv_filed(|m| m.halos.remove(&(epoch, pull)))
    }

    pub(crate) fn recv_rows(&mut self, epoch: u64, round: u32, from: u32) -> (RowRope, f64) {
        self.recv_filed(|m| m.rows.remove(&(epoch, round, from)))
    }

    pub(crate) fn recv_bcast(&mut self, epoch: u64) -> (SweepPartials, f64) {
        self.recv_filed(|m| m.bcasts.remove(&epoch))
    }
}
