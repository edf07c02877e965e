//! The rank runtime: one OS thread per simulated MPI rank, typed channels
//! for messages, simulated clocks charged by a [`NetworkModel`].
//!
//! # Execution model
//!
//! [`RankWorld::run`] spawns one thread per rank; each thread gets a
//! [`RankComm`] — its private communicator — and runs the same SPMD body.
//! A rank owns a private [`RankVec`] slice of every field (the blocks the
//! space-filling-curve assignment gave it) and can only learn about remote
//! data through messages:
//!
//! - **Halo updates** send each boundary strip as an explicit point-to-point
//!   message to the owning rank (same geometry, message count, and byte
//!   count as [`CommWorld`](pop_comm::CommWorld) attributes in shared
//!   memory; rank-local strips are plain copies and cost no wire time).
//! - **Global reductions** run as a binomial gather of per-block partial
//!   rows to rank 0, a deterministic fold there, and a binomial broadcast of
//!   the result — `2·⌈log₂ p⌉` message hops on the critical path, exactly
//!   the `log₂ p` scaling the paper's reduction model assumes.
//!
//! # Simulated time
//!
//! Each rank carries a clock (seconds, starting at 0). Compute sweeps
//! advance it by `owned points × compute_per_point`; every message carries
//! an `avail_at` stamp of `sender clock + network cost`, and a receiver
//! waits by advancing its clock to the latest arrival it consumed. Causality
//! does the rest: reduction trees cost their critical path, neighbour skew
//! propagates, and an allreduce-per-iteration solver accumulates exactly
//! the latency the paper measures — while P-CSI's reduction-free loop body
//! accumulates none.
//!
//! # Determinism
//!
//! Reductions honour the [`Communicator`] contract: rank 0 places every
//! gathered `(global block id, partials)` row into a slot array and folds
//! slots `0..n_blocks` left-to-right from zero — bit-identical to
//! [`CommWorld`](pop_comm::CommWorld)'s block-ordered fold, for *any* rank
//! count or block assignment. `tests/ranksim_equivalence.rs` pins this.

use crate::collective::ReduceAlgo;
use crate::fault::{shuffle, FaultPlan, SeqTracker};
use crate::net::NetworkModel;
use crate::trace::{Span, SpanKind};
use crate::vec::{RankField, RankVec};
use pop_comm::halo::{recv_region, CopyRegion};
use pop_comm::{
    masked_block_dot, CommVec, Communicator, DistLayout, DistVec, StatsSnapshot, SweepPartials,
    Tile, MAX_SWEEP_PARTIALS,
};
use pop_grid::sfc::CurveKind;
use pop_grid::{Direction, RankAssignment};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Stack reserved per rank thread. Rank bodies keep little on the stack
/// (tiles live in the `RankVec` heap storage), and the default 8 MiB per
/// thread would cost a 16384-rank world 128 GiB of address space; 1 MiB
/// keeps huge worlds cheap to spawn.
const RANK_THREAD_STACK: usize = 1 << 20;

/// Spawn one worker per rank through `pthread_create` directly and join
/// them all, collecting results in spawn order.
///
/// Why not `std::thread`: std installs a per-thread sigaltstack for stack
/// overflow reporting, costing two extra VMAs per thread on top of the
/// glibc stack's own guard + stack pair — four mappings each. A
/// 16384-rank world then overruns the kernel's default `vm.max_map_count`
/// (65530) before it finishes spawning. The raw path costs exactly the
/// stack's two VMAs per thread, which fits the largest sweeps with room
/// to spare. The price is std's friendly stack-overflow message (the
/// guard page still faults, just without the banner) and thread names.
///
/// Soundness: the workers may borrow from the caller's stack. Every
/// spawned thread is joined before this function returns on *all* paths —
/// including a failed `pthread_create` mid-loop, where `on_spawn_fail` is
/// invoked first so workers blocked on peers that will never exist can
/// unblock (the caller poisons the message fabric). Worker panics are
/// caught inside the thread and re-raised here after all joins complete.
#[cfg(target_os = "linux")]
mod raw_spawn {
    use std::ffi::c_void;
    use std::mem::MaybeUninit;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
    use std::sync::Mutex;

    #[allow(non_camel_case_types)]
    type pthread_t = usize;

    /// `pthread_attr_t`: 56 opaque bytes, word-aligned, on every Linux
    /// libc this crate targets (glibc and musl, 64-bit).
    #[repr(C, align(8))]
    struct PthreadAttr([u8; 56]);

    extern "C" {
        fn pthread_create(
            thread: *mut pthread_t,
            attr: *const PthreadAttr,
            start: extern "C" fn(*mut c_void) -> *mut c_void,
            arg: *mut c_void,
        ) -> i32;
        fn pthread_join(thread: pthread_t, retval: *mut *mut c_void) -> i32;
        fn pthread_attr_init(attr: *mut PthreadAttr) -> i32;
        fn pthread_attr_destroy(attr: *mut PthreadAttr) -> i32;
        fn pthread_attr_setstacksize(attr: *mut PthreadAttr, size: usize) -> i32;
    }

    /// The type-erased payload a thread runs. `'static` is a lie told to
    /// the trampoline only — `run_all` joins every thread before its
    /// borrows go out of scope.
    type Payload = Box<dyn FnOnce() + Send + 'static>;

    extern "C" fn trampoline(arg: *mut c_void) -> *mut c_void {
        // The payload wraps the worker in catch_unwind, so no panic can
        // reach this FFI boundary.
        let f = unsafe { Box::from_raw(arg as *mut Payload) };
        f();
        std::ptr::null_mut()
    }

    pub fn run_all<T, F>(workers: Vec<F>, stack_size: usize, on_spawn_fail: impl Fn()) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = workers.len();
        let slots: Vec<Mutex<Option<std::thread::Result<T>>>> =
            (0..n).map(|_| Mutex::new(None)).collect();
        let mut tids: Vec<pthread_t> = Vec::with_capacity(n);
        let mut spawn_err = None;
        unsafe {
            let mut attr = MaybeUninit::<PthreadAttr>::uninit();
            assert_eq!(pthread_attr_init(attr.as_mut_ptr()), 0, "pthread_attr_init");
            assert_eq!(
                pthread_attr_setstacksize(attr.as_mut_ptr(), stack_size),
                0,
                "pthread_attr_setstacksize"
            );
            for (i, w) in workers.into_iter().enumerate() {
                let slot = &slots[i];
                let payload: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let r = catch_unwind(AssertUnwindSafe(w));
                    *slot.lock().unwrap() = Some(r);
                });
                // Erase the borrow lifetime for the trampoline; every
                // thread is joined below before the borrows expire.
                let payload: Payload = std::mem::transmute(payload);
                let arg = Box::into_raw(Box::new(payload)) as *mut c_void;
                let mut tid: pthread_t = 0;
                let rc = pthread_create(&mut tid, attr.as_ptr(), trampoline, arg);
                if rc != 0 {
                    drop(Box::from_raw(arg as *mut Payload));
                    spawn_err = Some((i, rc));
                    on_spawn_fail();
                    break;
                }
                tids.push(tid);
            }
            pthread_attr_destroy(attr.as_mut_ptr());
            for &tid in tids.iter() {
                assert_eq!(
                    pthread_join(tid, std::ptr::null_mut()),
                    0,
                    "pthread_join rank thread"
                );
            }
        }
        if let Some((i, rc)) = spawn_err {
            panic!("spawn rank thread {i}: pthread_create returned {rc}");
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, m)| {
                match m
                    .into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .unwrap_or_else(|| panic!("rank thread {i} exited without a result"))
                {
                    Ok(v) => v,
                    Err(e) => resume_unwind(e),
                }
            })
            .collect()
    }
}

/// Cooperative fiber executor for huge worlds.
///
/// One OS thread can only fan out so far: this container (like many CI
/// sandboxes and batch nodes) caps the task count near 16 k, so a
/// thread-per-rank world stalls at exactly the 16384-rank sweep the
/// scaling study needs. Fibers sidestep the kernel entirely: every rank
/// becomes a `ucontext` coroutine with a 1 MiB heap stack, multiplexed on
/// the calling thread by a run-queue scheduler. A rank that would block
/// in [`Fabric::recv`] parks its fiber instead; the matching
/// [`Fabric::send`] moves it back to the run queue. Since rank bodies
/// only ever block on the fabric, no other yield point is needed.
///
/// Determinism: the simulation is executor-independent by construction —
/// simulated clocks come from `avail_at` stamps carried in envelopes, and
/// every reduction folds rows in canonical block order, so thread
/// scheduling never influenced results either. The fiber path additionally
/// runs ranks in a deterministic cooperative order, and the equivalence is
/// pinned by tests against both the thread executor and shared memory.
///
/// Platform: glibc x86_64 Linux only (`getcontext`/`swapcontext` plus the
/// glibc ABI offsets of `uc_link` and `uc_stack`). Everything else falls
/// back to threads; [`RankExecutor::Fibers`] panics there rather than
/// silently running a different executor than asked.
///
/// Safety notes baked into the layout:
/// - `ucontext_t` holds a self-pointer (`uc_mcontext.fpregs` aims at the
///   blob's own FP save area), so contexts are initialised **in place**
///   inside a pre-sized `Vec` that never reallocates, and the scheduler's
///   own context lives in the same heap-boxed `SchedCore`.
/// - Fiber stacks are `mmap`ed directly (lazy commit, `munmap` on drop,
///   `PROT_NONE` guard page below) rather than `malloc`ed — glibc retains
///   freed 1 MiB chunks in its arenas, which compounds into an OOM across
///   back-to-back 16384-rank worlds.
/// - Panics never cross a context switch: each fiber runs its worker under
///   `catch_unwind`, records the payload, and exits over `uc_link`; the
///   unwinding drops the rank's `PoisonOnPanic` guard, which poisons the
///   fabric and wakes every parked peer so they unwind too. The first
///   payload is re-raised on the scheduler thread after all fibers finish.
#[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
mod fiber {
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

    pub const SUPPORTED: bool = true;

    /// Opaque `ucontext_t` blob; glibc's is 968 bytes on x86_64.
    #[repr(C, align(16))]
    struct Context([u8; 1024]);

    impl Context {
        fn zeroed() -> Self {
            Context([0; 1024])
        }
    }

    // glibc x86_64 `ucontext_t` field offsets: { unsigned long uc_flags;
    // ucontext_t *uc_link; stack_t uc_stack; mcontext_t uc_mcontext; ... }
    // with stack_t = { void *ss_sp; int ss_flags; size_t ss_size; }.
    const UC_LINK: usize = 8;
    const UC_STACK_SP: usize = 16;
    const UC_STACK_FLAGS: usize = 24;
    const UC_STACK_SIZE: usize = 32;

    extern "C" {
        fn getcontext(ucp: *mut Context) -> i32;
        fn swapcontext(oucp: *mut Context, ucp: *const Context) -> i32;
        fn makecontext(ucp: *mut Context, func: extern "C" fn(), argc: i32, ...);
    }

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum State {
        Ready,
        Running,
        Blocked,
        Done,
    }

    extern "C" {
        fn mmap(
            addr: *mut std::ffi::c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut std::ffi::c_void;
        fn munmap(addr: *mut std::ffi::c_void, len: usize) -> i32;
        fn mprotect(addr: *mut std::ffi::c_void, len: usize, prot: i32) -> i32;
    }

    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 3;
    const MAP_PRIVATE_ANON: i32 = 0x22;
    /// Don't charge the (mostly untouched) reservation against commit
    /// accounting: a 16384-fiber world reserves 16 GiB of stacks but
    /// dirties only a few KiB of each.
    const MAP_NORESERVE: i32 = 0x4000;
    const PAGE: usize = 4096;

    /// A fiber stack mapped straight from the kernel, with a `PROT_NONE`
    /// guard page below it. Not `malloc`: glibc retains and fragments
    /// freed 1 MiB chunks across its arenas, which compounds into an OOM
    /// when ten 16384-rank worlds run back to back — `munmap` gives every
    /// page back immediately, and fresh zero pages mean only the stack
    /// depth actually touched ever gets committed. The guard page turns a
    /// fiber stack overflow into a clean fault instead of silent
    /// corruption of the neighbouring mapping.
    struct FiberStack {
        base: *mut u8,
        len: usize,
    }

    impl FiberStack {
        fn new(size: usize) -> FiberStack {
            let len = size + PAGE;
            unsafe {
                let p = mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ_WRITE,
                    MAP_PRIVATE_ANON | MAP_NORESERVE,
                    -1,
                    0,
                );
                assert!(p as isize != -1, "mmap fiber stack");
                assert_eq!(mprotect(p, PAGE, PROT_NONE), 0, "mprotect fiber guard");
                FiberStack {
                    base: p as *mut u8,
                    len,
                }
            }
        }

        /// Lowest usable stack address (just above the guard page).
        fn sp(&self) -> *mut u8 {
            unsafe { self.base.add(PAGE) }
        }

        fn size(&self) -> usize {
            self.len - PAGE
        }
    }

    impl Drop for FiberStack {
        fn drop(&mut self) {
            unsafe {
                munmap(self.base as *mut std::ffi::c_void, self.len);
            }
        }
    }

    struct Fiber {
        ctx: Context,
        /// Keeps the mapping alive; `ctx` points into it.
        #[allow(dead_code)]
        stack: FiberStack,
        state: State,
    }

    /// The non-generic half of the scheduler, reachable from the fabric
    /// hooks through a thread-local pointer. The generic half (workers and
    /// results) hangs off `outer`, reached only by the monomorphized
    /// `entry` stored beside it.
    struct SchedCore {
        fibers: Vec<Fiber>,
        run_q: VecDeque<usize>,
        current: usize,
        main_ctx: Context,
        entry: fn(*mut SchedCore, usize),
        outer: *mut (),
    }

    thread_local! {
        static CURRENT: Cell<*mut SchedCore> = const { Cell::new(std::ptr::null_mut()) };
    }

    /// Is a fiber scheduler driving this thread right now?
    pub fn active() -> bool {
        CURRENT.with(|c| !c.get().is_null())
    }

    /// Park the running fiber until [`wake`] moves it back to the run
    /// queue. Must only be called from inside a fiber (i.e. when
    /// [`active`]); the caller must hold no locks.
    pub fn park_current() {
        let core = CURRENT.with(|c| c.get());
        debug_assert!(!core.is_null(), "park_current outside a fiber scheduler");
        unsafe {
            // Scope every reborrow of the scheduler so no reference is
            // live across the context switch — only raw pointers survive.
            let (fctx, mctx) = {
                let c = &mut *core;
                let id = c.current;
                c.fibers[id].state = State::Blocked;
                let fctx: *mut Context = &mut c.fibers[id].ctx;
                let mctx: *const Context = &c.main_ctx;
                (fctx, mctx)
            };
            let rc = swapcontext(fctx, mctx);
            assert_eq!(rc, 0, "swapcontext out of rank fiber");
        }
    }

    /// A message landed in `dst`'s queue: if that fiber is parked, make it
    /// runnable. No-op when no scheduler drives this thread (thread
    /// executor) or the fiber is running/ready already.
    pub fn wake(dst: usize) {
        let core = CURRENT.with(|c| c.get());
        if core.is_null() {
            return;
        }
        unsafe {
            let c = &mut *core;
            if dst < c.fibers.len() && c.fibers[dst].state == State::Blocked {
                c.fibers[dst].state = State::Ready;
                c.run_q.push_back(dst);
            }
        }
    }

    /// Make every parked fiber runnable (poison path: they will observe
    /// the fabric's dead flag and unwind).
    pub fn wake_all() {
        let core = CURRENT.with(|c| c.get());
        if core.is_null() {
            return;
        }
        unsafe {
            let c = &mut *core;
            for id in 0..c.fibers.len() {
                if c.fibers[id].state == State::Blocked {
                    c.fibers[id].state = State::Ready;
                    c.run_q.push_back(id);
                }
            }
        }
    }

    struct Outer<F, T> {
        workers: Vec<Option<F>>,
        results: Vec<Option<std::thread::Result<T>>>,
    }

    fn entry<F, T>(core: *mut SchedCore, id: usize)
    where
        F: FnOnce() -> T,
    {
        unsafe {
            let outer = { (*core).outer as *mut Outer<F, T> };
            let w = {
                let o = &mut *outer;
                o.workers[id].take().expect("fiber ran twice")
            };
            let r = catch_unwind(AssertUnwindSafe(w));
            {
                let o = &mut *outer;
                o.results[id] = Some(r);
            }
            {
                let c = &mut *core;
                c.fibers[id].state = State::Done;
            }
        }
    }

    /// The common entry point every fiber starts in; dispatches to the
    /// monomorphized `entry` and then returns over `uc_link` back to the
    /// scheduler.
    extern "C" fn fiber_main() {
        let core = CURRENT.with(|c| c.get());
        unsafe {
            let (entry, id) = {
                let c = &*core;
                (c.entry, c.current)
            };
            entry(core, id);
        }
    }

    /// Restores the previous thread-local scheduler on exit (supports
    /// nested worlds and panics out of the scheduler loop).
    struct CurrentGuard(*mut SchedCore);

    impl CurrentGuard {
        fn enter(core: *mut SchedCore) -> Self {
            let prev = CURRENT.with(|c| c.replace(core));
            CurrentGuard(prev)
        }
    }

    impl Drop for CurrentGuard {
        fn drop(&mut self) {
            CURRENT.with(|c| c.set(self.0));
        }
    }

    /// Run every worker as a fiber on the calling thread and collect the
    /// results in order. `on_deadlock` is invoked (once) if the run queue
    /// drains while fibers are still parked — the caller poisons the
    /// fabric there, which unwinds the stuck ranks instead of hanging.
    pub fn run_all<T, F>(workers: Vec<F>, stack_size: usize, on_deadlock: impl Fn()) -> Vec<T>
    where
        F: FnOnce() -> T,
    {
        let n = workers.len();
        let mut outer = Outer::<F, T> {
            workers: workers.into_iter().map(Some).collect(),
            results: (0..n).map(|_| None).collect(),
        };
        let mut core = Box::new(SchedCore {
            fibers: Vec::with_capacity(n),
            run_q: (0..n).collect(),
            current: 0,
            main_ctx: Context::zeroed(),
            entry: entry::<F, T>,
            outer: &mut outer as *mut Outer<F, T> as *mut (),
        });
        for _ in 0..n {
            core.fibers.push(Fiber {
                ctx: Context::zeroed(),
                stack: FiberStack::new(stack_size),
                state: State::Ready,
            });
        }
        let core_ptr: *mut SchedCore = &mut *core;
        unsafe {
            // Initialise contexts in place — `getcontext` plants a
            // self-pointer, so the blobs must never move afterwards.
            {
                let c = &mut *core_ptr;
                let main_ctx: *mut Context = &mut c.main_ctx;
                for f in c.fibers.iter_mut() {
                    let ctx: *mut Context = &mut f.ctx;
                    assert_eq!(getcontext(ctx), 0, "getcontext for rank fiber");
                    let base = ctx as *mut u8;
                    (base.add(UC_LINK) as *mut *mut Context).write(main_ctx);
                    (base.add(UC_STACK_SP) as *mut *mut u8).write(f.stack.sp());
                    (base.add(UC_STACK_FLAGS) as *mut i32).write(0);
                    (base.add(UC_STACK_SIZE) as *mut usize).write(f.stack.size());
                    makecontext(ctx, fiber_main, 0);
                }
            }
            let _guard = CurrentGuard::enter(core_ptr);
            let mut poisoned_for_deadlock = false;
            loop {
                // Scope every reborrow so nothing references the
                // scheduler while a fiber runs; only raw pointers cross
                // the swap.
                let mut deadlocked = false;
                let swap = {
                    let c = &mut *core_ptr;
                    match c.run_q.pop_front() {
                        None => {
                            if c.fibers.iter().all(|f| f.state == State::Done) {
                                break;
                            }
                            assert!(
                                !poisoned_for_deadlock,
                                "fiber scheduler wedged: ranks still parked after poisoning"
                            );
                            poisoned_for_deadlock = true;
                            deadlocked = true;
                            None
                        }
                        Some(id) if c.fibers[id].state != State::Ready => None,
                        Some(id) => {
                            c.fibers[id].state = State::Running;
                            c.current = id;
                            let fctx: *const Context = &c.fibers[id].ctx;
                            let mctx: *mut Context = &mut c.main_ctx;
                            Some((mctx, fctx))
                        }
                    }
                };
                if let Some((mctx, fctx)) = swap {
                    let rc = swapcontext(mctx, fctx);
                    assert_eq!(rc, 0, "swapcontext into rank fiber");
                } else if deadlocked {
                    // Outside the scoped borrow: poisoning the fabric
                    // re-enters the scheduler through `wake_all`.
                    on_deadlock();
                }
            }
        }
        drop(core);
        outer
            .results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                match r.unwrap_or_else(|| panic!("rank fiber {i} exited without a result")) {
                    Ok(v) => v,
                    Err(e) => resume_unwind(e),
                }
            })
            .collect()
    }
}

/// Stub for platforms without the glibc x86_64 context-switch ABI: the
/// executor choice falls back to threads ([`RankExecutor::Fibers`] panics
/// instead of silently substituting a different executor).
#[cfg(not(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu")))]
mod fiber {
    pub const SUPPORTED: bool = false;

    pub fn active() -> bool {
        false
    }

    pub fn park_current() {
        unreachable!("fiber executor unsupported on this platform")
    }

    pub fn wake(_dst: usize) {}

    pub fn wake_all() {}

    pub fn run_all<T, F>(_workers: Vec<F>, _stack: usize, _on_deadlock: impl Fn()) -> Vec<T>
    where
        F: FnOnce() -> T,
    {
        unreachable!("fiber executor unsupported on this platform")
    }
}

/// Worlds larger than this run on fibers under [`RankExecutor::Auto`]:
/// past any plausible core count the kernel scheduler only adds churn
/// (and task-count limits bite near 16 k), while the cooperative
/// scheduler keeps memory and context switches cheap.
const FIBER_AUTO_THRESHOLD: usize = 256;

/// Worlds up to this size fold every reduction independently on every rank
/// and assert bitwise agreement through the fabric's fold memo; larger
/// worlds reuse the memoized fold after an O(1) completeness check (see
/// [`RankComm::fold_reduced`]). Covers every in-tree equivalence suite, so
/// the per-rank fold path stays exercised where it's cheap.
const INDEPENDENT_FOLD_MAX_RANKS: usize = 64;

/// How simulated ranks map onto the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RankExecutor {
    /// Threads up to `FIBER_AUTO_THRESHOLD` ranks, fibers beyond (where
    /// supported). The right choice unless a test pins one path.
    #[default]
    Auto,
    /// One OS thread per rank (the pre-fiber behaviour). Caps out near the
    /// host's task limit — a 16384-rank world needs more tasks than many
    /// containers allow.
    Threads,
    /// Cooperative `ucontext` fibers on the calling thread; glibc x86_64
    /// Linux only (panics elsewhere).
    Fibers,
}

/// Tuning knobs of the simulation (the network model rides separately).
#[derive(Debug, Clone, Copy)]
pub struct RankSimConfig {
    /// Seconds of simulated compute charged per owned grid point per fused
    /// sweep (and per dot sweep). Zero leaves the clock to communication.
    pub compute_per_point: f64,
    /// Record per-rank [`Span`]s for the Chrome trace dump.
    pub record_trace: bool,
    /// Seeded network fault plan; [`FaultPlan::none()`] leaves the runtime
    /// bit-for-bit identical to one without a fault layer.
    pub faults: FaultPlan,
    /// Which allreduce exchange pattern collectives execute
    /// ([`ReduceAlgo::Auto`] picks per collective from ranks, payload, and
    /// the network's node topology). Every algorithm folds the same rows in
    /// the same block order, so this changes simulated time only.
    pub reduce_algo: ReduceAlgo,
    /// Split-phase halo exchange: `Communicator::halo_sweep_fused` charges
    /// the interior stencil points *concurrently* with strip flight time,
    /// waiting only before the halo-reading edge points. Numerics are
    /// unchanged (the sweep still runs in canonical block order after every
    /// strip arrives); only the simulated clocks see the overlap.
    pub overlap_halo: bool,
    /// How ranks map onto the host: OS threads, cooperative fibers, or
    /// [`RankExecutor::Auto`] (threads for small worlds, fibers for huge
    /// ones). Bitwise invisible — results, counters, and simulated clocks
    /// are identical under every executor.
    pub executor: RankExecutor,
}

impl Default for RankSimConfig {
    fn default() -> Self {
        RankSimConfig {
            compute_per_point: 0.0,
            record_trace: false,
            faults: FaultPlan::none(),
            reduce_algo: ReduceAlgo::Binomial,
            overlap_halo: false,
            executor: RankExecutor::Auto,
        }
    }
}

impl RankSimConfig {
    /// Charge compute from a calibrated machine: a fused solver sweep costs
    /// roughly 25 flops per point (nine-point stencil multiply–adds plus
    /// the fused vector updates) at the machine's effective `theta`.
    pub fn modeled(m: &pop_perfmodel::machine::MachineModel) -> Self {
        RankSimConfig {
            compute_per_point: 25.0 * m.theta,
            ..RankSimConfig::default()
        }
    }

    /// This config with a fault plan installed.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// This config with a collective algorithm selected.
    pub fn with_reduce_algo(mut self, algo: ReduceAlgo) -> Self {
        self.reduce_algo = algo;
        self
    }

    /// This config with split-phase halo/compute overlap toggled.
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap_halo = overlap;
        self
    }

    /// This config with a rank executor pinned.
    pub fn with_executor(mut self, executor: RankExecutor) -> Self {
        self.executor = executor;
        self
    }
}

/// One copy operation of the halo exchange, in global block ids.
#[derive(Debug, Clone, Copy)]
struct PlanEntry {
    src_block: usize,
    dst_block: usize,
    /// `Direction::ALL` index, seen from the *receiving* block.
    dir: u8,
    region: CopyRegion,
}

/// The global halo exchange split by rank: who copies locally, who sends
/// where, who expects what. Built once per world from the same
/// `recv_region` geometry [`CommWorld`](pop_comm::CommWorld) uses.
#[derive(Debug)]
struct HaloPlan {
    locals: Vec<Vec<PlanEntry>>,
    sends: Vec<Vec<(usize, PlanEntry)>>,
    recvs: Vec<Vec<PlanEntry>>,
}

impl HaloPlan {
    fn build(layout: &DistLayout, ra: &RankAssignment) -> Self {
        let d = &layout.decomp;
        let mut plan = HaloPlan {
            locals: vec![Vec::new(); ra.p],
            sends: vec![Vec::new(); ra.p],
            recvs: vec![Vec::new(); ra.p],
        };
        for (x, info) in d.blocks.iter().enumerate() {
            for dir in Direction::ALL {
                let Some(nb) = d.neighbors[x][dir.index()] else {
                    continue;
                };
                let Some(region) = recv_region(info, &d.blocks[nb], dir, layout.halo) else {
                    continue;
                };
                let e = PlanEntry {
                    src_block: nb,
                    dst_block: x,
                    dir: dir.index() as u8,
                    region,
                };
                let (sr, dr) = (ra.rank_of_block[nb], ra.rank_of_block[x]);
                if sr == dr {
                    plan.locals[dr].push(e);
                } else {
                    plan.sends[sr].push((dr, e));
                    plan.recvs[dr].push(e);
                }
            }
        }
        plan
    }
}

/// A message between ranks. Every variant carries the simulated time at
/// which its payload is available to the receiver.
#[derive(Clone)]
enum Msg {
    /// One halo boundary strip for `(dst_block, dir)` of halo epoch `epoch`.
    Halo {
        epoch: u64,
        dst_block: u32,
        dir: u8,
        data: Vec<f64>,
        /// The payload arrived corrupted (simulated checksum failure) or its
        /// retry budget was exhausted; `data` is NaN-poisoned and the
        /// receiver counts a delivery failure.
        poisoned: bool,
        avail_at: f64,
    },
    /// Partial-reduction rows flowing up a gather tree (binomial allreduce,
    /// and the intra-node fold of the hierarchical one).
    Gather {
        epoch: u64,
        from: usize,
        rows: PartialRows,
        avail_at: f64,
    },
    /// One stage of a butterfly exchange (recursive doubling /
    /// Rabenseifner / inter-node leader phase). A reduce epoch revisits the
    /// same partner across stages, so the stage index (`round`) is part of
    /// the reorder-buffer key; the sender rides the envelope's `from`.
    Xchg {
        epoch: u64,
        round: u32,
        rows: PartialRows,
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

/// Partial-reduction rows in transit: a rope of immutable shared segments.
///
/// Butterfly allreduces accumulate *every* rank's rows at *every* rank;
/// physically copying the accumulated set each stage is
/// O(p · n_blocks · log p) host memcpy — tens of gigabytes per collective
/// at 16384 ranks, plus the same again sitting in transit queues. The rope
/// makes concatenation O(1): an exchange clones `Arc` handles to
/// already-built subtrees, and only the leaves (each rank's own sweep
/// rows) are ever materialized. [`RankComm::fold_rows`] places rows in a
/// global slot array indexed by block id, so traversal order is irrelevant
/// and the fold stays bitwise identical to the flat representation.
///
/// Tree depth is one per gather child or butterfly stage — O(log p) — so
/// the recursive visit and drop are shallow.
#[derive(Clone, Default)]
enum RowRope {
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
    fn from_slice(rows: &[(u32, SweepPartials)]) -> Self {
        if rows.is_empty() {
            RowRope::Empty
        } else {
            RowRope::Leaf(rows.into())
        }
    }

    fn len(&self) -> usize {
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
    fn extend(&mut self, other: RowRope) {
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
    fn visit(&self, f: &mut impl FnMut(u32, &SweepPartials)) {
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

/// Partial-reduction rows tagged with global block ids, as carried by
/// gather messages and filed in the reorder buffer.
type PartialRows = RowRope;

/// A message on the wire: the payload plus the sender's identity and the
/// per-link sequence number that makes delivery idempotent (duplicates are
/// discarded at [`Mailbox::pump`] before they can be filed twice).
struct Envelope {
    from: u32,
    seq: u64,
    msg: Msg,
}

/// One filed halo strip: payload, simulated arrival time, poison flag.
struct HaloArrival {
    data: Vec<f64>,
    avail_at: f64,
    poisoned: bool,
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
/// when any rank thread panics, so blocked receivers fail fast instead of
/// hanging the world.
///
/// This replaces the earlier per-rank `Vec<mpsc::Sender>` wiring, which
/// cloned `p` senders into each of `p` threads — O(p²) handles, ruinous at
/// 16384 ranks (≈270 M senders). Here every rank shares one `Arc<Fabric>`
/// and addresses peers by index, so fabric memory is O(p).
struct Fabric {
    queues: Vec<RankQueue>,
    dead: AtomicBool,
    /// Epoch-keyed memo of finished reduction folds. Every rank of a
    /// butterfly collective accumulates the complete row multiset, so the
    /// canonical block-ordered fold is rank-independent; at large worlds
    /// the per-rank fold itself is the host bottleneck (p · n_blocks slot
    /// writes per collective), so ranks beyond the first reuse the memo
    /// after an O(1) completeness check. Small worlds fold independently
    /// and *assert* agreement with the memo — see
    /// [`RankComm::fold_reduced`].
    folds: Mutex<HashMap<u64, SweepPartials>>,
}

impl Fabric {
    fn new(p: usize) -> Self {
        Fabric {
            queues: (0..p).map(|_| RankQueue::default()).collect(),
            dead: AtomicBool::new(false),
            folds: Mutex::new(HashMap::new()),
        }
    }

    /// Lock the fold memo, shrugging off mutex poisoning like
    /// [`RankQueue::lock`].
    fn fold_memo(&self) -> MutexGuard<'_, HashMap<u64, SweepPartials>> {
        self.folds.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn send(&self, dst: usize, env: Envelope) {
        let queue = &self.queues[dst];
        queue.lock().push_back(env);
        queue.cv.notify_one();
        // Under the fiber executor the receiver is a parked coroutine on
        // this very thread, not a thread in a condvar wait.
        fiber::wake(dst);
    }

    /// Block until a message addressed to `rank` arrives. Panics if the
    /// world was poisoned — the peer this rank is waiting on may be gone.
    fn recv(&self, rank: usize) -> Envelope {
        if fiber::active() {
            // Cooperative path: park this rank's fiber instead of the OS
            // thread. No lost-wakeup window exists — sends only happen
            // from sibling fibers on this same thread, so nothing can land
            // between the failed pop and the park.
            loop {
                if let Some(env) = self.queues[rank].lock().pop_front() {
                    return env;
                }
                if self.dead.load(Ordering::SeqCst) {
                    panic!("peer rank terminated mid-protocol");
                }
                fiber::park_current();
            }
        }
        let queue = &self.queues[rank];
        let mut q = queue.lock();
        loop {
            if let Some(env) = q.pop_front() {
                return env;
            }
            if self.dead.load(Ordering::SeqCst) {
                panic!("peer rank terminated mid-protocol");
            }
            q = queue.cv.wait(q).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Raise the dead flag and wake every blocked receiver. Taking each
    /// queue's lock before notifying closes the race with a receiver that
    /// checked the flag and is about to wait.
    fn poison(&self) {
        self.dead.store(true, Ordering::SeqCst);
        for queue in &self.queues {
            drop(queue.lock());
            queue.cv.notify_all();
        }
        // Parked fibers hold no condvar; requeue them so they observe the
        // dead flag and unwind.
        fiber::wake_all();
    }
}

/// Poisons the fabric if its thread unwinds, so every peer blocked on a
/// receive panics with a protocol error instead of deadlocking the world.
struct PoisonOnPanic(Arc<Fabric>);

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
struct Mailbox {
    fabric: Arc<Fabric>,
    rank: usize,
    /// Per-sender sequence tracking for duplicate discard. Keyed lazily:
    /// a rank only ever hears from its halo neighbours and collective
    /// partners (O(log p) peers), so a dense `Vec` per rank would be
    /// another O(p²) memory term at high rank counts.
    seen: HashMap<u32, SeqTracker>,
    /// Duplicate deliveries discarded so far.
    duplicates: u64,
    halos: HashMap<(u64, u32, u8), HaloArrival>,
    gathers: HashMap<(u64, usize), (PartialRows, f64)>,
    /// Butterfly stages, keyed `(epoch, round, from)` — one reduce epoch
    /// exchanges with the same partner at several stages.
    xchgs: HashMap<(u64, u32, u32), (PartialRows, f64)>,
    bcasts: HashMap<u64, (SweepPartials, f64)>,
}

impl Mailbox {
    fn new(fabric: Arc<Fabric>, rank: usize) -> Self {
        Mailbox {
            fabric,
            rank,
            seen: HashMap::new(),
            duplicates: 0,
            halos: HashMap::new(),
            gathers: HashMap::new(),
            xchgs: HashMap::new(),
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
        let from = env.from;
        match env.msg {
            Msg::Halo {
                epoch,
                dst_block,
                dir,
                data,
                poisoned,
                avail_at,
            } => {
                self.halos.insert(
                    (epoch, dst_block, dir),
                    HaloArrival {
                        data,
                        avail_at,
                        poisoned,
                    },
                );
            }
            Msg::Gather {
                epoch,
                from,
                rows,
                avail_at,
            } => {
                self.gathers.insert((epoch, from), (rows, avail_at));
            }
            Msg::Xchg {
                epoch,
                round,
                rows,
                avail_at,
            } => {
                self.xchgs.insert((epoch, round, from), (rows, avail_at));
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

    fn recv_halo(&mut self, epoch: u64, dst_block: u32, dir: u8) -> HaloArrival {
        loop {
            if let Some(v) = self.halos.remove(&(epoch, dst_block, dir)) {
                return v;
            }
            self.pump();
        }
    }

    fn recv_gather(&mut self, epoch: u64, from: usize) -> (PartialRows, f64) {
        loop {
            if let Some(v) = self.gathers.remove(&(epoch, from)) {
                return v;
            }
            self.pump();
        }
    }

    fn recv_xchg(&mut self, epoch: u64, round: u32, from: u32) -> (PartialRows, f64) {
        loop {
            if let Some(v) = self.xchgs.remove(&(epoch, round, from)) {
                return v;
            }
            self.pump();
        }
    }

    fn recv_bcast(&mut self, epoch: u64) -> (SweepPartials, f64) {
        loop {
            if let Some(v) = self.bcasts.remove(&epoch) {
                return v;
            }
            self.pump();
        }
    }
}

/// Per-rank communication counters (single-threaded, hence `Cell`s).
#[derive(Debug, Default)]
struct LocalStats {
    halo_updates: Cell<u64>,
    halo_messages: Cell<u64>,
    halo_bytes: Cell<u64>,
    allreduces: Cell<u64>,
    allreduce_scalars: Cell<u64>,
    /// Collective (allreduce) messages this rank put on the wire.
    allreduce_steps: Cell<u64>,
    /// Modelled payload bytes of those messages — what distinguishes
    /// Rabenseifner's halving schedule from full-payload exchanges.
    allreduce_bytes_on_wire: Cell<u64>,
    /// Retransmissions this rank performed as a sender (fault plan).
    retries: Cell<u64>,
    /// Poisoned halo strips this rank received (corruption or exhausted
    /// retry budget), surfaced instead of panicking.
    delivery_failures: Cell<u64>,
}

/// The handle a fused sweep returns under the rank runtime: the per-block
/// partial rows, kept un-reduced so [`Communicator::reduce_sweep`] can run
/// the real collective (and can run it again — each call is a fresh tree).
pub struct RankSweep {
    rows: Vec<(u32, SweepPartials)>,
}

/// One simulated rank's communicator: private blocks, the shared fabric, a
/// mailbox, a clock. Not `Sync` — it lives on its rank's thread.
pub struct RankComm {
    rank: usize,
    p: usize,
    layout: Arc<DistLayout>,
    owned: Arc<Vec<usize>>,
    local_of: Arc<Vec<u32>>,
    /// Sum of owned blocks' interior extents, for compute charging.
    owned_points: f64,
    /// Of `owned_points`, the points whose nine-point stencil reads no halo
    /// cell (each block's core, one ring in from its interior edge) — the
    /// work a split-phase sweep can do while strips are in flight.
    owned_core_points: f64,
    /// The halo-adjacent remainder (`owned_points − owned_core_points`),
    /// charged after the strips land.
    owned_edge_points: f64,
    plan: Arc<HaloPlan>,
    net: Arc<dyn NetworkModel>,
    cfg: RankSimConfig,
    fabric: Arc<Fabric>,
    inbox: RefCell<Mailbox>,
    clock: Cell<f64>,
    halo_epoch: Cell<u64>,
    reduce_epoch: Cell<u64>,
    /// Next sequence number per directed link `self → dst` (seqs start
    /// at 1; 0 means nothing sent yet). Keyed lazily for the same O(p²)
    /// reason as `Mailbox::seen`.
    next_seq: RefCell<HashMap<u32, u64>>,
    /// Monotone operation counter keying stall draws.
    fault_op: Cell<u64>,
    stats: LocalStats,
    spans: RefCell<Vec<Span>>,
    fold_scratch: RefCell<Vec<SweepPartials>>,
}

impl RankComm {
    /// This rank's id, `0..n_ranks`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of simulated ranks in the world.
    pub fn n_ranks(&self) -> usize {
        self.p
    }

    /// Global ids of the blocks this rank owns, sorted ascending.
    pub fn owned_blocks(&self) -> &[usize] {
        &self.owned
    }

    /// Current simulated time on this rank's clock (s).
    pub fn clock(&self) -> f64 {
        self.clock.get()
    }

    /// A zeroed rank-private vector over this rank's blocks.
    pub fn zeros(&self) -> RankVec {
        RankVec::zeros(&self.layout, &self.owned, &self.local_of, 1)
    }

    /// Copy this rank's slice out of a full shared-memory vector (the
    /// "initial scatter" a real MPI run would do once at startup).
    pub fn import(&self, src: &DistVec) -> RankVec {
        assert!(
            Arc::ptr_eq(&self.layout, &src.layout),
            "import source uses a different layout"
        );
        RankVec::from_dist(src, &self.owned, &self.local_of)
    }

    /// Allocate the next sequence number on the link to `dst` and draw the
    /// plan's faults for that message. Retries are charged here (the sender
    /// performed them).
    fn next_message(&self, dst: usize, data_plane: bool) -> (u64, crate::fault::MessageFaults) {
        let mut seqs = self.next_seq.borrow_mut();
        let counter = seqs.entry(dst as u32).or_insert(0);
        *counter += 1;
        let seq = *counter;
        let f = self.cfg.faults.message(self.rank, dst, seq, data_plane);
        if f.retries > 0 {
            self.stats
                .retries
                .set(self.stats.retries.get() + u64::from(f.retries));
        }
        (seq, f)
    }

    /// Put `msg` on the wire to `dst` (twice when the plan duplicated it —
    /// the receiver's sequence tracker discards the copy). Queues live on
    /// the shared fabric for the whole world run, so a send after the
    /// receiver logically finished just parks a message nobody drains —
    /// which can only be a stale duplicate or a fault-delayed copy.
    fn post(&self, dst: usize, seq: u64, duplicate: bool, msg: Msg) {
        let from = self.rank as u32;
        if duplicate {
            self.fabric.send(
                dst,
                Envelope {
                    from,
                    seq,
                    msg: msg.clone(),
                },
            );
        }
        self.fabric.send(dst, Envelope { from, seq, msg });
    }

    /// Draw (and charge) a whole-rank stall for the next halo/reduction
    /// operation.
    fn charge_stall(&self) {
        let op = self.fault_op.get();
        self.fault_op.set(op + 1);
        let s = self.cfg.faults.stall(self.rank, op);
        if s > 0.0 {
            let t0 = self.clock.get();
            self.clock.set(t0 + s);
            self.push_span(SpanKind::Stall, t0, t0 + s);
        }
    }

    fn push_span(&self, kind: SpanKind, t0: f64, t1: f64) {
        if self.cfg.record_trace {
            self.spans.borrow_mut().push(Span { kind, t0, t1 });
        }
    }

    /// Advance the clock by `dt` of local work.
    fn charge_compute(&self) {
        let t0 = self.clock.get();
        let t1 = t0 + self.owned_points * self.cfg.compute_per_point;
        self.clock.set(t1);
        self.push_span(SpanKind::Compute, t0, t1);
    }

    fn check_view<T: Tile>(&self, v: &RankField<T>) {
        assert!(
            Arc::ptr_eq(&self.layout, v.layout()),
            "operand uses a different layout"
        );
        assert!(
            Arc::ptr_eq(&self.owned, v.owned_arc()),
            "operand belongs to a different rank's view"
        );
    }

    /// Fold gathered rows exactly like `CommWorld::sweep_reduce`: place each
    /// block's row in its global slot, then left-fold slots `0..n_blocks`
    /// from zero. The slot array makes gather arrival order irrelevant.
    fn fold_rows(&self, rows: impl Iterator<Item = (u32, SweepPartials)>) -> SweepPartials {
        let n = self.layout.n_blocks();
        let mut slots = self.fold_scratch.borrow_mut();
        slots.clear();
        slots.resize(n, [0.0; MAX_SWEEP_PARTIALS]);
        for (gb, row) in rows {
            slots[gb as usize] = row;
        }
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
    fn fold_reduced(&self, epoch: u64, rows: &RowRope) -> SweepPartials {
        assert_eq!(
            rows.len(),
            self.layout.n_blocks(),
            "allreduce accumulated an incomplete row set"
        );
        let fold = |rows: &RowRope| -> SweepPartials {
            let n = self.layout.n_blocks();
            let mut slots = self.fold_scratch.borrow_mut();
            slots.clear();
            slots.resize(n, [0.0; MAX_SWEEP_PARTIALS]);
            rows.visit(&mut |gb, row| slots[gb as usize] = *row);
            let mut acc = [0.0; MAX_SWEEP_PARTIALS];
            for row in slots.iter() {
                for (a, v) in acc.iter_mut().zip(row) {
                    *a += *v;
                }
            }
            acc
        };
        if self.p <= INDEPENDENT_FOLD_MAX_RANKS {
            let mine = fold(rows);
            let mut memo = self.fabric.fold_memo();
            match memo.get(&epoch) {
                Some(prev) => {
                    let same = prev
                        .iter()
                        .zip(mine.iter())
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                    assert!(
                        same,
                        "rank {} folded a different reduction than its peers (epoch {})",
                        self.rank, epoch
                    );
                }
                None => {
                    memo.insert(epoch, mine);
                }
            }
            return mine;
        }
        if let Some(v) = self.fabric.fold_memo().get(&epoch) {
            return *v;
        }
        let mine = fold(rows);
        *self.fabric.fold_memo().entry(epoch).or_insert(mine)
    }

    /// Count one collective message of `bytes` modelled payload on the wire.
    fn count_wire(&self, bytes: usize) {
        self.stats
            .allreduce_steps
            .set(self.stats.allreduce_steps.get() + 1);
        self.stats
            .allreduce_bytes_on_wire
            .set(self.stats.allreduce_bytes_on_wire.get() + bytes as u64);
    }

    /// Send one butterfly-stage message to world rank `dst`, charged as a
    /// collective hop of `bytes` on the (topology-aware) network.
    fn send_xchg(&self, dst: usize, epoch: u64, round: u32, rows: PartialRows, bytes: usize) {
        let (seq, f) = self.next_message(dst, false);
        let avail = self.clock.get() + self.net.hop_between(self.rank, dst, bytes) + f.extra_delay;
        self.count_wire(bytes);
        self.post(
            dst,
            seq,
            f.duplicate,
            Msg::Xchg {
                epoch,
                round,
                rows,
                avail_at: avail,
            },
        );
    }

    /// Send gathered rows up a tree to world rank `dst` (binomial gather and
    /// the hierarchical intra-node fold), charged as a collective hop.
    fn send_gather(&self, dst: usize, epoch: u64, rows: PartialRows, bytes: usize) {
        let (seq, f) = self.next_message(dst, false);
        let avail = self.clock.get() + self.net.hop_between(self.rank, dst, bytes) + f.extra_delay;
        self.count_wire(bytes);
        self.post(
            dst,
            seq,
            f.duplicate,
            Msg::Gather {
                epoch,
                from: self.rank,
                rows,
                avail_at: avail,
            },
        );
    }

    /// Send the folded result down to world rank `dst`, charged as a
    /// collective hop.
    fn send_result(&self, dst: usize, epoch: u64, vals: SweepPartials, bytes: usize) {
        let (seq, f) = self.next_message(dst, false);
        let avail = self.clock.get() + self.net.hop_between(self.rank, dst, bytes) + f.extra_delay;
        self.count_wire(bytes);
        self.post(
            dst,
            seq,
            f.duplicate,
            Msg::Bcast {
                epoch,
                vals: Box::new(vals),
                avail_at: avail,
            },
        );
    }

    /// Receive one butterfly-stage message, advancing the clock to its
    /// arrival.
    fn recv_xchg(&self, epoch: u64, round: u32, from: usize) -> PartialRows {
        let (rows, avail) = self.inbox.borrow_mut().recv_xchg(epoch, round, from as u32);
        self.clock.set(self.clock.get().max(avail));
        rows
    }

    /// Receive the folded result, advancing the clock to its arrival.
    fn recv_result(&self, epoch: u64) -> SweepPartials {
        let (vals, avail) = self.inbox.borrow_mut().recv_bcast(epoch);
        self.clock.set(self.clock.get().max(avail));
        vals
    }

    /// THE allreduce. Every algorithm moves the same `(block id, partials)`
    /// rows and produces the same block-ordered fold — the rows are the
    /// determinism mechanism, not the modelled payload (a real
    /// MPI_Allreduce moves only the reduced scalars, and each hop is
    /// charged for the payload the real algorithm's schedule would carry).
    /// What [`ReduceAlgo`] changes is the message *schedule*, hence the
    /// simulated time and the wire-byte counters.
    fn reduce_rows(&self, rows: &[(u32, SweepPartials)], scalars: u64) -> SweepPartials {
        self.charge_stall();
        self.stats.allreduces.set(self.stats.allreduces.get() + 1);
        self.stats
            .allreduce_scalars
            .set(self.stats.allreduce_scalars.get() + scalars);
        let epoch = self.reduce_epoch.get();
        self.reduce_epoch.set(epoch + 1);
        let t0 = self.clock.get();

        let algo = self
            .cfg
            .reduce_algo
            .resolve(self.p, scalars, self.net.ranks_per_node());
        let result = if self.p == 1 {
            self.fold_rows(rows.iter().copied())
        } else {
            // The one materialization per rank: its own sweep rows become a
            // rope leaf; everything downstream moves Arc handles.
            let own = RowRope::from_slice(rows);
            match algo {
                ReduceAlgo::Binomial => self.allreduce_binomial(epoch, own, scalars),
                ReduceAlgo::RecursiveDoubling => {
                    self.allreduce_recursive_doubling(epoch, own, scalars)
                }
                ReduceAlgo::Rabenseifner => self.allreduce_rabenseifner(epoch, own, scalars),
                ReduceAlgo::Hierarchical => self.allreduce_hierarchical(epoch, own, scalars),
                ReduceAlgo::Auto => unreachable!("resolve() returns a concrete algorithm"),
            }
        };
        self.push_span(SpanKind::Allreduce, t0, self.clock.get());
        result
    }

    /// Binomial gather of rows to rank 0, deterministic fold there, binomial
    /// broadcast of the result — `2·⌈log₂ p⌉` hops on the critical path,
    /// every hop carrying the full `scalars` payload. The PR-2 baseline.
    fn allreduce_binomial(&self, epoch: u64, own: PartialRows, scalars: u64) -> SweepPartials {
        let (r, p) = (self.rank, self.p);
        let bytes = scalars.max(1) as usize * 8;

        // Gather phase: children (bit set) send up, parents absorb.
        let mut acc = own;
        let mut mask = 1usize;
        while mask < p {
            if r & mask != 0 {
                let parent = r - mask;
                self.send_gather(parent, epoch, std::mem::take(&mut acc), bytes);
                break;
            }
            let child = r + mask;
            if child < p {
                let (theirs, avail) = self.inbox.borrow_mut().recv_gather(epoch, child);
                self.clock.set(self.clock.get().max(avail));
                acc.extend(theirs);
            }
            mask <<= 1;
        }
        let result = if r == 0 {
            self.fold_reduced(epoch, &acc)
        } else {
            self.recv_result(epoch)
        };

        // Broadcast phase: forward to the subtree below our entry point.
        let mut mask = if r == 0 {
            p.next_power_of_two()
        } else {
            r & r.wrapping_neg() // lowest set bit: where we received
        };
        mask >>= 1;
        while mask > 0 {
            let dst = r + mask;
            if dst < p {
                self.send_result(dst, epoch, result, bytes);
            }
            mask >>= 1;
        }
        result
    }

    /// A butterfly exchange among a power-of-two participant set plus the
    /// MPICH even/odd preamble for leftover ranks, shared by recursive
    /// doubling, Rabenseifner, and the hierarchical leader phase.
    ///
    /// `me` is this rank's participant index in `0..n`; `to_rank` maps a
    /// participant index to its world rank. `stages(n')` yields the
    /// butterfly plan over the power-of-two core `n'`: per stage a
    /// `(distance, payload bytes, carry rows)` triple. Stages that don't
    /// carry rows still move (and charge) a message — Rabenseifner's
    /// allgather phase transports segments of the already-reduced vector,
    /// which the row mechanism has no need for but the clock must feel.
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
        mut acc: PartialRows,
        stages: &[(usize, usize, bool)],
        full_bytes: usize,
    ) -> SweepPartials {
        debug_assert!(n >= 1 && me < n);
        if n == 1 {
            return self.fold_reduced(epoch, &acc);
        }
        let core = prev_power_of_two(n);
        let rem = n - core;

        // Preamble round id: one fixed slot above every butterfly stage.
        let preamble_round = u32::MAX;
        if me < 2 * rem {
            if me % 2 == 1 {
                let partner = to_rank(me - 1);
                self.send_xchg(partner, epoch, preamble_round, acc, full_bytes);
                return self.recv_result(epoch);
            }
            let theirs = self.recv_xchg(epoch, preamble_round, to_rank(me + 1));
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
                PartialRows::default()
            };
            self.send_xchg(partner, epoch, k as u32, rows, bytes);
            let theirs = self.recv_xchg(epoch, k as u32, partner);
            acc.extend(theirs);
        }
        let result = self.fold_reduced(epoch, &acc);
        if me < 2 * rem {
            self.send_result(to_rank(me + 1), epoch, result, full_bytes);
        }
        result
    }

    /// Recursive doubling: `⌈log₂ p⌉` pairwise exchange stages at doubling
    /// distances, full payload each stage; every rank holds the result when
    /// its last exchange lands — half the latency of gather + broadcast.
    fn allreduce_recursive_doubling(
        &self,
        epoch: u64,
        own: PartialRows,
        scalars: u64,
    ) -> SweepPartials {
        let bytes = scalars.max(1) as usize * 8;
        let core = prev_power_of_two(self.p);
        let mut stages = Vec::new();
        let mut d = 1usize;
        while d < core {
            stages.push((d, bytes, true));
            d <<= 1;
        }
        self.butterfly_allreduce(epoch, self.rank, self.p, &|i| i, own, &stages, bytes)
    }

    /// Rabenseifner: recursive-halving reduce-scatter (payload `s/2, s/4,
    /// …`) followed by a recursive-doubling allgather (payload growing back
    /// up). Same stage count as binomial but total wire volume per rank
    /// `2·s·(p−1)/p` instead of `s·log₂ p` — the bandwidth-optimal choice
    /// for wide payloads.
    fn allreduce_rabenseifner(&self, epoch: u64, own: PartialRows, scalars: u64) -> SweepPartials {
        let s = scalars.max(1);
        let full_bytes = s as usize * 8;
        let core = prev_power_of_two(self.p);
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
        self.butterfly_allreduce(epoch, self.rank, self.p, &|i| i, own, &stages, full_bytes)
    }

    /// Hierarchical allreduce over the network's node topology: binomial
    /// fold to each node's leader over intra-node links, recursive doubling
    /// among the node leaders over the fabric, binomial broadcast back down
    /// each node. The only algorithm whose *inter-node* stage count is
    /// `⌈log₂ (p/m)⌉` rather than `⌈log₂ p⌉` — on a node-aware network the
    /// intra hops are nearly free, which is the whole win.
    ///
    /// On a flat network (`ranks_per_node() == 1`) every rank is its own
    /// leader and this degenerates to recursive doubling.
    fn allreduce_hierarchical(&self, epoch: u64, own: PartialRows, scalars: u64) -> SweepPartials {
        let (r, p) = (self.rank, self.p);
        let m = self.net.ranks_per_node().max(1);
        let bytes = scalars.max(1) as usize * 8;
        let node = r / m;
        let base = node * m;
        let size = m.min(p - base);
        let rel = r - base;
        let n_nodes = p.div_ceil(m);

        // Phase 1: binomial gather to the node leader (rel 0), intra links.
        let mut acc = own;
        let mut mask = 1usize;
        while mask < size {
            if rel & mask != 0 {
                let parent = base + (rel - mask);
                self.send_gather(parent, epoch, std::mem::take(&mut acc), bytes);
                break;
            }
            let child = rel + mask;
            if child < size {
                let (theirs, avail) = self.inbox.borrow_mut().recv_gather(epoch, base + child);
                self.clock.set(self.clock.get().max(avail));
                acc.extend(theirs);
            }
            mask <<= 1;
        }

        // Phase 2: leaders exchange across the fabric; members wait for the
        // result to come back down.
        let result = if rel == 0 {
            let core = prev_power_of_two(n_nodes);
            let mut stages = Vec::new();
            let mut d = 1usize;
            while d < core {
                stages.push((d, bytes, true));
                d <<= 1;
            }
            self.butterfly_allreduce(epoch, node, n_nodes, &|i| i * m, acc, &stages, bytes)
        } else {
            self.recv_result(epoch)
        };

        // Phase 3: binomial broadcast inside the node, intra links.
        let mut bmask = if rel == 0 {
            size.next_power_of_two()
        } else {
            rel & rel.wrapping_neg()
        };
        bmask >>= 1;
        while bmask > 0 {
            let dst = rel + bmask;
            if dst < size {
                self.send_result(base + dst, epoch, result, bytes);
            }
            bmask >>= 1;
        }
        result
    }

    /// The wire phase of a halo exchange: post every remote strip, copy
    /// rank-local strips, drain the expected arrivals into `v`'s halos, and
    /// count messages/bytes. Returns the latest arrival time *without*
    /// touching the clock or pushing spans — callers decide whether the
    /// wait is eager ([`Communicator::halo_update`]) or overlapped with
    /// interior compute (`halo_sweep_fused` under
    /// [`RankSimConfig::overlap_halo`]).
    fn halo_exchange_data<T: Tile>(&self, v: &mut RankField<T>) -> f64 {
        let epoch = self.halo_epoch.get();
        self.halo_epoch.set(epoch + 1);
        self.stats
            .halo_updates
            .set(self.stats.halo_updates.get() + 1);

        // Post all sends first so no pair of ranks can deadlock. Sequence
        // numbers are allocated in plan order (the logical send order); a
        // reorder fault only permutes the physical posting of this one
        // burst, so no strip is ever held back across epochs.
        let mut burst: Vec<(usize, u64, bool, Msg)> =
            Vec::with_capacity(self.plan.sends[self.rank].len());
        for &(dst_rank, e) in &self.plan.sends[self.rank] {
            let r = e.region;
            let mut data = Vec::new();
            v.block(e.src_block)
                .extract_region(r.src_i, r.src_j, r.w, r.h, &mut data);
            let (seq, f) = self.next_message(dst_rank, true);
            if f.poison {
                for x in data.iter_mut() {
                    *x = f64::NAN;
                }
            }
            let avail = self.clock.get()
                + self.net.p2p_between(self.rank, dst_rank, data.len() * 8)
                + f.extra_delay;
            burst.push((
                dst_rank,
                seq,
                f.duplicate,
                Msg::Halo {
                    epoch,
                    dst_block: e.dst_block as u32,
                    dir: e.dir,
                    data,
                    poisoned: f.poison,
                    avail_at: avail,
                },
            ));
        }
        if let Some(shuffle_seed) = self.cfg.faults.reorder(self.rank, epoch) {
            shuffle(&mut burst, shuffle_seed);
        }
        for (dst, seq, dup, msg) in burst {
            self.post(dst, seq, dup, msg);
        }

        for blk in v.blocks.iter_mut() {
            blk.zero_halo();
        }

        // Message/byte counts follow CommWorld's convention: one message per
        // non-empty (block, direction) strip, local strips included — only
        // the *wire time* distinguishes local from remote.
        let mut msgs = 0u64;
        let mut elems = 0u64;

        let mut buf = Vec::new();
        for e in &self.plan.locals[self.rank] {
            let r = e.region;
            v.block(e.src_block)
                .extract_region(r.src_i, r.src_j, r.w, r.h, &mut buf);
            msgs += 1;
            elems += buf.len() as u64;
            v.block_mut(e.dst_block)
                .copy_region(r.dst_i, r.dst_j, &buf, r.w, r.h);
        }

        let mut arrive = self.clock.get();
        for e in &self.plan.recvs[self.rank] {
            let HaloArrival {
                data,
                avail_at,
                poisoned,
            } = self
                .inbox
                .borrow_mut()
                .recv_halo(epoch, e.dst_block as u32, e.dir);
            if poisoned {
                // Surfaced, not panicked: the NaN strip propagates into the
                // next residual reduction, where the solvers' recovery
                // logic restarts every rank in lockstep.
                self.stats
                    .delivery_failures
                    .set(self.stats.delivery_failures.get() + 1);
            }
            let r = e.region;
            msgs += 1;
            elems += data.len() as u64;
            v.block_mut(e.dst_block)
                .copy_region(r.dst_i, r.dst_j, &data, r.w, r.h);
            arrive = arrive.max(avail_at);
        }

        self.stats
            .halo_messages
            .set(self.stats.halo_messages.get() + msgs);
        self.stats
            .halo_bytes
            .set(self.stats.halo_bytes.get() + elems * std::mem::size_of::<f64>() as u64);
        arrive
    }

    /// The fused-sweep loop with no compute charge: every owned block's
    /// tiles handed to the kernel in ascending block order. Callers charge
    /// the clock themselves ([`Communicator::for_each_block_fused`] charges
    /// the whole sweep after; the split-phase path charges core and edge
    /// points around the strip wait instead).
    fn sweep_blocks<T: Tile, const M: usize, F>(
        &self,
        mut muts: [&mut RankField<T>; M],
        kernel: F,
    ) -> RankSweep
    where
        F: Fn(usize, &mut [&mut T; M]) -> SweepPartials,
    {
        assert!(M > 0, "fused sweep needs a mutable operand");
        for v in &muts {
            self.check_view(v);
        }
        let bases: [*mut T; M] = muts.each_mut().map(|v| v.blocks.as_mut_ptr());
        let mut rows = Vec::with_capacity(self.owned.len());
        for (li, &gb) in self.owned.iter().enumerate() {
            // SAFETY: distinct `&mut RankField` operands are disjoint by the
            // borrow checker, the loop is single-threaded, and each local
            // index names a distinct tile of each operand.
            let mut tiles: [&mut T; M] = std::array::from_fn(|m| unsafe { &mut *bases[m].add(li) });
            rows.push((gb as u32, kernel(gb, &mut tiles)));
        }
        RankSweep { rows }
    }

    fn into_report<R>(self, result: R) -> RankReport<R> {
        RankReport {
            rank: self.rank,
            clock: self.clock.get(),
            stats: Communicator::stats(&self),
            spans: self.spans.into_inner(),
            result,
        }
    }
}

impl Communicator for RankComm {
    type Vec<T: Tile> = RankField<T>;
    type Sweep = RankSweep;

    fn stats(&self) -> StatsSnapshot {
        StatsSnapshot {
            halo_updates: self.stats.halo_updates.get(),
            halo_messages: self.stats.halo_messages.get(),
            halo_bytes: self.stats.halo_bytes.get(),
            allreduces: self.stats.allreduces.get(),
            allreduce_scalars: self.stats.allreduce_scalars.get(),
            allreduce_steps: self.stats.allreduce_steps.get(),
            allreduce_bytes_on_wire: self.stats.allreduce_bytes_on_wire.get(),
            barriers: 0,
            retries: self.stats.retries.get(),
            duplicates: self.inbox.borrow().duplicates,
            delivery_failures: self.stats.delivery_failures.get(),
        }
    }

    fn alloc<T: Tile>(&self, model: &RankVec, width: usize) -> RankField<T> {
        self.check_view(model);
        RankField::zeros(&self.layout, &self.owned, &self.local_of, width)
    }

    /// The halo exchange as real point-to-point traffic: post every remote
    /// strip as a message, copy rank-local strips directly, then wait for
    /// the expected arrivals and advance the clock to the latest one. A
    /// `k`-wide field uses the same plan, epochs and one `Msg::Halo` per
    /// (block, direction) strip, each payload carrying all `k` values of
    /// its points (`k×` bytes, message count flat in `k`). A halo epoch is
    /// globally one width (SPMD lockstep), so payload shapes never mix.
    fn halo_update<T: Tile>(&self, v: &mut RankField<T>) {
        self.check_view(v);
        self.charge_stall();
        let t0 = self.clock.get();
        let arrive = self.halo_exchange_data(v);
        self.clock.set(arrive);
        self.push_span(SpanKind::Halo, t0, self.clock.get());
    }

    /// Split-phase halo + sweep. With [`RankSimConfig::overlap_halo`] off
    /// this is the trait default (eager wait, then the whole sweep); with it
    /// on, the strips fly while the interior core points are charged, the
    /// clock waits only for the *later* of core-compute-done and
    /// last-strip-arrival, and the halo-reading edge points are charged
    /// after. The numeric sweep is untouched — it still runs over every
    /// block in canonical order with all halos in place — so results are
    /// bit-identical; only the simulated clocks (and the span shapes) see
    /// the overlap. Total charged compute equals the eager path's, hence
    /// overlap can only ever *shorten* the simulated iteration.
    fn halo_sweep_fused<T: Tile, const M: usize, F>(
        &self,
        hv: &mut RankField<T>,
        muts: [&mut RankField<T>; M],
        kernel: F,
    ) -> RankSweep
    where
        F: Fn(usize, &RankField<T>, &mut [&mut T; M]) -> SweepPartials + Sync,
    {
        if !self.cfg.overlap_halo {
            self.halo_update(hv);
            let hv = &*hv;
            return self.for_each_block_fused(muts, move |gb, tiles| kernel(gb, hv, tiles));
        }
        self.check_view(hv);
        self.charge_stall();
        let t0 = self.clock.get();
        let arrive = self.halo_exchange_data(hv);
        // Core points (no halo cell in their stencil) run while strips fly.
        let t1 = t0 + self.owned_core_points * self.cfg.compute_per_point;
        self.push_span(SpanKind::Compute, t0, t1);
        // Wait only for whatever flight time the core sweep didn't cover.
        let t2 = t1.max(arrive);
        self.push_span(SpanKind::Halo, t1, t2);
        // Edge points need the halos; they finish the sweep.
        let t3 = t2 + self.owned_edge_points * self.cfg.compute_per_point;
        self.push_span(SpanKind::Compute, t2, t3);
        self.clock.set(t3);
        let hv = &*hv;
        self.sweep_blocks(muts, move |gb, tiles| kernel(gb, hv, tiles))
    }

    fn for_each_block_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut RankField<T>; M],
        kernel: F,
    ) -> RankSweep
    where
        F: Fn(usize, &mut [&mut T; M]) -> SweepPartials + Sync,
    {
        let sweep = self.sweep_blocks(muts, kernel);
        self.charge_compute();
        sweep
    }

    fn reduce_sweep(&self, sweep: &RankSweep, scalars: u64) -> SweepPartials {
        self.reduce_rows(&sweep.rows, scalars)
    }

    fn dot_fused(&self, x: &RankVec, y: &RankVec) -> f64 {
        self.check_view(x);
        self.check_view(y);
        let rows: Vec<(u32, SweepPartials)> = self
            .owned
            .iter()
            .map(|&gb| {
                let mut p = [0.0; MAX_SWEEP_PARTIALS];
                p[0] = masked_block_dot(x.block(gb), y.block(gb), &self.layout.masks[gb]);
                (gb as u32, p)
            })
            .collect();
        self.charge_compute();
        self.reduce_rows(&rows, 1)[0]
    }
}

/// What one rank produced: its result, final clock, counters, and trace.
#[derive(Debug)]
pub struct RankReport<R> {
    pub rank: usize,
    /// Final simulated time on this rank's clock (s).
    pub clock: f64,
    /// This rank's communication counters.
    pub stats: StatsSnapshot,
    /// Recorded spans (empty unless [`RankSimConfig::record_trace`]).
    pub spans: Vec<Span>,
    pub result: R,
}

/// Simulated wall time of a run: the slowest rank's clock.
pub fn sim_time<R>(reports: &[RankReport<R>]) -> f64 {
    reports.iter().fold(0.0, |t, r| t.max(r.clock))
}

/// Largest power of two ≤ `n` (`n ≥ 1`) — the butterfly core of a
/// non-power-of-two participant set.
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// The world: a layout, a rank assignment, a network model. Reusable —
/// each [`RankWorld::run`] spawns a fresh set of rank threads.
#[derive(Debug)]
pub struct RankWorld {
    layout: Arc<DistLayout>,
    assignment: Arc<RankAssignment>,
    net: Arc<dyn NetworkModel>,
    cfg: RankSimConfig,
    plan: Arc<HaloPlan>,
    /// Per rank: owned global block ids, sorted ascending.
    owned: Vec<Arc<Vec<usize>>>,
    /// Per rank: global block id -> local index (or `u32::MAX`).
    local_of: Vec<Arc<Vec<u32>>>,
}

impl RankWorld {
    /// Assign the layout's blocks to `p` ranks along a Hilbert curve
    /// (POP's production choice) and build the world.
    pub fn new(
        layout: &Arc<DistLayout>,
        p: usize,
        net: Arc<dyn NetworkModel>,
        cfg: RankSimConfig,
    ) -> Self {
        let assignment = layout.decomp.assign_ranks(p, CurveKind::Hilbert);
        Self::with_assignment(layout, assignment, net, cfg)
    }

    /// Build the world over an explicit block-to-rank assignment.
    pub fn with_assignment(
        layout: &Arc<DistLayout>,
        assignment: RankAssignment,
        net: Arc<dyn NetworkModel>,
        cfg: RankSimConfig,
    ) -> Self {
        let n = layout.n_blocks();
        assert_eq!(
            assignment.rank_of_block.len(),
            n,
            "assignment does not cover the layout's blocks"
        );
        let plan = Arc::new(HaloPlan::build(layout, &assignment));
        let mut owned = Vec::with_capacity(assignment.p);
        let mut local_of = Vec::with_capacity(assignment.p);
        for r in 0..assignment.p {
            let mut blocks = assignment.blocks_of_rank[r].clone();
            blocks.sort_unstable();
            let mut map = vec![u32::MAX; n];
            for (li, &gb) in blocks.iter().enumerate() {
                map[gb] = li as u32;
            }
            owned.push(Arc::new(blocks));
            local_of.push(Arc::new(map));
        }
        RankWorld {
            layout: Arc::clone(layout),
            assignment: Arc::new(assignment),
            net,
            cfg,
            plan,
            owned,
            local_of,
        }
    }

    /// Number of simulated ranks.
    pub fn n_ranks(&self) -> usize {
        self.assignment.p
    }

    /// The block-to-rank assignment driving this world.
    pub fn assignment(&self) -> &RankAssignment {
        &self.assignment
    }

    /// The layout this world distributes.
    pub fn layout(&self) -> &Arc<DistLayout> {
        &self.layout
    }

    /// The simulation config this world runs under (for provenance).
    pub fn sim_config(&self) -> RankSimConfig {
        self.cfg
    }

    /// The network model this world charges (for provenance).
    pub fn network(&self) -> &Arc<dyn NetworkModel> {
        &self.net
    }

    /// Run `body` as an SPMD program: one OS thread per rank, each with its
    /// own [`RankComm`]. Returns the per-rank reports in rank order.
    /// Panics in any rank propagate.
    pub fn run<R, F>(&self, body: F) -> Vec<RankReport<R>>
    where
        R: Send,
        F: Fn(&RankComm) -> R + Sync,
    {
        let p = self.assignment.p;
        let fabric = Arc::new(Fabric::new(p));
        let body = &body;
        let workers: Vec<_> = (0..p)
            .map(|r| {
                let fabric = Arc::clone(&fabric);
                move || {
                    // If this rank's body panics, poison the fabric so
                    // every peer blocked on a receive fails fast instead
                    // of deadlocking the world.
                    let _guard = PoisonOnPanic(Arc::clone(&fabric));
                    let info = &self.layout.decomp.blocks;
                    let mut owned_points = 0.0;
                    let mut owned_core_points = 0.0;
                    for &gb in self.owned[r].iter() {
                        let (nx, ny) = (info[gb].nx, info[gb].ny);
                        owned_points += (nx * ny) as f64;
                        owned_core_points += (nx.saturating_sub(2) * ny.saturating_sub(2)) as f64;
                    }
                    let comm = RankComm {
                        rank: r,
                        p,
                        layout: Arc::clone(&self.layout),
                        owned: Arc::clone(&self.owned[r]),
                        local_of: Arc::clone(&self.local_of[r]),
                        owned_points,
                        owned_core_points,
                        owned_edge_points: owned_points - owned_core_points,
                        plan: Arc::clone(&self.plan),
                        net: Arc::clone(&self.net),
                        cfg: self.cfg,
                        fabric: Arc::clone(&fabric),
                        inbox: RefCell::new(Mailbox::new(fabric, r)),
                        clock: Cell::new(0.0),
                        halo_epoch: Cell::new(0),
                        reduce_epoch: Cell::new(0),
                        next_seq: RefCell::new(HashMap::new()),
                        fault_op: Cell::new(0),
                        stats: LocalStats::default(),
                        spans: RefCell::new(Vec::new()),
                        fold_scratch: RefCell::new(Vec::new()),
                    };
                    let result = body(&comm);
                    comm.into_report(result)
                }
            })
            .collect();
        let use_fibers = match self.cfg.executor {
            RankExecutor::Threads => false,
            RankExecutor::Fibers => {
                if !fiber::SUPPORTED {
                    panic!("RankExecutor::Fibers requires glibc x86_64 Linux");
                }
                true
            }
            RankExecutor::Auto => fiber::SUPPORTED && p > FIBER_AUTO_THRESHOLD,
        };
        if use_fibers {
            // Poisoning the fabric on a detected deadlock unwinds parked
            // ranks instead of wedging the scheduler.
            return fiber::run_all(workers, RANK_THREAD_STACK, || fabric.poison());
        }
        #[cfg(target_os = "linux")]
        {
            // Poisoning the fabric on a failed spawn unblocks ranks
            // already waiting on peers that will never exist.
            raw_spawn::run_all(workers, RANK_THREAD_STACK, || fabric.poison())
        }
        #[cfg(not(target_os = "linux"))]
        {
            std::thread::scope(|s| {
                let handles: Vec<_> = workers
                    .into_iter()
                    .map(|w| {
                        std::thread::Builder::new()
                            .stack_size(RANK_THREAD_STACK)
                            .spawn_scoped(s, w)
                            .expect("spawn rank thread")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("rank thread panicked"))
                    .collect()
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{LatencyBandwidth, ZeroCost};
    use pop_comm::CommWorld;
    use pop_grid::Grid;
    use pop_perfmodel::machine::MachineModel;

    fn layout() -> Arc<DistLayout> {
        let g = Grid::gx1_scaled(7, 60, 48);
        DistLayout::build(&g, 10, 8)
    }

    fn world(layout: &Arc<DistLayout>, p: usize) -> RankWorld {
        RankWorld::new(layout, p, Arc::new(ZeroCost), RankSimConfig::default())
    }

    /// The binomial-tree allreduce must reproduce CommWorld's block-ordered
    /// fold bit-for-bit at every rank count, including non-powers of two.
    #[test]
    fn tree_reduce_matches_shared_memory_fold() {
        let layout = layout();
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 13 + j * 7) as f64 * 0.03).sin() * 1e8);
        let want = CommWorld::dot_fused(&shared, &v, &v);

        for p in [1, 2, 3, 5, 8, 13, 16] {
            let w = world(&layout, p);
            let reports = w.run(|comm| {
                let rv = comm.import(&v);
                comm.dot_fused(&rv, &rv)
            });
            assert_eq!(reports.len(), p);
            for rep in &reports {
                assert_eq!(
                    rep.result.to_bits(),
                    want.to_bits(),
                    "p={p} rank {} disagrees with shared-memory fold",
                    rep.rank
                );
                assert_eq!(rep.stats.allreduces, 1);
                assert_eq!(rep.stats.allreduce_scalars, 1);
            }
        }
    }

    /// Message-passing halo exchange must produce the same halos as the
    /// shared-memory exchange, and the per-rank message/byte counts must
    /// sum to CommWorld's totals.
    #[test]
    fn halo_exchange_matches_shared_memory() {
        let layout = layout();
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (1 + i * 7 + j * 131) as f64);
        let mut v_shared = v.clone();
        shared.halo_update(&mut v_shared);
        let shared_stats = shared.stats();

        for p in [1, 3, 6, 11] {
            let w = world(&layout, p);
            let reports = w.run(|comm| {
                let mut rv = comm.import(&v);
                comm.halo_update(&mut rv);
                rv.into_blocks()
            });
            let mut msgs = 0u64;
            let mut bytes = 0u64;
            for rep in reports {
                msgs += rep.stats.halo_messages;
                bytes += rep.stats.halo_bytes;
                assert_eq!(rep.stats.halo_updates, 1);
                for (gb, blk) in rep.result {
                    assert_eq!(
                        blk.raw(),
                        v_shared.blocks[gb].raw(),
                        "p={p}: block {gb} halo differs"
                    );
                }
            }
            assert_eq!(msgs, shared_stats.halo_messages, "p={p} message count");
            assert_eq!(bytes, shared_stats.halo_bytes, "p={p} byte volume");
        }
    }

    /// The one generic exchange is lane-transparent under message passing
    /// too: every lane of a batched field comes out bitwise as the
    /// shared-memory single-RHS exchange of its source, each rank sending
    /// the same messages with `width×` the bytes — with idle ranks in the
    /// world and under a benign (delay + reorder + duplicate) fault plan.
    #[test]
    fn halo_update_is_lane_transparent() {
        use crate::fault::FaultConfig;
        use crate::vec::MultiRankVec;
        use pop_comm::BlockVec;
        use pop_simd::LANES;
        let layout = layout();
        let shared = CommWorld::serial();
        let quiet = RankSimConfig::default();
        let benign = quiet.with_faults(FaultPlan::seeded(2015, FaultConfig::benign()));
        for k in [1usize, 3, 5] {
            let width = k.next_multiple_of(LANES);
            // Stale halos everywhere, so the exchange has something to fix.
            let srcs: Vec<DistVec> = (0..k)
                .map(|l| {
                    let mut v = DistVec::zeros(&layout);
                    v.blocks.iter_mut().for_each(|b| b.fill(9.5));
                    v.fill_with(|i, j| ((1 + l) * (1 + i * 7 + j * 131)) as f64);
                    v
                })
                .collect();
            let want: Vec<DistVec> = srcs
                .iter()
                .map(|src| {
                    let mut v = src.clone();
                    shared.halo_update(&mut v);
                    v
                })
                .collect();
            let cases = [
                (1, quiet),
                (3, quiet),
                (3, benign),
                (layout.n_blocks() + 3, quiet),
            ];
            for (p, cfg) in cases {
                let w = RankWorld::new(&layout, p, Arc::new(ZeroCost), cfg);
                let reports = w.run(|comm| {
                    let mut sv = comm.import(&srcs[0]);
                    comm.halo_update(&mut sv);
                    let single = comm.stats();
                    let mut mv: MultiRankVec = comm.alloc(&sv, width);
                    for (l, src) in srcs.iter().enumerate() {
                        for &gb in comm.owned_blocks() {
                            mv.block_mut(gb)
                                .load_lane(l / LANES, l % LANES, &src.blocks[gb]);
                        }
                    }
                    comm.halo_update(&mut mv);
                    (single, comm.stats().since(&single), mv.into_blocks())
                });
                for rep in reports {
                    let (single, multi, blocks) = rep.result;
                    let tag = format!("k={k} p={p} rank {}", rep.rank);
                    assert_eq!(multi.halo_messages, single.halo_messages, "{tag}");
                    assert_eq!(multi.halo_bytes, width as u64 * single.halo_bytes, "{tag}");
                    assert_eq!(multi.delivery_failures, 0, "{tag}");
                    for (gb, mb) in blocks {
                        for (l, v) in want.iter().enumerate() {
                            let wb = &v.blocks[gb];
                            let mut got = BlockVec::zeros(wb.nx, wb.ny, wb.halo);
                            mb.store_lane(l / LANES, l % LANES, &mut got);
                            let bits = |t: &BlockVec| {
                                t.raw().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(&got), bits(wb), "{tag} block {gb} lane {l}");
                        }
                    }
                }
            }
        }
    }

    /// Under a latency model the reduction's simulated cost must grow with
    /// the tree depth — the paper's log₂(p) term, actually executed.
    #[test]
    fn reduction_cost_grows_logarithmically() {
        let layout = layout();
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        let mut cost_at = Vec::new();
        for p in [2usize, 4, 16] {
            let w = RankWorld::new(&layout, p, net.clone(), RankSimConfig::default());
            let reports = w.run(|comm| {
                let x = comm.zeros();
                for _ in 0..10 {
                    comm.dot_fused(&x, &x);
                }
            });
            cost_at.push(sim_time(&reports));
        }
        let per_reduce = net.collective_hop(8);
        // p=2: exactly 2 hops per allreduce on the critical path.
        assert!(
            (cost_at[0] - 10.0 * 2.0 * per_reduce).abs() < 1e-12,
            "p=2 cost {} vs expected {}",
            cost_at[0],
            10.0 * 2.0 * per_reduce
        );
        assert!(cost_at[1] > cost_at[0], "deeper tree must cost more");
        assert!(cost_at[2] > cost_at[1]);
        // p=16: critical path is 2·log₂(16) = 8 hops, not p-1 = 15.
        assert!(
            (cost_at[2] - 10.0 * 8.0 * per_reduce).abs() < 1e-12,
            "p=16 cost {} should be the tree critical path {}",
            cost_at[2],
            10.0 * 8.0 * per_reduce
        );
    }

    /// Halo wire time is charged for remote strips only; a single rank
    /// (everything local) advances no clock under any network model.
    #[test]
    fn local_halo_costs_no_wire_time() {
        let layout = layout();
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        let one = RankWorld::new(&layout, 1, net.clone(), RankSimConfig::default());
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (i + j) as f64);
        let reports = one.run(|comm| {
            let mut rv = comm.import(&v);
            comm.halo_update(&mut rv);
        });
        assert_eq!(sim_time(&reports), 0.0);

        let four = RankWorld::new(&layout, 4, net, RankSimConfig::default());
        let reports = four.run(|comm| {
            let mut rv = comm.import(&v);
            comm.halo_update(&mut rv);
        });
        assert!(sim_time(&reports) > 0.0, "remote strips must cost time");
    }

    /// Re-reducing the same sweep handle is a fresh collective with
    /// identical results (the PCG check path relies on this).
    #[test]
    fn repeated_reduce_is_fresh_collective() {
        let layout = layout();
        let w = world(&layout, 5);
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i + 2 * j) as f64 * 0.01).cos());
        let masks = &layout.masks;
        let reports = w.run(|comm| {
            let mut x = comm.import(&v);
            let sweep = comm.for_each_block_fused([&mut x], |gb, [xb]| {
                let mut p = [0.0; MAX_SWEEP_PARTIALS];
                p[0] = masked_block_dot(xb, xb, &masks[gb]);
                p
            });
            let a = comm.reduce_sweep(&sweep, 1);
            let b = comm.reduce_sweep(&sweep, 1);
            (a[0].to_bits(), b[0].to_bits(), comm.stats().allreduces)
        });
        for rep in reports {
            let (a, b, n) = rep.result;
            assert_eq!(a, b);
            assert_eq!(n, 2);
        }
    }

    /// Compute charging: points × compute_per_point per sweep, recorded as
    /// trace spans when asked.
    #[test]
    fn compute_charge_and_trace_spans() {
        let layout = layout();
        let cfg = RankSimConfig {
            compute_per_point: 1e-9,
            record_trace: true,
            ..RankSimConfig::default()
        };
        let w = RankWorld::new(&layout, 3, Arc::new(ZeroCost), cfg);
        let reports = w.run(|comm| {
            let mut x = comm.zeros();
            comm.for_each_block_fused([&mut x], |_, _| [0.0; MAX_SWEEP_PARTIALS]);
            comm.dot_fused(&x, &x);
        });
        // Each rank pays two compute charges (sweep + dot) over its own
        // points; the allreduce then synchronizes every clock to the
        // slowest rank — the load imbalance becomes wait time, exactly as
        // on real ranks.
        let blocks = &layout.decomp.blocks;
        let slowest = w
            .assignment()
            .blocks_of_rank
            .iter()
            .map(|bs| {
                bs.iter()
                    .map(|&b| (blocks[b].nx * blocks[b].ny) as f64)
                    .sum::<f64>()
            })
            .fold(0.0f64, |a, pts| a.max(2.0 * pts * 1e-9));
        for rep in &reports {
            assert!(
                (rep.clock - slowest).abs() < 1e-15,
                "rank {} clock {} vs synchronized {}",
                rep.rank,
                rep.clock,
                slowest
            );
        }
        for rep in &reports {
            let kinds: Vec<_> = rep.spans.iter().map(|s| s.kind).collect();
            assert!(kinds.contains(&SpanKind::Compute));
            assert!(kinds.contains(&SpanKind::Allreduce));
        }
    }

    /// Every collective algorithm — including auto selection, including
    /// non-power-of-two worlds, on both a flat and a node-aware network —
    /// must reproduce CommWorld's block-ordered fold bit-for-bit. The tree
    /// shape may only ever change simulated time.
    #[test]
    fn every_reduce_algo_matches_shared_memory_fold() {
        let layout = layout();
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 13 + j * 7) as f64 * 0.03).sin() * 1e8);
        let want = CommWorld::dot_fused(&shared, &v, &v);

        let m = MachineModel::yellowstone();
        let topo = pop_perfmodel::machine::NodeTopology::yellowstone();
        let nets: [Arc<dyn NetworkModel>; 2] = [
            Arc::new(ZeroCost),
            Arc::new(crate::net::HierarchicalNet::from_machine(&m, &topo)),
        ];
        for net in nets {
            for algo in ReduceAlgo::ALL.into_iter().chain([ReduceAlgo::Auto]) {
                for p in [2usize, 3, 5, 8, 13, 16, 24] {
                    let cfg = RankSimConfig::default().with_reduce_algo(algo);
                    let w = RankWorld::new(&layout, p, Arc::clone(&net), cfg);
                    let reports = w.run(|comm| {
                        let rv = comm.import(&v);
                        comm.dot_fused(&rv, &rv)
                    });
                    for rep in &reports {
                        assert_eq!(
                            rep.result.to_bits(),
                            want.to_bits(),
                            "net={} algo={} p={p} rank {} diverged",
                            net.name(),
                            algo.name(),
                            rep.rank
                        );
                    }
                }
            }
        }
    }

    /// On a node-aware network the hierarchical algorithm's inter-node
    /// critical path is `log₂(p/m)` stages instead of `log₂ p`, so it must
    /// strictly beat the flat binomial tree at scale — the tentpole claim,
    /// pinned at 1024 ranks (the bench extends it to 16384).
    #[test]
    fn hierarchical_beats_binomial_under_node_topology() {
        let layout = layout();
        let m = MachineModel::yellowstone();
        let topo = pop_perfmodel::machine::NodeTopology::yellowstone();
        let net: Arc<dyn NetworkModel> =
            Arc::new(crate::net::HierarchicalNet::from_machine(&m, &topo));
        let p = 1024;
        let cost_of = |algo: ReduceAlgo| {
            let cfg = RankSimConfig::default().with_reduce_algo(algo);
            let w = RankWorld::new(&layout, p, Arc::clone(&net), cfg);
            let reports = w.run(|comm| {
                let x = comm.zeros();
                for _ in 0..4 {
                    comm.dot_fused(&x, &x);
                }
            });
            sim_time(&reports)
        };
        let binomial = cost_of(ReduceAlgo::Binomial);
        let doubling = cost_of(ReduceAlgo::RecursiveDoubling);
        let hier = cost_of(ReduceAlgo::Hierarchical);
        // Recursive doubling halves the stage count of gather+broadcast.
        assert!(
            doubling < binomial,
            "recursive doubling {doubling} should beat binomial {binomial}"
        );
        // Hierarchy's critical path is 8 intra + 6 inter stages against
        // binomial's 8 intra + 12 inter (clustered placement lets both
        // trees ride intra links for their low-distance hops). Recursive
        // doubling lands near the hierarchical time in this pure-latency
        // model — its real-world penalty, every rank crossing the NIC on
        // every high stage instead of one leader per node, is congestion
        // the per-message model doesn't charge.
        assert!(
            hier < binomial,
            "hierarchical {hier} should beat binomial {binomial} at p={p}"
        );
    }

    /// Rabenseifner's halving payload schedule must show up in the wire-byte
    /// counter: fewer modelled bytes than recursive doubling for wide
    /// payloads, at the cost of more messages.
    #[test]
    fn rabenseifner_moves_fewer_bytes_for_wide_payloads() {
        let layout = layout();
        let stats_of = |algo: ReduceAlgo| {
            let cfg = RankSimConfig::default().with_reduce_algo(algo);
            let w = RankWorld::new(&layout, 8, Arc::new(ZeroCost), cfg);
            let reports = w.run(|comm| {
                let mut x = comm.zeros();
                let sweep = comm.for_each_block_fused([&mut x], |_, _| [0.0; MAX_SWEEP_PARTIALS]);
                comm.reduce_sweep(&sweep, 48);
            });
            let steps: u64 = reports.iter().map(|r| r.stats.allreduce_steps).sum();
            let bytes: u64 = reports
                .iter()
                .map(|r| r.stats.allreduce_bytes_on_wire)
                .sum();
            (steps, bytes)
        };
        let (rd_steps, rd_bytes) = stats_of(ReduceAlgo::RecursiveDoubling);
        let (rab_steps, rab_bytes) = stats_of(ReduceAlgo::Rabenseifner);
        // p=8: recursive doubling is 3 full-payload exchanges per rank,
        // Rabenseifner 6 exchanges at half/quarter/eighth payload.
        assert_eq!(rd_steps, 8 * 3);
        assert_eq!(rab_steps, 8 * 6);
        assert_eq!(rd_bytes, 8 * 3 * 48 * 8);
        assert!(
            rab_bytes < rd_bytes,
            "rabenseifner bytes {rab_bytes} must undercut recursive doubling {rd_bytes}"
        );
    }

    /// Split-phase overlap must be bit-identical to the eager exchange and
    /// never slower on simulated time — and strictly faster when there is
    /// both flight time to hide and interior compute to hide it behind.
    #[test]
    fn overlap_halo_is_bitwise_identical_and_faster() {
        let layout = layout();
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 5 + j * 3) as f64 * 0.07).cos());
        let run = |overlap: bool| {
            let cfg = RankSimConfig {
                compute_per_point: 1e-8,
                ..RankSimConfig::default()
            }
            .with_overlap(overlap);
            let w = RankWorld::new(&layout, 6, net.clone(), cfg);
            let reports = w.run(|comm| {
                let mut x = comm.import(&v);
                let mut work = comm.zeros();
                // The kernel reads the freshly exchanged halo cells (the
                // whole raw tile, ring included), so any exchange defect
                // changes the reduced value.
                let sweep = comm.halo_sweep_fused(&mut x, [&mut work], |gb, hv, [wb]| {
                    let mut p = [0.0; MAX_SWEEP_PARTIALS];
                    p[0] = hv.block(gb).raw().iter().sum::<f64>() + wb.raw()[0];
                    p
                });
                comm.reduce_sweep(&sweep, 1)[0]
            });
            (reports[0].result.to_bits(), sim_time(&reports))
        };
        let (eager_bits, eager_t) = run(false);
        let (overlap_bits, overlap_t) = run(true);
        assert_eq!(eager_bits, overlap_bits, "overlap changed the numerics");
        assert!(
            overlap_t < eager_t,
            "overlap time {overlap_t} should undercut eager {eager_t}"
        );
    }

    /// More ranks than blocks: the surplus ranks idle but participate in
    /// collectives, and results stay correct.
    #[test]
    fn idle_ranks_participate() {
        let g = Grid::idealized_basin(16, 16, 300.0, 5.0e4);
        let layout = DistLayout::build(&g, 8, 8); // 4 active blocks
        let p = 7;
        let w = world(&layout, p);
        assert!(w.assignment().idle_ranks() > 0);
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| (i * j + 1) as f64);
        let want = CommWorld::dot_fused(&shared, &v, &v);
        let reports = w.run(|comm| {
            let rv = comm.import(&v);
            comm.dot_fused(&rv, &rv)
        });
        for rep in reports {
            assert_eq!(rep.result.to_bits(), want.to_bits());
        }
    }

    /// Swapping the executor must change nothing observable: results,
    /// counters, and simulated clocks stay bit-for-bit identical between
    /// fibers and threads (and match shared memory), including under
    /// split-phase halo overlap and a non-trivial network.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
    fn fiber_executor_is_bitwise_identical_to_threads() {
        let layout = layout();
        let shared = CommWorld::serial();
        let mut v = DistVec::zeros(&layout);
        v.fill_with(|i, j| ((i * 11 + j * 5) as f64 * 0.013).sin() * 3e7);
        let want = CommWorld::dot_fused(&shared, &v, &v);
        let net = Arc::new(LatencyBandwidth::from_machine(&MachineModel::yellowstone()));
        for p in [1, 3, 16] {
            let run = |exec: RankExecutor| {
                let cfg = RankSimConfig::modeled(&MachineModel::yellowstone())
                    .with_overlap(true)
                    .with_executor(exec);
                let w = RankWorld::new(&layout, p, net.clone(), cfg);
                w.run(|comm| {
                    let mut x = comm.import(&v);
                    comm.halo_update(&mut x);
                    comm.dot_fused(&x, &x)
                })
            };
            let threads = run(RankExecutor::Threads);
            let fibers = run(RankExecutor::Fibers);
            assert_eq!(threads.len(), fibers.len());
            for (t, f) in threads.iter().zip(fibers.iter()) {
                assert_eq!(t.rank, f.rank);
                assert_eq!(
                    t.result.to_bits(),
                    f.result.to_bits(),
                    "p={p} rank {}: executor changed the numerics",
                    t.rank
                );
                assert_eq!(
                    f.result.to_bits(),
                    want.to_bits(),
                    "p={p} differs from shared"
                );
                assert_eq!(
                    t.clock.to_bits(),
                    f.clock.to_bits(),
                    "p={p} rank {}: executor changed the simulated clock",
                    t.rank
                );
                assert_eq!(
                    t.stats, f.stats,
                    "p={p} rank {}: executor changed comm counters",
                    t.rank
                );
            }
        }
    }

    /// A panicking rank under the fiber executor must fail the whole run
    /// (peers unwind off the poisoned fabric) instead of wedging the
    /// cooperative scheduler.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
    fn fiber_executor_propagates_rank_panics() {
        let layout = layout();
        let w = RankWorld::new(
            &layout,
            4,
            Arc::new(ZeroCost),
            RankSimConfig::default().with_executor(RankExecutor::Fibers),
        );
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run(|comm| {
                if comm.rank() == 1 {
                    panic!("injected rank failure");
                }
                let x = comm.import(&DistVec::zeros(&layout));
                comm.dot_fused(&x, &x)
            })
        }));
        assert!(out.is_err(), "rank panic must propagate out of the world");
    }

    /// A protocol deadlock (one rank waits on a collective its peers never
    /// join) is detected by the fiber scheduler and fails fast. The thread
    /// executor would hang here — detectability is a fiber-mode bonus.
    #[test]
    #[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
    fn fiber_deadlock_is_detected_not_hung() {
        let layout = layout();
        let w = RankWorld::new(
            &layout,
            4,
            Arc::new(ZeroCost),
            RankSimConfig::default().with_executor(RankExecutor::Fibers),
        );
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.run(|comm| {
                if comm.rank() == 0 {
                    let x = comm.import(&DistVec::zeros(&layout));
                    comm.dot_fused(&x, &x); // peers never reduce: deadlock
                }
            })
        }));
        assert!(out.is_err(), "deadlock must panic, not hang");
    }
}
