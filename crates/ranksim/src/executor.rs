//! How simulated ranks map onto the host: one OS thread per rank for small
//! worlds, cooperative `ucontext` fibers on the calling thread for large
//! ones.
//!
//! The choice is not configurable ([`Executor::for_world`] makes it from the
//! rank count) because it is not observable: simulated clocks come from
//! `avail_at` stamps carried in envelopes and every reduction folds rows in
//! canonical block order, so results, counters, clocks and traces are
//! bit-identical under either executor (pinned by `runtime`'s unit tests).
//! Rank bodies block in exactly one place — [`Fabric::recv`] — which is
//! therefore the fiber executor's single yield point: it calls
//! [`park_current`], and the matching [`Fabric::post`] calls [`wake`].
//!
//! [`Fabric::recv`]: crate::fabric::Fabric
//! [`Fabric::post`]: crate::fabric::Fabric::post

use std::panic::resume_unwind;

pub(crate) use fiber::{active, park_current, wake, wake_all};

/// Stack reserved per rank, thread or fiber. Rank bodies keep little on the
/// stack (tiles live in the `RankVec` heap storage), and the default 8 MiB
/// per thread would cost a 16384-rank world 128 GiB of address space; 1 MiB
/// keeps huge worlds cheap to start.
const RANK_STACK: usize = 1 << 20;

/// Worlds larger than this run on fibers: past any plausible core count the
/// kernel scheduler only adds churn, and a thread-per-rank world hits the
/// host's task limit (this container's sits near 16 k — exactly the
/// 16384-rank sweep), while the cooperative scheduler keeps memory and
/// context switches cheap.
const FIBER_THRESHOLD: usize = 256;

/// Which of the two rank executors a world runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Executor {
    /// One OS thread per rank, blocking in condvar waits.
    Threads,
    /// One `ucontext` fiber per rank on the calling thread; glibc x86_64
    /// Linux only.
    Fibers,
}

impl Executor {
    /// The executor a `p`-rank world runs on.
    pub(crate) fn for_world(p: usize) -> Executor {
        if fiber::SUPPORTED && p > FIBER_THRESHOLD {
            Executor::Fibers
        } else {
            Executor::Threads
        }
    }
}

/// Run one worker per rank to completion and return their results in rank
/// order, re-raising the lowest-ranked worker panic. `poison` must unblock
/// every worker waiting on a peer (the caller poisons the message fabric):
/// it is invoked when a rank cannot be started, and when the fiber
/// scheduler finds every unfinished rank parked.
pub(crate) fn run_all<T, F>(executor: Executor, workers: Vec<F>, poison: impl Fn()) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let outcomes = match executor {
        Executor::Threads => run_threads(workers, RANK_STACK, poison),
        Executor::Fibers => fiber::run_all(workers, RANK_STACK, poison),
    };
    outcomes
        .into_iter()
        .map(|r| r.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// The thread executor: every worker on its own scoped OS thread.
fn run_threads<T, F>(
    workers: Vec<F>,
    stack_size: usize,
    on_spawn_fail: impl Fn(),
) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(workers.len());
        for (rank, w) in workers.into_iter().enumerate() {
            let spawned = std::thread::Builder::new()
                .stack_size(stack_size)
                .spawn_scoped(s, w);
            match spawned {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // The scope joins the ranks already running before this
                    // panic leaves it, and they may be waiting on peers that
                    // will never exist: unblock them first.
                    on_spawn_fail();
                    panic!("spawn rank thread {rank}: {e}");
                }
            }
        }
        handles.into_iter().map(|h| h.join()).collect()
    })
}

/// The fiber executor: every rank a `ucontext` coroutine with an `mmap`ed
/// stack, multiplexed on the calling thread by a FIFO run queue. A rank that
/// would block in `Fabric::recv` parks its fiber; the matching post moves it
/// back to the run queue. Ranks run in a deterministic cooperative order,
/// and a run queue that drains while ranks are still parked is a detected
/// protocol deadlock (the thread executor, like real MPI, would hang).
///
/// glibc x86_64 Linux only: `getcontext`/`swapcontext` plus the glibc ABI
/// offsets of `uc_link` and `uc_stack`.
///
/// The invariants the `unsafe` blocks below lean on:
/// - **Contexts never move.** `ucontext_t` holds a self-pointer
///   (`uc_mcontext.fpregs` aims at the blob's own FP save area), so every
///   context is initialised in place: the fibers' inside a `Vec` sized once
///   and never pushed to again, the scheduler's own inside the same
///   heap-boxed `SchedCore`.
/// - **Stacks outlive every switch into them.** Fiber stacks are owned by
///   the `SchedCore`, which is dropped on the scheduler's (thread) stack
///   after the last `swapcontext`; a fiber abandoned by a scheduler panic is
///   never resumed.
/// - **No `&mut SchedCore` is live across a context switch or a worker
///   call.** Scheduler and fibers share the core through a raw pointer on
///   one thread; every reborrow is scoped to end before control can reach
///   code that reborrows it again.
/// - **No unwind crosses a context switch.** A fiber runs its worker under
///   `catch_unwind` and returns over `uc_link`; the unwinding drops the
///   rank's `PoisonOnPanic`, which wakes every parked peer so they unwind
///   too.
#[cfg(all(target_os = "linux", target_arch = "x86_64", target_env = "gnu"))]
mod fiber {
    use std::cell::Cell;
    use std::collections::VecDeque;
    use std::ffi::c_void;
    use std::panic::{catch_unwind, AssertUnwindSafe};

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
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
        fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum State {
        Ready,
        Running,
        Blocked,
        Done,
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
            // SAFETY: an anonymous private mapping at a kernel-chosen
            // address aliases no existing memory; the result is checked
            // before use, and `mprotect` covers the first page of the
            // mapping just created.
            let base = unsafe {
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
                p as *mut u8
            };
            FiberStack { base, len }
        }

        /// Lowest usable stack address (just above the guard page).
        fn sp(&self) -> *mut u8 {
            self.base.wrapping_add(PAGE)
        }

        fn size(&self) -> usize {
            self.len - PAGE
        }
    }

    impl Drop for FiberStack {
        fn drop(&mut self) {
            // SAFETY: exactly the mapping `new` created, unmapped once. The
            // stack's owner is the `SchedCore`, dropped on the scheduler's
            // own stack after the last switch into any fiber.
            unsafe {
                munmap(self.base as *mut c_void, self.len);
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

    impl SchedCore {
        fn make_ready(&mut self, id: usize) {
            if self.fibers[id].state == State::Blocked {
                self.fibers[id].state = State::Ready;
                self.run_q.push_back(id);
            }
        }
    }

    thread_local! {
        static CURRENT: Cell<*mut SchedCore> = const { Cell::new(std::ptr::null_mut()) };
        /// Debug shadow of the aliasing rule: set while `with_core` lends
        /// the core out.
        static CORE_LENT: Cell<bool> = const { Cell::new(false) };
    }

    /// Run `f` on the scheduler driving this thread, if one is. `f` must
    /// neither switch contexts nor call back into this module.
    fn with_core<R>(f: impl FnOnce(&mut SchedCore) -> R) -> Option<R> {
        let core = CURRENT.with(|c| c.get());
        if core.is_null() {
            return None;
        }
        debug_assert!(!CORE_LENT.replace(true), "scheduler core reborrowed");
        // SAFETY: a non-null `CURRENT` is the boxed core of a `run_all`
        // still on this thread's stack (`CurrentGuard` resets it on the way
        // out). It is only ever touched from this thread, and every other
        // reborrow ends before control can get here (see the module docs),
        // so the reference is exclusive for the duration of `f`.
        let r = f(unsafe { &mut *core });
        CORE_LENT.set(false);
        Some(r)
    }

    /// Is a fiber scheduler driving this thread right now?
    pub fn active() -> bool {
        CURRENT.with(|c| !c.get().is_null())
    }

    /// Park the running fiber until [`wake`] moves it back to the run
    /// queue. Must only be called from inside a fiber (i.e. when
    /// [`active`]); the caller must hold no locks.
    pub fn park_current() {
        let (fctx, mctx) = with_core(|c| {
            let id = c.current;
            debug_assert_eq!(
                c.fibers[id].state,
                State::Running,
                "parking a fiber not running"
            );
            c.fibers[id].state = State::Blocked;
            let fctx: *mut Context = &mut c.fibers[id].ctx;
            let mctx: *const Context = &c.main_ctx;
            (fctx, mctx)
        })
        .expect("park_current outside a fiber scheduler");
        // SAFETY: both contexts live in the scheduler's boxed core and
        // never move; `mctx` was saved by the `swapcontext` that switched
        // this fiber in. Only raw pointers cross the switch — the reborrow
        // above has ended.
        let rc = unsafe { swapcontext(fctx, mctx) };
        assert_eq!(rc, 0, "swapcontext out of rank fiber");
    }

    /// A message landed in `dst`'s queue: if that fiber is parked, make it
    /// runnable. No-op when no scheduler drives this thread (thread
    /// executor) or the fiber is running/ready already.
    pub fn wake(dst: usize) {
        with_core(|c| {
            if dst < c.fibers.len() {
                c.make_ready(dst);
            }
        });
    }

    /// Make every parked fiber runnable (poison path: they will observe
    /// the fabric's dead flag and unwind).
    pub fn wake_all() {
        with_core(|c| (0..c.fibers.len()).for_each(|id| c.make_ready(id)));
    }

    struct Outer<F, T> {
        workers: Vec<Option<F>>,
        results: Vec<Option<std::thread::Result<T>>>,
    }

    fn entry<F, T>(core: *mut SchedCore, id: usize)
    where
        F: FnOnce() -> T,
    {
        // SAFETY: `core` is `run_all::<T, F>`'s boxed core and `outer` its
        // `Outer<F, T>` local — `entry::<F, T>` is stored in the core by
        // that same instantiation, and both outlive the scheduler loop this
        // fiber runs under. Other fibers run their own `entry` while this
        // worker is parked, so each reborrow of `outer` is scoped to end
        // before the worker starts and after it returns.
        unsafe {
            let outer = (*core).outer as *mut Outer<F, T>;
            let w = {
                let o = &mut *outer;
                o.workers[id].take().expect("fiber ran twice")
            };
            let r = catch_unwind(AssertUnwindSafe(w));
            {
                let o = &mut *outer;
                o.results[id] = Some(r);
            }
        }
        with_core(|c| c.fibers[id].state = State::Done);
    }

    /// The common entry point every fiber starts in; dispatches to the
    /// monomorphized `entry` and then returns over `uc_link` back to the
    /// scheduler. A panic cannot leave it: the worker runs under
    /// `catch_unwind`, and an `extern "C"` frame aborts rather than unwinds.
    extern "C" fn fiber_main() {
        let core = CURRENT.with(|c| c.get());
        let (entry, id) = with_core(|c| (c.entry, c.current)).expect("fiber without a scheduler");
        entry(core, id);
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

    /// What the scheduler does next: switch into a ready fiber (saving the
    /// scheduler's context in the first, resuming the second), stop, or
    /// report that every unfinished fiber is parked.
    enum Next {
        Switch(*mut Context, *const Context),
        Finished,
        Stuck,
    }

    /// Run every worker as a fiber on the calling thread and collect the
    /// outcomes in order. `on_deadlock` is invoked (once) if the run queue
    /// drains while fibers are still parked — the caller poisons the
    /// fabric there, which unwinds the stuck ranks instead of hanging.
    pub fn run_all<T, F>(
        workers: Vec<F>,
        stack_size: usize,
        on_deadlock: impl Fn(),
    ) -> Vec<std::thread::Result<T>>
    where
        F: FnOnce() -> T,
    {
        let n = workers.len();
        let mut outer = Outer::<F, T> {
            workers: workers.into_iter().map(Some).collect(),
            results: (0..n).map(|_| None).collect(),
        };
        let mut core = Box::new(SchedCore {
            fibers: (0..n)
                .map(|_| Fiber {
                    ctx: Context::zeroed(),
                    stack: FiberStack::new(stack_size),
                    state: State::Ready,
                })
                .collect(),
            run_q: (0..n).collect(),
            current: 0,
            main_ctx: Context::zeroed(),
            entry: entry::<F, T>,
            outer: &mut outer as *mut Outer<F, T> as *mut (),
        });
        let main_ctx: *mut Context = &mut core.main_ctx;
        for f in core.fibers.iter_mut() {
            let ctx: *mut Context = &mut f.ctx;
            // SAFETY: `ctx` is this fiber's final address — the `Vec` is
            // complete and never grows again — so the self-pointer
            // `getcontext` plants stays valid. The four writes land on the
            // glibc x86_64 offsets of `uc_link` and `uc_stack` inside the
            // 1024-byte blob; the stack they name is owned by the same
            // `Fiber`, and `main_ctx` by the same box.
            unsafe {
                assert_eq!(getcontext(ctx), 0, "getcontext for rank fiber");
                let base = ctx as *mut u8;
                (base.add(UC_LINK) as *mut *mut Context).write(main_ctx);
                (base.add(UC_STACK_SP) as *mut *mut u8).write(f.stack.sp());
                (base.add(UC_STACK_FLAGS) as *mut i32).write(0);
                (base.add(UC_STACK_SIZE) as *mut usize).write(f.stack.size());
                makecontext(ctx, fiber_main, 0);
            }
        }
        let fibers_at = core.fibers.as_ptr();
        {
            // From here to the end of the loop the core is reached only
            // through this pointer (by way of `with_core`).
            let _guard = CurrentGuard::enter(&mut *core);
            let mut poisoned_for_deadlock = false;
            loop {
                let next = with_core(|c| loop {
                    debug_assert_eq!(c.fibers.as_ptr(), fibers_at, "fiber contexts moved");
                    match c.run_q.pop_front() {
                        None if c.fibers.iter().all(|f| f.state == State::Done) => {
                            break Next::Finished
                        }
                        None => break Next::Stuck,
                        Some(id) if c.fibers[id].state != State::Ready => continue,
                        Some(id) => {
                            c.fibers[id].state = State::Running;
                            c.current = id;
                            break Next::Switch(&mut c.main_ctx, &c.fibers[id].ctx);
                        }
                    }
                })
                .expect("scheduler installed above");
                match next {
                    Next::Switch(mctx, fctx) => {
                        // SAFETY: `fctx` was initialised in place above (or
                        // saved by the `swapcontext` that parked it) and
                        // its stack is alive in `core`; no reborrow of the
                        // core is live, and the fiber comes back here only
                        // by parking or finishing — a worker panic is
                        // caught inside it.
                        let rc = unsafe { swapcontext(mctx, fctx) };
                        assert_eq!(rc, 0, "swapcontext into rank fiber");
                    }
                    Next::Finished => break,
                    Next::Stuck => {
                        assert!(
                            !poisoned_for_deadlock,
                            "fiber scheduler wedged: ranks still parked after poisoning"
                        );
                        poisoned_for_deadlock = true;
                        // Poisoning the fabric re-enters the scheduler
                        // through `wake_all`.
                        on_deadlock();
                    }
                }
            }
        }
        drop(core);
        outer
            .results
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("rank fiber {i} exited without a result")))
            .collect()
    }
}

/// Stub for platforms without the glibc x86_64 context-switch ABI:
/// [`Executor::for_world`] never picks fibers there.
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

    pub fn run_all<T, F>(
        _workers: Vec<F>,
        _stack: usize,
        _on_deadlock: impl Fn(),
    ) -> Vec<std::thread::Result<T>>
    where
        F: FnOnce() -> T,
    {
        unreachable!("fiber executor unsupported on this platform")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A rank thread the OS refuses to start fails the run with the OS
    /// error — after the unblock hook ran, because the scope joins the ranks
    /// already started before that panic can leave it.
    #[test]
    fn a_failed_spawn_runs_the_unblock_hook_then_fails() {
        let unblocked = Cell::new(false);
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // No host can map a 2^60-byte stack.
            run_threads(vec![|| ()], 1 << 60, || unblocked.set(true))
        }));
        let payload = out.expect_err("the spawn cannot have succeeded");
        let msg = payload.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.starts_with("spawn rank thread 0:"), "{msg}");
        assert!(unblocked.get(), "peers were left blocked");
    }
}
