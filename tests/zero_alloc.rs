//! Steady-state allocation audit for the fused solver loops.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! solve has sized the [`SolverWorkspace`], the halo exchange's pointer
//! table, and the preconditioner's thread-local tile buffers, the
//! *per-iteration* heap allocation count of `solve_ws` must be exactly
//! zero. That is asserted
//! differentially: a solve running 8× as many iterations must allocate
//! exactly as much as a short one (the only per-solve allocation left is the
//! fresh `SolveStats` residual history, identical for both).
//!
//! One level up, a warm [`BarotropicMode::step`] — right-hand side, solve,
//! statistics — must allocate a small constant that does not grow with the
//! number of blocks: the right-hand side is a field of the mode, not a fresh
//! vector per step.
//!
//! The batched engine is held to the same differential at k = 5 (two lane
//! groups, one of them ragged), with a convergence check every 8 iterations
//! so the long solve also runs 8× the checks: per-lane bookkeeping at a
//! check — snapshots, retirements, restarts — allocates nothing either.
//!
//! A warm `pop-serve` worker is held to the same contract per coalesced
//! group: one more group of one, two or three requests costs its answers
//! and a constant, the same on 15 blocks as on 180 and at 8× the
//! iterations. Groups of one and two solve on the single-RHS engine out of
//! the worker's one `SolverWorkspace`, a group of three on the batched
//! engine.
//!
//! This file holds a single `#[test]` so no concurrent test pollutes the
//! counters, and it uses the serial backend so every allocation is made on
//! this thread — except the served audit's, whose window spans its
//! worker's whole life, from `SolverService::start` to the join in
//! `shutdown`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOC_CALLS.load(Ordering::SeqCst)
}

use pop_baro::core::solvers::SolverWorkspace;
use pop_baro::prelude::*;
use pop_baro::serve::{ServiceConfig, SolveRequest, SolverService};
use std::sync::Arc;

#[test]
fn fused_solve_iterations_allocate_nothing() {
    let grid = Grid::gx01_scaled(11, 90, 60);
    // Block-EVP packs same-shape tiles across the blocks of a sweep group.
    // 14×10 blocks tile into siblings, and a few tiles stay alone in their
    // group; an 8×8 block is one tile, so every pack of the second layout
    // spans blocks. Both solve through per-group temporaries.
    audit(&grid, 14, 10, false);
    audit(&grid, 8, 8, true);
    batch_audit(&grid, 18, 20);
    serve_audit(&grid);

    // A warm model step costs the same few allocations on 15 blocks as on
    // an order of magnitude more of them.
    let coarse = step_allocs(&grid, 18, 20);
    let fine = step_allocs(&grid, 6, 5);
    assert_eq!(
        coarse, fine,
        "BarotropicMode::step allocations grow with the block count"
    );
    assert!(coarse <= 8, "warm step made {coarse} allocations");
}

/// Allocation count of one warm `BarotropicMode::step` on `bx × by` blocks.
fn step_allocs(grid: &Grid, bx: usize, by: usize) -> u64 {
    let world = CommWorld::serial();
    // One check per solve, so both layouts keep a history of one entry.
    let cfg = SolverConfig {
        tol: 0.0,
        max_iters: 40,
        check_every: 40,
        ..SolverConfig::default()
    };
    let mut mode = BarotropicMode::new(
        grid,
        &world,
        bx,
        by,
        345.6,
        SolverChoice::ChronGearDiag,
        cfg,
    );
    let mut forecast = DistVec::zeros(&mode.layout);
    forecast.fill_with(|i, j| ((i as f64) * 0.07).sin() * ((j as f64) * 0.11).cos());
    for _ in 0..2 {
        mode.step(&world, &forecast);
    }
    let before = allocs();
    let iterations = mode.step(&world, &forecast).iterations;
    let during = allocs() - before;
    assert_eq!(iterations, 40);
    assert!(
        mode.layout.n_blocks() >= if bx == 6 { 150 } else { 10 },
        "{bx}x{by}: {} blocks",
        mode.layout.n_blocks()
    );
    during
}

fn audit(grid: &Grid, bx: usize, by: usize, one_tile_blocks: bool) {
    let layout = DistLayout::build(grid, bx, by);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(grid, &layout, &world, 9000.0);
    let mut truth = DistVec::zeros(&layout);
    truth.fill_with(|i, j| ((i as f64) * 0.13).sin() * ((j as f64) * 0.09).cos() + 0.2);
    world.halo_update(&mut truth);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&world, &truth, &mut rhs);

    let diag = Diagonal::new(&op);
    let evp = BlockEvp::with_defaults(&op);
    // A coastal operator: both tile classes are under audit, in full and
    // ragged packs and alone in lane 0 — the same thread-local lane pads
    // and transposed staging tile serve all three — the packs of the
    // one-tile blocks each gathered from several blocks.
    let census = evp.census();
    let solved = census.marching.tiles + census.banded.tiles;
    let tiles = solved + census.all_land.tiles;
    assert!(
        census.marching.tiles > 0
            && census.banded.tiles > 0
            && (1..solved).contains(&census.packed.tiles)
            && census.packed.tiles < 4 * census.packs
            && (tiles == layout.n_blocks()) == one_tile_blocks
            && (census.packed.tiles > 3 * census.packs) != one_tile_blocks,
        "{bx}x{by}: {census:?}"
    );
    let (bounds, _) = estimate_bounds(&op, &evp, &world, &LanczosConfig::default());

    let preconds: [(&str, &dyn Preconditioner); 2] = [("diag", &diag), ("evp", &evp)];
    let pcsi = Pcsi::new(bounds);
    let solvers: [(&str, &dyn LinearSolver); 2] = [("pcsi", &pcsi), ("chrongear", &ChronGear)];

    // Fixed iteration counts (tol = 0 never converges) with a single
    // convergence check each, so the two runs differ only in how many inner
    // iterations they execute.
    let short = 64usize;
    let long = 512usize;
    let cfg_of = |iters: usize| SolverConfig {
        tol: 0.0,
        max_iters: iters,
        check_every: iters,
        ..SolverConfig::default()
    };

    let mut x = DistVec::zeros(&layout);
    for (pname, pre) in preconds {
        for (sname, solver) in solvers {
            let mut ws = SolverWorkspace::new();
            // Warm-up at the long length: sizes the workspace, the halo
            // pointer table, and thread-local preconditioner buffers.
            x.set_zero();
            let st = solver.solve_ws(&op, pre, &world, &rhs, &mut x, &cfg_of(long), &mut ws);
            assert_eq!(st.iterations, long);

            x.set_zero();
            let before_short = allocs();
            let st = solver.solve_ws(&op, pre, &world, &rhs, &mut x, &cfg_of(short), &mut ws);
            let during_short = allocs() - before_short;
            assert_eq!(st.iterations, short);

            x.set_zero();
            let before_long = allocs();
            let st = solver.solve_ws(&op, pre, &world, &rhs, &mut x, &cfg_of(long), &mut ws);
            let during_long = allocs() - before_long;
            assert_eq!(st.iterations, long);

            assert_eq!(
                during_long,
                during_short,
                "{bx}x{by} {sname}+{pname}: {} extra allocations across {} extra iterations \
                 (short solve: {during_short} allocs, long solve: {during_long})",
                during_long as i64 - during_short as i64,
                long - short
            );
            // The per-solve residue is the SolveStats history and nothing
            // else — a handful of calls, not one per iteration or per block.
            assert!(
                during_long <= 8,
                "{bx}x{by} {sname}+{pname}: fused solve made {during_long} allocations after warm-up"
            );
        }
    }
}

/// The batched differential: a warm k = 5 `solve_batch_comm` running 8× the
/// iterations (and 8× the checks) of a short one must allocate exactly as
/// much — per solve, the lane controls, their histories and the returned
/// stats; per iteration and per check, nothing.
fn batch_audit(grid: &Grid, bx: usize, by: usize) {
    let layout = DistLayout::build(grid, bx, by);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(grid, &layout, &world, 9000.0);
    let mut truth = DistVec::zeros(&layout);
    truth.fill_with(|i, j| ((i as f64) * 0.13).sin() * ((j as f64) * 0.09).cos() + 0.2);
    world.halo_update(&mut truth);
    let mut rhs = DistVec::zeros(&layout);
    op.apply(&world, &truth, &mut rhs);
    let k = 5;
    let bs_own: Vec<DistVec> = (0..k)
        .map(|l| {
            let mut b = rhs.clone();
            b.scale(1.0 + 0.25 * l as f64);
            b
        })
        .collect();
    let bs: Vec<&DistVec> = bs_own.iter().collect();
    let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&layout)).collect();

    let diag = Diagonal::new(&op);
    let evp = BlockEvp::with_defaults(&op);
    let cfg_of = |iters: usize| SolverConfig {
        tol: 0.0,
        max_iters: iters,
        check_every: 8,
        ..SolverConfig::default()
    };
    let (short, long) = (64usize, 512usize);
    for (pname, pre) in [("diag", &diag as &dyn Preconditioner), ("evp", &evp)] {
        let (bounds, _) = estimate_bounds(&op, pre, &world, &LanczosConfig::default());
        for kind in [SolverKind::Pcsi(bounds), SolverKind::ChronGear] {
            let mut ws = BatchWorkspace::new();
            let mut solve = |iters: usize| {
                xs_own.iter_mut().for_each(DistVec::set_zero);
                let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
                let before = allocs();
                let stats =
                    kind.solve_batch(&op, pre, &world, &bs, &mut xs, &cfg_of(iters), &mut ws);
                let during = allocs() - before;
                assert!(stats.iter().all(|st| st.iterations == iters));
                during
            };
            // Warm-up at the long length sizes every workspace and buffer.
            solve(long);
            let during_short = solve(short);
            let during_long = solve(long);
            assert_eq!(
                during_long,
                during_short,
                "k={k} {}+{pname}: {} extra allocations across {} extra iterations",
                kind.name(),
                during_long as i64 - during_short as i64,
                long - short
            );
        }
    }
}

/// The served differential, per group width: what one more staged group
/// costs a fresh one-worker service, net of its answers, on 18×20 blocks
/// at 32 and 256 iterations and on 6×5 blocks (180 of them) at 32. A
/// workspace vector or any other per-block allocation would differ between
/// the layouts; a per-iteration one between the iteration counts.
fn serve_audit(grid: &Grid) {
    let world = CommWorld::serial();
    let cases = [(18, 20, 32), (18, 20, 256), (6, 5, 32)];
    let problems: Vec<(Arc<NinePoint>, DistVec, u64)> = cases
        .iter()
        .map(|&(bx, by, _)| {
            let layout = DistLayout::build(grid, bx, by);
            let op = NinePoint::assemble(grid, &layout, &world, 9000.0);
            let mut truth = DistVec::zeros(&layout);
            truth.fill_with(|i, j| ((i as f64) * 0.13).sin() * ((j as f64) * 0.09).cos());
            world.halo_update(&mut truth);
            let mut rhs = DistVec::zeros(&layout);
            op.apply(&world, &truth, &mut rhs);
            let before = allocs();
            let answer = DistVec::zeros(&layout);
            let answer_allocs = allocs() - before;
            drop(answer);
            (Arc::new(op), rhs, answer_allocs)
        })
        .collect();
    assert!(problems[2].0.layout.n_blocks() >= 150);
    for width in 1..=3 {
        let nets: Vec<u64> = cases
            .iter()
            .zip(&problems)
            .map(|(&(_, _, iters), (op, rhs, answer))| {
                let extra_group = served_allocs(op, rhs, width, 3, iters)
                    - served_allocs(op, rhs, width, 2, iters);
                extra_group - width as u64 * answer
            })
            .collect();
        assert!(
            nets.iter().all(|&n| n == nets[0]),
            "width {width}: one more served group, net of its answers, allocates \
             {nets:?} on (18x20, 32 its), (18x20, 256 its), (6x5, 32 its)"
        );
        assert!(
            nets[0] <= 64,
            "width {width}: {} allocations a group",
            nets[0]
        );
    }
}

/// Allocations from starting a one-worker P-CSI+EVP service to joining it
/// in `shutdown`, while it serves `groups` staged groups of `width`
/// iteration-capped requests. Shutdown waits until the last request's
/// quota is released, which the worker does just before answering it, and
/// the tickets are read after the count, so the test thread never blocks
/// on a channel inside the window.
fn served_allocs(
    op: &Arc<NinePoint>,
    rhs: &DistVec,
    width: usize,
    groups: usize,
    iters: usize,
) -> u64 {
    let reqs: Vec<SolveRequest> = (0..width * groups)
        .map(|_| {
            let req = SolveRequest::new(
                0,
                Arc::clone(op),
                SolverSpec::Pcsi,
                PrecondSpec::Evp,
                rhs.clone(),
            );
            req.with_tol(f64::MIN_POSITIVE)
        })
        .collect();
    let mut tickets = Vec::with_capacity(reqs.len());
    let before = allocs();
    let svc = SolverService::start(ServiceConfig {
        workers: 1,
        max_batch: width,
        start_paused: true,
        base: SolverConfig {
            max_iters: iters,
            ..SolverConfig::default()
        },
        ..ServiceConfig::default()
    });
    for req in reqs {
        tickets.push(svc.submit(req).unwrap());
    }
    svc.resume();
    while svc.tenant_load_len() > 0 {
        std::thread::yield_now();
    }
    let _ = svc.shutdown();
    let during = allocs() - before;
    for t in tickets {
        let resp = t.wait().unwrap();
        assert_eq!((resp.batch_width, resp.stats.iterations), (width, iters));
    }
    during
}
