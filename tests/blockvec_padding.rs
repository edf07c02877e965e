//! The block tile's storage rule, and what the halo width may change:
//! nothing.
//!
//! Every tile stores its interior plus its halo ring and nothing else:
//! rows of `nx + 2·halo` points, no lane rounding, behind a 32-byte-aligned
//! base (`pop_comm::tile::extent`, DESIGN.md §9). `DistLayout::build` keeps
//! a ring of 1, the reach of the nine-point stencil, because every sweep
//! that reads a neighbour follows its own exchange. POP's ring of 2 stays
//! available through `DistLayout::new`; these tests pin that its second ring
//! is storage only. Solves agree bit for bit at both widths, and NaN written
//! into ring 2 after every exchange never reaches an apply, a dot or a solve.

use pop_baro::prelude::*;
use pop_comm::tile::extent;
use pop_comm::{
    masked_block_dot, BlockVec, Communicator, DistField, Group, MultiBlockVec, StatsSnapshot,
    SweepPartials, Tile,
};
use pop_core::solvers::SolverWorkspace;
use std::sync::Arc;

mod common;
use common::{lane_modes, noise};

/// Stride, size, and alignment of both tile types on assorted odd shapes.
#[test]
fn padded_stride_invariants() {
    for (nx, ny, h) in [
        (13usize, 7usize, 2usize),
        (13, 7, 1),
        (1, 1, 2),
        (5, 3, 1),
        (16, 8, 2),
        (7, 11, 2),
        (18, 20, 1),
        (45, 30, 1),
    ] {
        let (stride, rows) = (nx + 2 * h, ny + 2 * h);
        assert_eq!(extent(nx, ny, h), (stride, rows), "({nx},{ny},{h})");
        let b = BlockVec::zeros(nx, ny, h);
        assert_eq!(b.stride(), stride, "({nx},{ny},{h}): stride");
        assert_eq!(b.raw().len(), stride * rows, "({nx},{ny},{h}): raw size");
        assert_eq!(
            b.raw().as_ptr() as usize % 32,
            0,
            "({nx},{ny},{h}): base not 32-byte aligned"
        );
        let m = MultiBlockVec::zeros(nx, ny, h, 2);
        assert_eq!((m.stride(), m.rows()), (stride, rows), "({nx},{ny},{h})");
        assert_eq!(m.raw().len(), 2 * rows * stride * pop_simd::LANES);
        assert_eq!(m.raw().as_ptr() as usize % 32, 0);
    }
}

/// NaN into every ring cell of `t` farther than `keep` cells from the
/// interior.
fn poison_ring<T: Tile>(t: &mut T, nx: usize, ny: usize, halo: usize, keep: usize) {
    let (stride, rows) = extent(nx, ny, halo);
    let far = |c: usize, n: usize| c + keep < halo || c >= n - halo + keep;
    for (k, point) in t.raw_mut().chunks_exact_mut(T::POINT_WIDTH).enumerate() {
        let (i, j) = (k % stride, k / stride % rows);
        if far(i, stride) || far(j, rows) {
            point.fill(f64::NAN);
        }
    }
}

/// NaN into ring 2 of every tile of a halo-2 field.
fn poison_ring_two<T: Tile>(v: &mut DistField<T>) {
    assert_eq!(v.layout.halo, 2, "ring 2 needs a halo-2 layout");
    for (t, info) in v.blocks.iter_mut().zip(&v.layout.decomp.blocks) {
        poison_ring(t, info.nx, info.ny, 2, 1);
    }
}

/// `masked_block_dot` on a 13×7 block whose whole ring is NaN matches a
/// plain reference accumulation over logical indices, bitwise — the ring
/// must not change which cells (or in which order) the partial sums.
#[test]
fn block_dot_ignores_padding() {
    let (nx, ny) = (13usize, 7usize);
    let mut a = BlockVec::zeros(nx, ny, 2);
    let mut b = BlockVec::zeros(nx, ny, 2);
    let mask: Vec<u8> = (0..nx * ny).map(|k| (k % 5 != 3) as u8).collect();
    for j in 0..ny {
        for i in 0..nx {
            a.set(i, j, noise(1, i, j));
            b.set(i, j, noise(2, i, j));
        }
    }
    for v in [&mut a, &mut b] {
        poison_ring(v, nx, ny, 2, 0);
    }
    let mut want = 0.0f64;
    for j in 0..ny {
        for i in 0..nx {
            if mask[j * nx + i] != 0 {
                want += a.get(i, j) * b.get(i, j);
            }
        }
    }
    let got = masked_block_dot(&a, &b, &mask);
    assert!(got.is_finite(), "dot read the ring");
    assert_eq!(got.to_bits(), want.to_bits());
}

/// [`CommWorld`], except that every exchange ends by writing NaN into ring 2
/// of every tile it refreshed. A solve through it matches one through the
/// plain world only if no sweep, kernel or reduction ever reads ring 2.
struct PoisonRingTwo(CommWorld);

impl Communicator for PoisonRingTwo {
    type Vec<T: Tile> = DistField<T>;
    type Sweep = SweepPartials;

    fn stats(&self) -> StatsSnapshot {
        self.0.stats()
    }

    fn alloc<T: Tile>(&self, model: &DistVec, width: usize) -> DistField<T> {
        Communicator::alloc(&self.0, model, width)
    }

    fn halo_update<T: Tile>(&self, v: &mut DistField<T>) {
        self.0.halo_update(v);
        poison_ring_two(v);
    }

    fn for_each_group_fused<T: Tile, const M: usize, F>(
        &self,
        muts: [&mut DistField<T>; M],
        kernel: F,
    ) -> SweepPartials
    where
        F: Fn(&mut Group<'_, T, M>) + Sync,
    {
        Communicator::for_each_group_fused(&self.0, muts, kernel)
    }

    fn reduce_sweep(&self, sweep: &SweepPartials, scalars: u64) -> SweepPartials {
        Communicator::reduce_sweep(&self.0, sweep, scalars)
    }

    fn dot_fused(&self, x: &DistVec, y: &DistVec) -> f64 {
        Communicator::dot_fused(&self.0, x, y)
    }
}

fn layout_with_halo(grid: &Grid, bx: usize, by: usize, halo: usize) -> Arc<DistLayout> {
    DistLayout::new(grid, Decomposition::new(grid, bx, by), halo)
}

/// `choice` on `op` through `comm`, set up on the plain serial world.
fn solve_on<C: Communicator<Vec<BlockVec> = DistVec>>(
    comm: &C,
    op: &NinePoint,
    choice: SolverChoice,
    rhs: &DistVec,
) -> common::Observables {
    let setup = SolverSetup::new(choice, op, &CommWorld::serial());
    let solver = setup.state().solver(choice.solver);
    let mut x = DistVec::zeros(&op.layout);
    let mut ws = SolverWorkspace::new();
    let cfg = common::solver_cfg();
    let st = solver.solve(op, setup.preconditioner(), comm, rhs, &mut x, &cfg, &mut ws);
    assert!(st.converged, "{}: {st:?}", choice.label());
    common::observe(&st, &x)
}

/// On a halo-2 layout of 13×7 blocks (not lane multiples, so every kernel
/// row has a scalar tail), NaN in ring 2 of the operand and of all four
/// coefficient fields leaves the exchange, the apply under every dispatch
/// mode, the global dot and every paper configuration's solve bitwise
/// unchanged; the solves poison ring 2 again after every exchange.
#[test]
fn ring_two_is_storage_only_end_to_end() {
    let grid = Grid::gx01_scaled(9, 39, 28);
    let layout = layout_with_halo(&grid, 13, 7, 2);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 700.0);
    let mut poisoned = op.clone();
    for c in [
        &mut poisoned.a0,
        &mut poisoned.an,
        &mut poisoned.ae,
        &mut poisoned.ane,
    ] {
        poison_ring_two(c);
    }

    let mut x = DistVec::zeros(&layout);
    x.fill_with(|i, j| noise(7, i, j));
    world.halo_update(&mut x);
    let clean_interior = x.to_global();
    let clean_dot = world.dot(&x, &x);
    let mut y = DistVec::zeros(&layout);
    op.apply_reference(&world, &x, &mut y);
    let clean_y = y.to_global();

    poison_ring_two(&mut x);
    world.halo_update(&mut x);
    assert_eq!(
        x.to_global(),
        clean_interior,
        "exchange disturbed interiors"
    );
    poison_ring_two(&mut x);
    let dot = world.dot(&x, &x);
    assert_eq!(dot.to_bits(), clean_dot.to_bits(), "dot read ring 2");

    for mode in lane_modes() {
        let mut y2 = DistVec::zeros(&layout);
        for b in 0..layout.n_blocks() {
            poisoned.apply_block_into_mode(
                mode,
                b,
                &x.blocks[b],
                &mut y2.blocks[b],
                &layout.masks[b],
            );
        }
        for (k, (a, b)) in y2.to_global().iter().zip(&clean_y).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{} apply read ring 2 at point {k}",
                mode.name()
            );
        }
    }

    let rhs = common::rhs_in_range(&op, 2015);
    let ring_two = PoisonRingTwo(CommWorld::serial());
    for choice in SolverChoice::PAPER_SET {
        let clean = solve_on(&world, &op, choice, &rhs);
        let got = solve_on(&ring_two, &poisoned, choice, &rhs);
        common::assert_same(
            &format!("{} with ring 2 poisoned", choice.label()),
            &clean,
            &got,
        );
    }
}

/// The fused dispatch apply is bit-identical to the straightforward
/// reference loops on non-lane-multiple blocks, and the result does not
/// depend on the decomposition (13×7 vs 39×14 blocks have different strides
/// and halo traffic but must agree bitwise).
#[test]
fn apply_matches_reference_across_decompositions() {
    let grid = Grid::gx01_scaled(5, 39, 28);
    let world = CommWorld::serial();
    let run = |bx: usize, by: usize| -> (Vec<f64>, Vec<f64>) {
        let layout = DistLayout::build(&grid, bx, by);
        let op = NinePoint::assemble(&grid, &layout, &world, 700.0);
        let mut x = DistVec::zeros(&layout);
        x.fill_with(|i, j| noise(11, i, j));
        world.halo_update(&mut x);
        let mut y = DistVec::zeros(&layout);
        op.apply(&world, &x, &mut y);
        let mut yr = DistVec::zeros(&layout);
        op.apply_reference(&world, &x, &mut yr);
        (y.to_global(), yr.to_global())
    };
    let (y_a, yref_a) = run(13, 7);
    let (y_b, _) = run(39, 14);
    for (k, (a, r)) in y_a.iter().zip(&yref_a).enumerate() {
        assert_eq!(
            a.to_bits(),
            r.to_bits(),
            "apply vs reference differ at point {k}"
        );
    }
    for (k, (a, b)) in y_a.iter().zip(&y_b).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "decompositions disagree at point {k}: halo exchange unfaithful"
        );
    }
}

/// One operator and right-hand side on the same grid and blocks at halo
/// widths 1 and 2; the right-hand side is built at width 1 and scattered
/// into both.
fn at_both_widths(grid: &Grid, bx: usize, by: usize, seed: u64) -> [(NinePoint, DistVec); 2] {
    let world = CommWorld::serial();
    let mut rhs_global = None;
    [1, 2].map(|halo| {
        let layout = layout_with_halo(grid, bx, by, halo);
        let op = NinePoint::assemble(grid, &layout, &world, 9000.0);
        let g = rhs_global.get_or_insert_with(|| common::rhs_in_range(&op, seed).to_global());
        let rhs = DistVec::from_global(&layout, g);
        (op, rhs)
    })
}

/// The halo width is storage only: every paper configuration gives the
/// same iterations, residual history, final residual and solution bits on
/// a halo-1 and a halo-2 layout of the same blocks — on the serve-sized
/// gx1, a scaled 0.1° grid in the benchmark's 45×30 blocks, and a larger
/// gx1 in small blocks — and so does a five-wide batched solve.
#[test]
fn halo_width_changes_no_solve() {
    let world = CommWorld::serial();
    let cases = [
        ("gx1 96x80 in 24x20", Grid::gx1_scaled(2015, 96, 80), 24, 20),
        (
            "gx01 180x120 in 45x30",
            Grid::gx01_scaled(2015, 180, 120),
            45,
            30,
        ),
        (
            "gx1 160x128 in 20x16",
            Grid::gx1_scaled(2015, 160, 128),
            20,
            16,
        ),
    ];
    for (name, grid, bx, by) in &cases {
        let [(op1, rhs1), (op2, rhs2)] = at_both_widths(grid, *bx, *by, 7);
        for choice in SolverChoice::PAPER_SET {
            let one = solve_on(&world, &op1, choice, &rhs1);
            let two = solve_on(&world, &op2, choice, &rhs2);
            common::assert_same(
                &format!("{name} {} halo 1 vs 2", choice.label()),
                &two,
                &one,
            );
        }
    }

    let (name, grid, bx, by) = &cases[0];
    let [(op1, _), (op2, _)] = at_both_widths(grid, *bx, *by, 7);
    let rhs_globals: Vec<Vec<f64>> = (100..105)
        .map(|seed| common::rhs_in_range(&op1, seed).to_global())
        .collect();
    let batched = |op: &NinePoint| -> Vec<common::Observables> {
        let choice = SolverChoice::PcsiEvp;
        let setup = SolverSetup::new(choice, op, &world);
        let rhss: Vec<DistVec> = rhs_globals
            .iter()
            .map(|g| DistVec::from_global(&op.layout, g))
            .collect();
        let mut xs: Vec<DistVec> = rhss.iter().map(|_| DistVec::zeros(&op.layout)).collect();
        let bs: Vec<&DistVec> = rhss.iter().collect();
        let mut xr: Vec<&mut DistVec> = xs.iter_mut().collect();
        let stats = setup.state().solver(choice.solver).solve_batch(
            op,
            setup.preconditioner(),
            &world,
            &bs,
            &mut xr,
            &common::solver_cfg(),
            &mut BatchWorkspace::new(),
        );
        stats
            .iter()
            .zip(&xs)
            .map(|(st, x)| {
                assert!(st.converged, "{name} batched: {st:?}");
                common::observe(st, x)
            })
            .collect()
    };
    for (l, (one, two)) in batched(&op1).iter().zip(&batched(&op2)).enumerate() {
        common::assert_same(&format!("{name} batched lane {l} halo 1 vs 2"), two, one);
    }
}
