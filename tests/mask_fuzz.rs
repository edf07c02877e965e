//! Seeded land-mask fuzzing: pathological topologies, three backends.
//!
//! Real bathymetry is full of degenerate shapes — isolated one-cell seas,
//! one-cell-wide channels, blocks that are entirely land, blocks holding a
//! single ocean point. Each fuzzed mask here is *engineered* to contain all
//! four features (then perturbed by a seeded [`pop_rng`] stream, so every
//! run is reproducible from the seed alone), and every solver must:
//!
//! - assemble and converge on the resulting operator, and
//! - produce **bitwise identical** solutions, histories and iteration
//!   counts on the serial, threaded and ranksim backends.
//!
//! Land-block elimination, halo exchange along 1-wide straits and masked
//! reductions over near-empty blocks all get exercised in one sweep.

use pop_baro::prelude::*;
use pop_core::solvers::SolverWorkspace;
use pop_grid::{Bathymetry, GridKind, Metrics};
use pop_rng::SmallRng;
use std::sync::Arc;

mod common;
use common::fuzz::{fuzzed_depth, fuzzed_grid, grid_of, BX, BY, NX, NY};
use common::precond::BlockLu;
use common::{
    assert_same, lane_modes, observe, run_ranks, run_world, solver_cfg, startup_then_forced_modes,
    ModeGuard, Observables, Problem,
};

/// A manufactured RHS in the operator's range, seeded like the mask.
fn rhs_for(layout: &Arc<DistLayout>, op: &NinePoint, seed: u64) -> DistVec {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_0FF5);
    let world = CommWorld::serial();
    let global: Vec<f64> = (0..NX * NY).map(|_| rng.gen::<f64>() - 0.5).collect();
    let mut field = DistVec::from_global(layout, &global);
    world.halo_update(&mut field);
    let mut rhs = DistVec::zeros(layout);
    op.apply(&world, &field, &mut rhs);
    rhs
}

/// The fuzz sweep: for each seed, build the pathological mask, check the
/// engineered degeneracies actually exist, then demand convergence and
/// bitwise backend agreement for every solver.
#[test]
fn pathological_masks_solve_identically_on_all_backends() {
    for seed in [11u64, 29, 47] {
        let grid = fuzzed_grid(seed);
        // The engineered features survived the noise: the single-point block
        // holds exactly its one ocean cell plus the channel row.
        assert!(grid.is_ocean(2 * BX + BX / 2, 2 * BY + BY / 2));
        assert!(grid.is_ocean(2 * BX, BY + BY / 2));
        assert!(!grid.is_ocean(2 * BX + 1, BY + 1));
        assert!(
            grid.ocean_points() > NX * NY / 4,
            "fuzz produced a dead map"
        );

        let layout = DistLayout::build(&grid, BX, BY);
        let serial = CommWorld::serial();
        let threaded = CommWorld::threaded();
        let op = NinePoint::assemble(&grid, &layout, &serial, 9000.0);
        let pre = Diagonal::new(&op);
        let rhs = rhs_for(&layout, &op, seed);
        let (bounds, _) = estimate_bounds(&op, &pre, &serial, &LanczosConfig::default());
        let p = Problem { layout, op, rhs };
        for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
            let name = format!("{} fuzz-seed={seed}", kind.name());
            let base = run_world(&serial, &p, &pre, kind);
            assert_eq!(
                base.outcome,
                SolveOutcome::Converged,
                "{name}: serial solve failed on fuzzed mask"
            );
            let t = run_world(&threaded, &p, &pre, kind);
            assert!(t == base, "{name}: threaded backend diverged from serial");
            let r = run_ranks(&p, &pre, kind, 4);
            assert!(r == base, "{name}: ranksim backend diverged from serial");
        }
    }
}

/// Regression for the eigenbound guard rails: on a map that is land except
/// for a handful of scattered single cells (every block all-land or holding
/// one isolated ocean point), the Lanczos process breaks down almost
/// immediately. `estimate_bounds` must still hand back a *valid* interval —
/// `0 < ν < μ`, finite condition number — that `Pcsi::new` accepts and that
/// drives a finite solve instead of feeding NaN/∞ into the Chebyshev
/// recurrence.
#[test]
fn degenerate_masks_yield_valid_eigenbounds() {
    let mut depth = vec![0.0f64; NX * NY];
    // One isolated ocean cell near the middle of each of four blocks; every
    // neighbour is land, so A is diagonal over four disconnected points.
    for (i, j) in [
        (BX / 2, BY / 2),
        (BX + BX / 2, 2 * BY + BY / 2),
        (2 * BX + 2, BY + 2),
        (3 * BX + 5, 3 * BY / 2),
    ] {
        depth[j * NX + i] = 250.0;
    }
    let bathy = Bathymetry {
        nx: NX,
        ny: NY,
        depth,
    };
    let grid = Grid::from_parts(
        GridKind::Custom,
        Metrics::uniform(NX, NY, 5.0e4),
        &bathy,
        false,
    );
    assert_eq!(grid.ocean_points(), 4);

    let layout = DistLayout::build(&grid, BX, BY);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 9000.0);
    let pre = Diagonal::new(&op);
    let (bounds, _) = estimate_bounds(&op, &pre, &world, &LanczosConfig::default());
    assert!(
        bounds.nu > 0.0 && bounds.mu > bounds.nu && bounds.mu.is_finite(),
        "degenerate mask produced unusable bounds: {bounds:?}"
    );
    assert!(bounds.condition().is_finite());

    // The salvaged bounds must be consumable end-to-end.
    let rhs = rhs_for(&layout, &op, 3);
    let p = Problem { layout, op, rhs };
    let got = run_world(&world, &p, &pre, SolverKind::Pcsi(bounds));
    assert!(
        f64::from_bits(got.final_residual_bits).is_finite(),
        "P-CSI produced a non-finite residual on the degenerate mask"
    );
    for bits in &got.x_bits {
        assert!(f64::from_bits(*bits).is_finite());
    }
}

/// The MG tentpole's pathological coarsening cases, all present in every
/// fuzzed mask: an all-land block whose hierarchy must come out empty, a
/// one-cell-wide channel that the masked coarse grids thin out or lose
/// entirely, and isolated ocean cells whose coarse interpolation supports
/// collapse onto a single fine point (the singular-Galerkin corner the
/// coarsest-level LU shift retry covers). The V-cycle must stay finite,
/// keep land at exactly zero, and reproduce its own bits across repeat
/// applications and every forced lane mode.
#[test]
fn mg_vcycle_is_finite_and_bitwise_stable_on_pathological_masks() {
    let _guard = ModeGuard;
    for seed in [11u64, 29, 47] {
        let grid = fuzzed_grid(seed);
        let layout = DistLayout::build(&grid, BX, BY);
        let serial = CommWorld::serial();
        let op = NinePoint::assemble(&grid, &layout, &serial, 9000.0);
        let mg = BlockMg::with_defaults(&op);
        let rhs = rhs_for(&layout, &op, seed);
        let apply = |world: &CommWorld| {
            let mut z = DistVec::zeros(&layout);
            mg.apply(world, &rhs, &mut z);
            z.to_global()
        };
        let base = apply(&serial);
        for j in 0..NY {
            for i in 0..NX {
                let v = base[j * NX + i];
                assert!(
                    v.is_finite(),
                    "seed {seed}: non-finite V-cycle at ({i},{j})"
                );
                if !grid.is_ocean(i, j) {
                    assert_eq!(v, 0.0, "seed {seed}: land leaked at ({i},{j})");
                }
            }
        }
        let again = apply(&serial);
        let threaded = apply(&CommWorld::threaded());
        for mode in lane_modes() {
            pop_simd::force_mode(Some(mode));
            let forced = apply(&serial);
            pop_simd::force_mode(None);
            for (k, v) in base.iter().enumerate() {
                assert_eq!(
                    v.to_bits(),
                    forced[k].to_bits(),
                    "seed {seed}: {mode:?} at {k}"
                );
            }
        }
        for (k, v) in base.iter().enumerate() {
            assert_eq!(
                v.to_bits(),
                again[k].to_bits(),
                "seed {seed}: repeat at {k}"
            );
            assert_eq!(
                v.to_bits(),
                threaded[k].to_bits(),
                "seed {seed}: threaded at {k}"
            );
        }
    }
}

/// End-to-end on the same masks: MG-preconditioned solves converge and are
/// bitwise identical on the serial, threaded, and ranksim backends.
#[test]
fn mg_preconditioned_solves_identically_on_pathological_masks() {
    for seed in [11u64, 29] {
        let grid = fuzzed_grid(seed);
        let layout = DistLayout::build(&grid, BX, BY);
        let serial = CommWorld::serial();
        let threaded = CommWorld::threaded();
        let op = NinePoint::assemble(&grid, &layout, &serial, 9000.0);
        let mg = BlockMg::with_defaults(&op);
        let rhs = rhs_for(&layout, &op, seed);
        let (bounds, _) = estimate_bounds(&op, &mg, &serial, &LanczosConfig::default());
        let p = Problem { layout, op, rhs };
        for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
            let name = format!("{}+mg fuzz-seed={seed}", kind.name());
            let base = run_world(&serial, &p, &mg, kind);
            assert_eq!(
                base.outcome,
                SolveOutcome::Converged,
                "{name}: serial solve failed on fuzzed mask"
            );
            let t = run_world(&threaded, &p, &mg, kind);
            assert!(t == base, "{name}: threaded backend diverged from serial");
            let r = run_ranks(&p, &mg, kind, 4);
            assert!(r == base, "{name}: ranksim backend diverged from serial");
        }
    }
}

/// One block-EVP apply — packs of sibling tiles and all — equals the scalar
/// reference solve of every tile on its own, bit for bit, over the whole fuzz
/// family: the three
/// engineered masks (marching and band packs, lone tiles, all-land tiles)
/// and the all-banded one, reduced and full systems.
#[test]
fn block_evp_apply_matches_tile_by_tile_solves_on_fuzzed_masks() {
    use pop_core::precond::{tile_block, EvpSubBlock};
    let serial = CommWorld::serial();
    let mut depths: Vec<Vec<f64>> = [11u64, 29, 47].into_iter().map(fuzzed_depth).collect();
    depths.push(all_banded_depth());
    for (case, depth) in depths.into_iter().enumerate() {
        let grid = grid_of(depth);
        let layout = DistLayout::build(&grid, BX, BY);
        let op = NinePoint::assemble(&grid, &layout, &serial, 9000.0);
        let rhs = rhs_for(&layout, &op, case as u64);
        for reduced in [true, false] {
            let evp = BlockEvp::new(&op, 8, reduced);
            // Full and ragged packs across the blocks of a sweep group
            // everywhere; the engineered masks also leave tiles alone.
            let census = evp.census();
            let solved = census.marching.tiles + census.banded.tiles;
            assert!(
                census.packed.tiles > 3 * census.packs
                    && census.packed.tiles < 4 * census.packs
                    && (census.packed.tiles < solved) == (case < 3),
                "case {case}: {census:?}"
            );
            let mut z = DistVec::zeros(&layout);
            evp.apply(&serial, &rhs, &mut z);
            for (b, info) in layout.decomp.blocks.iter().enumerate() {
                for t in tile_block(info.nx, info.ny, 8) {
                    let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
                    let mut psi = Vec::new();
                    for j in t.j0..t.j0 + t.ny {
                        psi.extend_from_slice(&rhs.blocks[b].interior_row(j)[t.i0..t.i0 + t.nx]);
                    }
                    let mut want = vec![0.0; t.nx * t.ny];
                    let land = |k: usize| raw.a0((k % t.nx) as isize, (k / t.nx) as isize) <= 0.0;
                    if !(0..t.nx * t.ny).all(land) {
                        EvpSubBlock::new(&raw, reduced).solve_reference(&psi, &mut want);
                    }
                    for (k, w) in want.iter().enumerate() {
                        let got = z.blocks[b].get(t.i0 + k % t.nx, t.j0 + k / t.nx);
                        assert_eq!(
                            got.to_bits(),
                            w.to_bits(),
                            "case {case} reduced={reduced} block {b} {t:?} point {k}"
                        );
                    }
                }
            }
        }
    }
}

/// The fuzzed mask of seed 29 with a land cell stamped on every third row and
/// column: one inside the corner reach of every tile, so nothing marches.
fn all_banded_depth() -> Vec<f64> {
    let mut depth = fuzzed_depth(29);
    for j in (0..NY).step_by(3) {
        for i in (0..NX).step_by(3) {
            depth[j * NX + i] = 0.0;
        }
    }
    depth
}

/// The band-LU direct solve is the only tile path left standing when land
/// reaches every tile: a fuzzed mask with a land cell stamped on every
/// third row and column puts one inside the corner reach of every tile,
/// ragged 8×2 edge tiles included, so nothing marches. On that operator
/// the three implementations of the band solve — the packed one of the
/// single-RHS apply, the lane-parallel one the batched engine runs (k = 1,
/// 4 and 16: one, one and four lane groups), and `BlockLu`'s scalar
/// substitution — must agree bit for bit, under the startup dispatch and
/// every forced lane mode.
#[test]
fn all_banded_operator_is_bitwise_equal_across_single_batched_and_scalar_paths() {
    let _guard = ModeGuard;
    let grid = grid_of(all_banded_depth());
    let layout = DistLayout::build(&grid, BX, BY);
    let serial = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &serial, 9000.0);
    let evp = BlockEvp::with_defaults(&op);
    let census = evp.census();
    assert_eq!(census.marching.tiles, 0, "{census:?}");
    assert!(
        census.banded.tiles > 20 && census.all_land.tiles > 0,
        "{census:?}"
    );
    // 16×10 blocks are four 8×5 tiles, so nearly every band tile has a
    // sibling: the single-RHS side of this test is the packed band solve.
    assert!(2 * census.packed.tiles > census.banded.tiles, "{census:?}");

    let rhss: Vec<DistVec> = (0..16).map(|l| rhs_for(&layout, &op, 100 + l)).collect();

    // One apply: BlockLu factors the same reduced tile matrices with the
    // same kernel, so with no marching tile the two preconditioners are
    // the same function, bit for bit.
    let lu = BlockLu::new(&op, evp.tile_size(), evp.is_reduced());
    let (mut z_evp, mut z_lu) = (DistVec::zeros(&layout), DistVec::zeros(&layout));
    evp.apply(&serial, &rhss[0], &mut z_evp);
    lu.apply(&serial, &rhss[0], &mut z_lu);
    for (k, (a, b)) in z_evp.to_global().iter().zip(&z_lu.to_global()).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "BlockEvp vs BlockLu at {k}");
    }

    let (bounds, _) = estimate_bounds(&op, &evp, &serial, &LanczosConfig::default());
    let cfg = solver_cfg();
    let singles = |kind: SolverKind| -> Vec<Observables> {
        let mut ws = SolverWorkspace::new();
        rhss.iter()
            .map(|b| {
                let mut x = DistVec::zeros(&layout);
                let st = kind.solve(&op, &evp, &serial, b, &mut x, &cfg, &mut ws);
                observe(&st, &x)
            })
            .collect()
    };
    let batched = |kind: SolverKind, k: usize| -> Vec<Observables> {
        let mut xs: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&layout)).collect();
        let bs: Vec<&DistVec> = rhss[..k].iter().collect();
        let mut x_refs: Vec<&mut DistVec> = xs.iter_mut().collect();
        let mut ws = BatchWorkspace::new();
        let stats = match kind {
            SolverKind::Pcsi(b) => {
                Pcsi::new(b).solve_batch_comm(&op, &evp, &serial, &bs, &mut x_refs, &cfg, &mut ws)
            }
            _ => ChronGear.solve_batch_comm(&op, &evp, &serial, &bs, &mut x_refs, &cfg, &mut ws),
        };
        drop(x_refs);
        stats
            .iter()
            .zip(&xs)
            .map(|(st, x)| observe(st, x))
            .collect()
    };
    for kind in [SolverKind::ChronGear, SolverKind::Pcsi(bounds)] {
        let base = singles(kind);
        for o in &base {
            assert_eq!(o.outcome, SolveOutcome::Converged, "{}", kind.name());
        }
        for forced in startup_then_forced_modes() {
            pop_simd::force_mode(forced);
            let tag = format!("{} forced={forced:?}", kind.name());
            for (l, got) in singles(kind).iter().enumerate() {
                assert_same(&format!("{tag} single rhs {l}"), &base[l], got);
            }
            for k in [1usize, 4, 16] {
                for (l, got) in batched(kind, k).iter().enumerate() {
                    assert_same(&format!("{tag} k={k} lane {l}"), &base[l], got);
                }
            }
        }
        pop_simd::force_mode(None);
    }
}

/// The block-LU oracle against block-EVP on the full (unreduced) system of
/// a land-cut gx1 operator: same tiling, same raw principal submatrices,
/// so the same preconditioner action up to EVP marching round-off.
#[test]
fn block_lu_and_block_evp_agree() {
    let g = Grid::gx1_scaled(6, 40, 36);
    let layout = DistLayout::build(&g, 10, 9);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&g, &layout, &world, 1500.0);
    let lu = BlockLu::new(&op, 9, false);
    let evp = BlockEvp::new(&op, 9, false);

    let mut r = DistVec::zeros(&layout);
    r.fill_with(|i, j| ((i as f64 - 11.5) * 0.2).sin() * ((j as f64) * 0.15).cos());
    let mut z_lu = DistVec::zeros(&layout);
    let mut z_evp = DistVec::zeros(&layout);
    lu.apply(&world, &r, &mut z_lu);
    evp.apply(&world, &r, &mut z_evp);

    let a = z_lu.to_global();
    let b = z_evp.to_global();
    let scale = a.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-30);
    for (x, y) in a.iter().zip(&b) {
        assert!(
            (x - y).abs() < 1e-5 * scale,
            "LU {x} vs EVP {y} (scale {scale})"
        );
    }
}

/// The block-LU oracle writes zero on every land point.
#[test]
fn block_lu_land_outputs_zero() {
    let g = Grid::gx1_scaled(14, 36, 30);
    let layout = DistLayout::build(&g, 12, 10);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&g, &layout, &world, 1500.0);
    let lu = BlockLu::new(&op, 6, true);
    let mut r = DistVec::zeros(&layout);
    r.fill_with(|_, _| 1.0);
    let mut z = DistVec::zeros(&layout);
    lu.apply(&world, &r, &mut z);
    let global = z.to_global();
    for j in 0..g.ny {
        for i in 0..g.nx {
            if !g.is_ocean(i, j) {
                assert_eq!(global[j * g.nx + i], 0.0);
            }
        }
    }
}
