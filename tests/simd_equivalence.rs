//! SIMD dispatch is bitwise invisible to the solvers.
//!
//! The kernel layer (DESIGN.md §9) promises that both lane types — portable
//! `[f64; 4]` lanes and AVX2 intrinsics — compute results *bit-identical*
//! to the scalar references: lane kernels execute the exact scalar
//! operation sequence per output point, with no FMA contraction, no
//! reassociation, and order-sensitive reductions kept scalar everywhere.
//!
//! This suite enforces the promise end to end: every solver ×
//! preconditioner × execution backend combination must produce the same
//! solution bits, iteration count, and residual history on every lane type
//! the machine supports, and the bits of the solver's pre-fusion scalar
//! oracle `common::solve_reference`; below that, each kernel is pinned to its named
//! reference. The right-hand sides are seeded pseudo-random fields over a
//! land-masked grid, so the guarantee cannot lean on smooth data.

use pop_baro::comm::{masked_block_dot, BlockVec};
use pop_baro::prelude::*;
use pop_core::precond::{EvpScratch, EvpSubBlock};
use pop_simd::SimdMode;
use pop_stencil::LocalStencil;

mod common;
use common::fuzz;
use common::{
    assert_matches_oracle, assert_same, lane_modes, noise, problem, run_ranks, run_reference,
    run_world, ModeGuard,
};

/// The tentpole guarantee: both solvers × {diag, EVP} × three execution
/// backends (serial, thread pool, ranksim message passing), every lane mode
/// against the portable run — all observables bitwise equal — and every
/// mode's serial run against the reference solve.
///
/// `force_mode` is process-global, so the whole sweep lives in one `#[test]`;
/// the other tests in this binary pass dispatch modes explicitly and are
/// unaffected by the override.
#[test]
fn dispatch_modes_are_bitwise_equivalent_end_to_end() {
    let _guard = ModeGuard;
    let p = problem(2015);
    let shared = CommWorld::serial();
    for (pname, pre) in [
        ("diag", &Diagonal::new(&p.op) as &dyn Preconditioner),
        ("evp", &BlockEvp::with_defaults(&p.op)),
    ] {
        // One set of Chebyshev bounds per preconditioner, reused by every
        // arm, so P-CSI runs identical coefficients under each mode. (The
        // Lanczos estimate itself is also dispatch-invariant, but pinning
        // the inputs keeps this test about the solve.)
        let (bounds, _) = estimate_bounds(&p.op, pre, &shared, &LanczosConfig::default());
        let kinds = [SolverKind::ChronGear, SolverKind::Pcsi(bounds)];
        for kind in kinds {
            let oracle = run_reference(&p, pre, kind);
            assert_eq!(
                oracle.outcome,
                SolveOutcome::Converged,
                "{}+{pname}: unfused oracle did not converge",
                kind.name()
            );
            let mut base = None;
            for mode in lane_modes() {
                pop_simd::force_mode(Some(mode));
                let tag =
                    |backend: &str| format!("{}+{pname} {backend} {}", kind.name(), mode.name());
                let got = [
                    ("serial", run_world(&CommWorld::serial(), &p, pre, kind)),
                    ("threaded", run_world(&CommWorld::threaded(), &p, pre, kind)),
                    ("ranksim", run_ranks(&p, pre, kind, 3)),
                ];
                assert_matches_oracle(&tag("serial"), &oracle, &got[0].1);
                // The first mode is the portable run every other is held to.
                match &base {
                    None => base = Some(got),
                    Some(portable) => {
                        for ((backend, want), (_, run)) in portable.iter().zip(&got) {
                            assert_same(&tag(backend), want, run);
                        }
                    }
                }
            }
            pop_simd::force_mode(None);
        }
    }
}

fn tile_rhs(n: usize) -> Vec<f64> {
    (0..n)
        .map(|k| ((k.wrapping_mul(2654435761)) % 1000) as f64 / 500.0 - 1.0)
        .collect()
}

/// Solve one EVP tile under an explicit mode and return the solution bits.
fn tile_bits(sub: &EvpSubBlock, mode: SimdMode, psi: &[f64], scratch: &mut EvpScratch) -> Vec<u64> {
    let mut x = vec![0.0; psi.len()];
    sub.solve_mode(mode, psi, &mut x, scratch);
    x.iter().map(|v| v.to_bits()).collect()
}

/// The scalar reference solve of the tile, as bits: what every mode must
/// reproduce.
fn reference_bits(sub: &EvpSubBlock, psi: &[f64]) -> Vec<u64> {
    let mut x = vec![0.0; psi.len()];
    sub.solve_reference(psi, &mut x);
    x.iter().map(|v| v.to_bits()).collect()
}

/// A land-touching tile takes the band-LU fallback; that path must also be
/// identical under every dispatch mode — the lanes run the scalar
/// substitution of `BandLu::solve_in_place`, one tile per lane — including
/// exact zeros on land outputs.
#[test]
fn evp_lu_fallback_tile_is_bitwise_mode_invariant() {
    let mut raw = LocalStencil::reference(8, 8, 90.0, 3.0);
    // Land points and their dead corners, as in the core land-hole test.
    for (i, j) in [(3, 3), (3, 4), (6, 1)] {
        raw.set(i, j, 0.0, 0.0, 0.0, 0.0);
    }
    for (i, j) in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 0), (5, 1), (6, 0)] {
        raw.set_ane(i, j, 0.0);
    }
    let mut scratch = EvpScratch::default();
    for reduced in [false, true] {
        let sub = EvpSubBlock::new(&raw, reduced);
        assert!(
            !sub.uses_marching(),
            "land tile must take the band-LU fallback"
        );
        let psi = tile_rhs(64);
        let base = reference_bits(&sub, &psi);
        assert_eq!(base[3 * 8 + 3], 0.0f64.to_bits(), "land output zeroed");
        for mode in lane_modes() {
            assert_eq!(
                tile_bits(&sub, mode, &psi, &mut scratch),
                base,
                "LU fallback differs under {} dispatch (reduced={reduced})",
                mode.name()
            );
        }
    }
}

/// The marching path at tile level, reduced and full systems, explicit
/// modes — a focused diagnostic below the full solver sweep. The synthetic
/// reference tiles have no axis couplings (`AN = AE = 0`), so the tiles of a
/// real operator ride along: only they make the full system's three extra
/// g-pass terms — and the order they are summed in — count.
#[test]
fn evp_marching_tile_is_bitwise_mode_invariant() {
    let mut tiles: Vec<(String, LocalStencil)> = [(8usize, 5.0), (12, 80.0)]
        .into_iter()
        .map(|(n, phi)| {
            (
                format!("reference {n}x{n} phi={phi}"),
                LocalStencil::reference(n, n, 120.0, phi),
            )
        })
        .collect();
    let grid = Grid::gx1_scaled(2015, 96, 80);
    let layout = DistLayout::build(&grid, 24, 20);
    let op = NinePoint::assemble(&grid, &layout, &CommWorld::serial(), 1100.0);
    for (b, info) in layout.decomp.blocks.iter().enumerate() {
        for t in pop_core::precond::tile_block(info.nx, info.ny, 8) {
            let raw = op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
            if EvpSubBlock::new(&raw, false).uses_marching() {
                tiles.push((format!("block {b} {t:?}"), raw));
            }
        }
    }
    assert!(tiles.len() > 20, "only {} marching tiles", tiles.len());
    let mut scratch = EvpScratch::default();
    for (name, raw) in &tiles {
        for reduced in [true, false] {
            let sub = EvpSubBlock::new(raw, reduced);
            assert!(sub.uses_marching(), "{name} (reduced={reduced}) must march");
            let psi = tile_rhs(raw.nx * raw.ny);
            let base = reference_bits(&sub, &psi);
            for mode in lane_modes() {
                assert_eq!(
                    tile_bits(&sub, mode, &psi, &mut scratch),
                    base,
                    "marching tile {name} (reduced={reduced}) differs under {}",
                    mode.name()
                );
            }
        }
    }
}

/// A speckled-coast operator in 13×7 blocks (`nx % 4 ≠ 0`: every kernel row
/// has a lane body and a scalar tail) in which block (2, 2) is entirely land —
/// the decomposition is taken from an all-ocean grid of the same size, so
/// land-block elimination does not drop it — plus a halo-current operand and
/// a second field.
fn dots_case() -> (NinePoint, DistVec, DistVec) {
    let mut depth = fuzz::fuzzed_depth(29);
    for j in 14..21 {
        depth[j * fuzz::NX + 26..j * fuzz::NX + 39].fill(0.0);
    }
    let grid = fuzz::grid_of(depth);
    let every_block = Decomposition::new(&fuzz::grid_of(vec![100.0; fuzz::NX * fuzz::NY]), 13, 7);
    let layout = DistLayout::new(&grid, every_block, 2);
    let world = CommWorld::serial();
    let op = NinePoint::assemble(&grid, &layout, &world, 9000.0);
    let mut x = DistVec::zeros(&layout);
    x.fill_with(|i, j| noise(1, i, j));
    world.halo_update(&mut x);
    let mut r = DistVec::zeros(&layout);
    r.fill_with(|i, j| noise(2, i, j));
    (op, x, r)
}

/// The apply-with-dots kernel is `apply_reference` plus two
/// `masked_block_dot` passes, bit for bit, under every dispatch mode: the
/// stored block, `Σ r·x` and `Σ y·x` — on ragged blocks, an all-land block
/// and coast-heavy ones.
#[test]
fn apply_with_dots_matches_apply_plus_two_dots_in_every_mode() {
    let (op, x, r) = dots_case();
    let layout = &op.layout;
    let ocean = &layout.ocean_per_block;
    assert_eq!(
        ocean[2 * layout.decomp.mx + 2],
        0,
        "block (2, 2) must be all land"
    );
    assert!(
        ocean.iter().any(|&n| n > 0 && n < 13 * 7 / 2),
        "no coast-heavy block"
    );
    // Four block columns are 13 wide, the ragged fifth is 12 (no tail).
    assert!(layout
        .decomp
        .blocks
        .iter()
        .all(|b| b.nx == 13 || b.nx == 12));
    let mut want_y = DistVec::zeros(layout);
    op.apply_reference(&CommWorld::serial(), &x, &mut want_y);
    for (b, info) in layout.decomp.blocks.iter().enumerate() {
        let (mask, xb, rb) = (&layout.masks[b], &x.blocks[b], &r.blocks[b]);
        let want_y = &want_y.blocks[b];
        let fresh = || {
            let mut y = BlockVec::zeros(info.nx, info.ny, layout.halo);
            y.fill(f64::NAN); // prove every interior point is written
            y
        };
        let bits = |y: &BlockVec| -> Vec<u64> {
            (0..y.ny)
                .flat_map(|j| y.interior_row(j).iter().map(|v| v.to_bits()))
                .collect()
        };
        let want = [
            masked_block_dot(rb, xb, mask).to_bits(),
            masked_block_dot(want_y, xb, mask).to_bits(),
        ];
        for mode in lane_modes() {
            let mut y = fresh();
            let got = op.apply_block_dots_into_mode(mode, b, xb, &mut y, rb, mask);
            assert_eq!(bits(&y), bits(want_y), "block {b} {}: y", mode.name());
            assert_eq!(
                got.map(f64::to_bits),
                want,
                "block {b} {}: dots",
                mode.name()
            );
        }
    }
}

/// The kernel indexes `r` through `x`'s shape with unchecked windows, so a
/// mis-shaped `r` must be refused in release builds too (CI runs this suite
/// under `--release`).
#[test]
#[should_panic(expected = "stencil operand `r` shape mismatch")]
fn apply_with_dots_rejects_a_mis_shaped_r() {
    let (op, x, _) = dots_case();
    let xb = &x.blocks[0];
    let mut y = xb.clone();
    let r = BlockVec::zeros(xb.nx, xb.ny + 1, xb.halo);
    op.apply_block_dots_into(0, xb, &mut y, &r, &op.layout.masks[0]);
}
