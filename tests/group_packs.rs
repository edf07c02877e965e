//! Packs across blocks stay invisible.
//!
//! Every fused sweep hands its kernel a sweep group — up to four
//! consecutive same-shape blocks (DESIGN.md §7) — and block-EVP packs
//! same-shape, same-class tiles across the blocks of a group, one tile per
//! lane (§9). Each lane runs its own tile's scalar sequence, so which pack
//! or lane a tile rides must never show. This suite holds that on the
//! layouts where grouping changes the packs: the gyre's 16×12 blocks, both
//! serve operators' one-tile 8×8 blocks, rank-sized 8×6 blocks, a grid
//! whose east-edge blocks change shape mid-row (cutting a group short), and
//! coastal blocks holding all-land tiles. On each:
//!
//! - one apply — whole groups, and every block alone with its pack-mates'
//!   lanes idle — equals `EvpSubBlock::solve_reference` tile by tile;
//! - P-CSI+EVP and ChronGear+EVP solves — serial, threaded, and on 16
//!   simulated ranks whose Hilbert segments cut groups, at width 1 and in a
//!   k = 5 batch — equal the reference solve bit for bit, per right-hand
//!   side.

mod common;
use common::{assert_matches_oracle, observe, Observables};
use pop_baro::prelude::*;
use pop_baro::ranksim::{RankSimConfig, RankWorld, ZeroCost};
use pop_core::precond::{tile_block, EvpSubBlock};
use pop_core::solvers::{BatchWorkspace, SolverWorkspace};
use std::sync::Arc;

/// Right-hand sides per layout: the batch width.
const K: usize = 5;
/// Simulated ranks.
const RANKS: usize = 16;

fn cfg() -> SolverConfig {
    SolverConfig {
        tol: 1e-10,
        max_iters: 5000,
        check_every: 10,
        ..SolverConfig::default()
    }
}

struct Layout {
    name: &'static str,
    op: NinePoint,
    evp: BlockEvp,
}

/// `(name, grid, block shape, τ)`.
fn layouts() -> Vec<Layout> {
    let specs = [
        (
            "gyre 16x12",
            Grid::idealized_basin(64, 48, 500.0, 2.0e4),
            (16, 12),
            2400.0,
        ),
        (
            "serve-0 8x8",
            Grid::gx1_scaled(2015, 96, 80),
            (8, 8),
            4000.0,
        ),
        (
            "serve-1 8x8",
            Grid::gx1_scaled(2016, 96, 80),
            (8, 8),
            5500.0,
        ),
        ("ranks 8x6", Grid::gx1_scaled(2015, 96, 72), (8, 6), 2700.0),
        (
            "ragged 14x10",
            Grid::gx01_scaled(11, 90, 60),
            (14, 10),
            9000.0,
        ),
        (
            "coastal 24x20",
            Grid::gx1_scaled(2015, 96, 80),
            (24, 20),
            1100.0,
        ),
    ];
    specs
        .into_iter()
        .map(|(name, g, (bx, by), tau)| {
            let layout = DistLayout::build(&g, bx, by);
            let op = NinePoint::assemble(&g, &layout, &CommWorld::serial(), tau);
            let evp = BlockEvp::with_defaults(&op);
            Layout { name, op, evp }
        })
        .collect()
}

/// Tile solves per apply if packs formed only within a block: per block,
/// a quarter (rounded up) of each shape-and-class's tiles.
fn blockwise_solves(l: &Layout) -> usize {
    let layout = &l.op.layout;
    let mut solves = 0;
    for (b, info) in layout.decomp.blocks.iter().enumerate() {
        let mut classes: Vec<((usize, usize, bool), usize)> = Vec::new();
        for t in tile_block(info.nx, info.ny, l.evp.tile_size()) {
            let ocean =
                (t.j0..t.j0 + t.ny).any(|j| (t.i0..t.i0 + t.nx).any(|i| layout.is_ocean(b, i, j)));
            if !ocean {
                continue;
            }
            let raw = l.op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
            let key = (
                t.nx,
                t.ny,
                EvpSubBlock::new(&raw, l.evp.is_reduced()).uses_marching(),
            );
            match classes.iter_mut().find(|(k, _)| *k == key) {
                Some((_, n)) => *n += 1,
                None => classes.push((key, 1)),
            }
        }
        solves += classes.iter().map(|(_, n)| n.div_ceil(4)).sum::<usize>();
    }
    solves
}

/// Grouping changes these layouts' packs: they take fewer tile solves than
/// packing within each block would. Where it matters, the layout also
/// shows what it is there for.
fn assert_grouping_shows(l: &Layout) {
    let layout = &l.op.layout;
    let c = l.evp.census();
    assert!(c.lanes / 4 < blockwise_solves(l), "{}: {c:?}", l.name);
    match l.name {
        "ragged 14x10" => {
            // An east-edge block opens a group of its own mid-row.
            assert!(
                layout
                    .groups
                    .iter()
                    .any(|r| r.len() < 4 && r.end < layout.n_blocks()),
                "{}: no group cut short",
                l.name
            );
        }
        "coastal 24x20" => assert!(c.all_land.tiles > 0, "{}: {c:?}", l.name),
        _ => {}
    }
}

/// One apply on `world`, and block by block, against the scalar reference
/// solve of every tile.
fn assert_apply_matches_reference(l: &Layout, world: &CommWorld) {
    let layout = &l.op.layout;
    let mut r = DistVec::zeros(layout);
    r.fill_with(|i, j| ((i * 3 + j * 5) as f64 * 0.1).sin());
    let mut z = DistVec::zeros(layout);
    l.evp.apply(world, &r, &mut z);
    let mut alone = DistVec::zeros(layout);
    for (b, zb) in alone.blocks.iter_mut().enumerate() {
        l.evp.apply_block(b, &r.blocks[b], zb);
    }
    for (b, info) in layout.decomp.blocks.iter().enumerate() {
        for t in tile_block(info.nx, info.ny, l.evp.tile_size()) {
            let raw = l.op.extract_local(b, t.i0, t.j0, t.nx, t.ny);
            let mut want = vec![0.0; t.nx * t.ny];
            let land = |k: usize| raw.a0((k % t.nx) as isize, (k / t.nx) as isize) <= 0.0;
            if !(0..t.nx * t.ny).all(land) {
                let psi: Vec<f64> = (t.j0..t.j0 + t.ny)
                    .flat_map(|j| r.blocks[b].interior_row(j)[t.i0..t.i0 + t.nx].to_vec())
                    .collect();
                EvpSubBlock::new(&raw, l.evp.is_reduced()).solve_reference(&psi, &mut want);
            }
            for (k, w) in want.iter().enumerate() {
                let (i, j) = (t.i0 + k % t.nx, t.j0 + k / t.nx);
                for (how, v) in [("grouped", &z), ("alone", &alone)] {
                    let got = v.blocks[b].get(i, j);
                    assert_eq!(
                        got.to_bits(),
                        w.to_bits(),
                        "{} {how}: block {b} {t:?} point {k}",
                        l.name
                    );
                }
            }
        }
    }
}

/// The first `k` right-hand sides solved on a shared-memory world: one
/// at a time at `k = 1`, else as one batch.
fn solve_shared(
    l: &Layout,
    kind: SolverKind,
    world: &CommWorld,
    bs: &[DistVec],
    k: usize,
) -> Vec<Observables> {
    let layout = &l.op.layout;
    if k == 1 {
        let mut x = DistVec::zeros(layout);
        let mut ws = SolverWorkspace::new();
        let st = kind.solve(&l.op, &l.evp, world, &bs[0], &mut x, &cfg(), &mut ws);
        return vec![observe(&st, &x)];
    }
    let mut xs: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(layout)).collect();
    let b_refs: Vec<&DistVec> = bs[..k].iter().collect();
    let mut x_refs: Vec<&mut DistVec> = xs.iter_mut().collect();
    let mut ws = BatchWorkspace::new();
    let stats = kind.solve_batch(&l.op, &l.evp, world, &b_refs, &mut x_refs, &cfg(), &mut ws);
    drop(x_refs);
    stats
        .iter()
        .zip(&xs)
        .map(|(st, x)| observe(st, x))
        .collect()
}

/// The same on `RANKS` simulated ranks, solutions gathered back.
fn solve_ranks(
    l: &Layout,
    kind: SolverKind,
    world: &RankWorld,
    bs: &[DistVec],
    k: usize,
) -> Vec<Observables> {
    let layout = &l.op.layout;
    let x0 = DistVec::zeros(layout);
    let reports = world.run(|comm| {
        let rbs: Vec<_> = bs[..k].iter().map(|b| comm.import(b)).collect();
        let mut rxs: Vec<_> = rbs.iter().map(|_| comm.import(&x0)).collect();
        let stats = if k == 1 {
            let mut ws = SolverWorkspace::new();
            vec![kind.solve(&l.op, &l.evp, comm, &rbs[0], &mut rxs[0], &cfg(), &mut ws)]
        } else {
            let b_refs: Vec<_> = rbs.iter().collect();
            let mut x_refs: Vec<_> = rxs.iter_mut().collect();
            let mut ws = BatchWorkspace::new();
            kind.solve_batch(&l.op, &l.evp, comm, &b_refs, &mut x_refs, &cfg(), &mut ws)
        };
        let blocks: Vec<_> = rxs.into_iter().map(|x| x.into_blocks()).collect();
        (stats, blocks)
    });
    let mut xs: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(layout)).collect();
    let mut stats = None;
    for rep in reports {
        let (st, blocks) = rep.result;
        stats.get_or_insert(st);
        for (x, owned) in xs.iter_mut().zip(blocks) {
            for (gb, blk) in owned {
                x.blocks[gb] = blk;
            }
        }
    }
    let stats = stats.expect("at least one rank");
    stats
        .iter()
        .zip(&xs)
        .map(|(st, x)| observe(st, x))
        .collect()
}

#[test]
fn grouped_packs_are_bitwise_invisible_everywhere() {
    let (serial, threaded) = (CommWorld::serial(), CommWorld::threaded());
    for l in layouts() {
        assert_grouping_shows(&l);
        assert_apply_matches_reference(&l, &serial);
        assert_apply_matches_reference(&l, &threaded);

        let layout = &l.op.layout;
        let ranks = RankWorld::new(layout, RANKS, Arc::new(ZeroCost), RankSimConfig::default());
        let rank_of = &ranks.assignment().rank_of_block;
        assert!(
            layout
                .groups
                .iter()
                .any(|g| g.clone().any(|b| rank_of[b] != rank_of[g.start])),
            "{}: no group straddles two ranks",
            l.name
        );

        let (bounds, _) = estimate_bounds(&l.op, &l.evp, &serial, &LanczosConfig::default());
        let bs: Vec<DistVec> = (0..K)
            .map(|s| common::rhs_in_range(&l.op, 0x9a0c_0000 + s as u64))
            .collect();
        for kind in [SolverKind::Pcsi(bounds), SolverKind::ChronGear] {
            let oracles: Vec<Observables> = bs
                .iter()
                .map(|b| {
                    let mut x = DistVec::zeros(layout);
                    let st =
                        common::solve_reference(kind, &l.op, &l.evp, &serial, b, &mut x, &cfg());
                    assert_eq!(st.outcome, SolveOutcome::Converged, "{}", l.name);
                    observe(&st, &x)
                })
                .collect();
            for k in [1, K] {
                let runs = [
                    ("serial", solve_shared(&l, kind, &serial, &bs, k)),
                    ("threaded", solve_shared(&l, kind, &threaded, &bs, k)),
                    ("16 ranks", solve_ranks(&l, kind, &ranks, &bs, k)),
                ];
                for (wname, got) in runs {
                    assert_eq!(got.len(), k);
                    for (s, g) in got.iter().enumerate() {
                        let tag = format!("{} {} {wname} k={k} rhs {s}", l.name, kind.name());
                        assert_matches_oracle(&tag, &oracles[s], g);
                    }
                }
            }
        }
    }
}
