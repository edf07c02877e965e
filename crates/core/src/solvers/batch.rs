//! Batched multi-RHS solve engine (DESIGN.md §12).
//!
//! POP calls the barotropic solver once per time step, but ensemble runs,
//! data-assimilation increments, and multi-tracer splittings all solve the
//! *same* operator against several right-hand sides. This module advances
//! `k ≤ 16` such systems in lockstep through the fused sweeps: the four
//! SIMD lanes of a [`MultiBlockVec`] carry four independent RHS vectors,
//! so the 9-point stencil coefficients and the EVP influence matrices are
//! loaded **once per block** and amortised across lanes, and every
//! per-iteration reduction carries all `k` residuals in a **single**
//! allreduce message — P-CSI's per-iteration allreduce count stays flat
//! in `k`.
//!
//! The engine's contract is bitwise: each RHS follows exactly the floating
//! point trajectory its single-RHS [`super::CommSolver::solve_comm`] would
//! have produced, in every dispatch mode (`tests/batch_equivalence.rs`).
//! That holds because every primitive underneath is lane-pinned to its
//! single-RHS image (stencil multi kernels, `apply_block_multi`,
//! [`masked_dot_multi`]) and the pointwise recurrence updates here repeat
//! the scalar loops' operation order per lane with per-lane scalar
//! broadcasts.
//!
//! Lanes retire independently: when one RHS converges at a check, its
//! solution is gathered out, its [`SolveStats`] are frozen (per-RHS
//! iteration counts, not the batch maximum), and its lane keeps computing
//! harmless garbage that no reduction slot or other lane ever reads.
//! Per-lane recovery restarts re-run the solver's single-RHS setup through
//! a staging vector and scatter the result back into the lane, so a
//! restarted RHS stays on its single-RHS trajectory too. Ragged batches
//! (`k` not a multiple of [`LANES`]) fill the tail lanes with copies of
//! lane 0's system; the shadow lanes are never assessed, gathered, or
//! reported.

use super::{
    Check, ChronGear, ClassicPcg, CommSolver, LinearSolver, Pcsi, PipelinedCg, SolveCtl,
    SolveOutcome, SolveStats, SolverConfig, SolverWorkspace,
};
use crate::precond::Preconditioner;
use pop_comm::{
    masked_dot_multi, BlockVec, CommVec, Communicator, MultiBlockVec, StatsSnapshot,
    MAX_SWEEP_PARTIALS,
};
use pop_obs::ObsSink;
use pop_simd::LANES;
use pop_stencil::NinePoint;
use std::sync::Arc;

/// Widest batch the engine accepts: four lane groups. The binding
/// constraint is the fused reduction row — PipeCG carries three scalars
/// per RHS and `3 × MAX_BATCH ≤ MAX_SWEEP_PARTIALS` must hold so one
/// allreduce still fits every lane's partials.
pub const MAX_BATCH: usize = 16;
const _: () = assert!(3 * MAX_BATCH <= MAX_SWEEP_PARTIALS);

const ZEROS: [f64; MAX_SWEEP_PARTIALS] = [0.0; MAX_SWEEP_PARTIALS];

// ---------------------------------------------------------------------------
// Workspace
// ---------------------------------------------------------------------------

/// Reusable arena for the batched loops: a [`SolverWorkspace`] of `k`-wide
/// vectors plus a single-RHS one used as staging space by the per-lane
/// restart path. Steady-state reuse across solves on one layout and width
/// performs zero heap allocation.
pub struct BatchWorkspace<C: Communicator> {
    multis: SolverWorkspace<C::Vec<MultiBlockVec>>,
    stage: SolverWorkspace<C::Vec<BlockVec>>,
}

impl<C: Communicator> Default for BatchWorkspace<C> {
    fn default() -> Self {
        BatchWorkspace {
            multis: SolverWorkspace::default(),
            stage: SolverWorkspace::default(),
        }
    }
}

impl<C: Communicator> BatchWorkspace<C> {
    pub fn new() -> Self {
        Self::default()
    }
}

// ---------------------------------------------------------------------------
// Lane plumbing
// ---------------------------------------------------------------------------

/// Load each lane `l < srcs.len()` from `srcs[l]`; ragged tail lanes get
/// copies of `srcs[0]` so they follow a real (finite) trajectory instead
/// of holding zeros that could reach a division.
fn fill_lanes<C: Communicator>(
    comm: &C,
    mv: &mut C::Vec<MultiBlockVec>,
    srcs: &[&C::Vec<BlockVec>],
) {
    let slots = mv.width();
    let _ = comm.for_each_block_fused([mv], |gb, [mb]| {
        for slot in 0..slots {
            let src = if slot < srcs.len() {
                srcs[slot]
            } else {
                srcs[0]
            };
            mb.load_lane(slot / LANES, slot % LANES, src.block(gb));
        }
        ZEROS
    });
}

/// Copy lane `slot` of `mv` out into a single-RHS vector (full padded
/// storage, halo included). The dropped sweep handle means no reduction is
/// consumed and nothing global is counted.
fn gather_lane<C: Communicator>(
    comm: &C,
    mv: &C::Vec<MultiBlockVec>,
    slot: usize,
    dst: &mut C::Vec<BlockVec>,
) {
    let _ = comm.for_each_block_fused([dst], |gb, [db]| {
        mv.block(gb).store_lane(slot / LANES, slot % LANES, db);
        ZEROS
    });
}

/// Copy a finished lane's answer out: its last good snapshot if the solve
/// diverged, its iterate otherwise.
fn gather_answer<C: Communicator>(
    comm: &C,
    outcome: SolveOutcome,
    mx: &C::Vec<MultiBlockVec>,
    mxg: &C::Vec<MultiBlockVec>,
    slot: usize,
    dst: &mut C::Vec<BlockVec>,
) {
    let from = if outcome == SolveOutcome::Diverged {
        mxg
    } else {
        mx
    };
    gather_lane(comm, from, slot, dst);
}

/// Copy a single-RHS vector into lane `slot` of `mv` (full padded storage).
fn scatter_lane<C: Communicator>(
    comm: &C,
    src: &C::Vec<BlockVec>,
    mv: &mut C::Vec<MultiBlockVec>,
    slot: usize,
) {
    let _ = comm.for_each_block_fused([mv], |gb, [mb]| {
        mb.load_lane(slot / LANES, slot % LANES, src.block(gb));
        ZEROS
    });
}

/// Flat index range of lane-group `g`'s padded storage in a multi-tile.
#[inline]
fn group_range(mb: &MultiBlockVec, g: usize) -> std::ops::Range<usize> {
    let glen = mb.rows() * mb.stride() * LANES;
    g * glen..(g + 1) * glen
}

/// Copy one lane between two multi-tiles of identical shape.
fn lane_copy_block(src: &MultiBlockVec, dst: &mut MultiBlockVec, slot: usize) {
    let (g, lane) = (slot / LANES, slot % LANES);
    let r = group_range(dst, g);
    let s = &src.raw()[r.clone()];
    let d = &mut dst.raw_mut()[r];
    let mut i = lane;
    while i < d.len() {
        d[i] = s[i];
        i += LANES;
    }
}

/// Does every value of lane `slot` in this tile (halo included) stay
/// finite? The lane image of `snapshot_vec`'s per-block guard.
fn lane_finite_block(src: &MultiBlockVec, slot: usize) -> bool {
    let (g, lane) = (slot / LANES, slot % LANES);
    let s = &src.raw()[group_range(src, g)];
    let mut i = lane;
    while i < s.len() {
        if !s[i].is_finite() {
            return false;
        }
        i += LANES;
    }
    true
}

/// The lane image of `snapshot_vec`: refresh the listed lanes of the
/// snapshot, per block, skipping any (lane, block) pair holding a
/// non-finite value so restarts always restore a finite field.
fn snapshot_lanes<C: Communicator>(
    comm: &C,
    src: &C::Vec<MultiBlockVec>,
    dst: &mut C::Vec<MultiBlockVec>,
    slots: &[usize],
) {
    if slots.is_empty() {
        return;
    }
    let _ = comm.for_each_block_fused([dst], |gb, [db]| {
        let sb = src.block(gb);
        for &slot in slots {
            if lane_finite_block(sb, slot) {
                lane_copy_block(sb, db, slot);
            }
        }
        ZEROS
    });
}

/// Zero the listed lanes of `mv` (interior and halo), the lane image of
/// `zero_fill` on a single-RHS vector.
fn zero_lanes<C: Communicator>(comm: &C, mv: &mut C::Vec<MultiBlockVec>, slots: &[usize]) {
    if slots.is_empty() {
        return;
    }
    let _ = comm.for_each_block_fused([mv], |_gb, [db]| {
        for &slot in slots {
            let (g, lane) = (slot / LANES, slot % LANES);
            let r = group_range(db, g);
            let d = &mut db.raw_mut()[r];
            let mut i = lane;
            while i < d.len() {
                d[i] = 0.0;
                i += LANES;
            }
        }
        ZEROS
    });
}

/// Per-lane `‖b‖₂` with the same `1e-300` floor as `rhs_norm`, from one
/// fused multi sweep and ONE reduction carrying all `k` norms. Bitwise
/// equal per lane to `rhs_norm` (`masked_dot_multi` is lane-pinned to the
/// skip-accumulate block dot and the fold order over blocks is identical).
fn rhs_norms<C: Communicator>(
    comm: &C,
    mb: &mut C::Vec<MultiBlockVec>,
    masks: &[Vec<u8>],
    slots: usize,
    k: usize,
) -> Vec<f64> {
    let sweep = comm.for_each_block_fused([mb], |gb, [bb]| {
        let mut p = ZEROS;
        masked_dot_multi(bb, bb, &masks[gb], &mut p[..slots]);
        p
    });
    let red = comm.reduce_sweep(&sweep, slots as u64);
    (0..k).map(|l| red[l].sqrt().max(1e-300)).collect()
}

// ---------------------------------------------------------------------------
// Pointwise lane kernels
// ---------------------------------------------------------------------------
//
// Each kernel repeats the scalar recurrence's exact per-point operation
// order in every lane, with per-lane scalars from slot arrays, over the
// tiles' interior lane rows zipped point by point. Plain `f64` arithmetic
// in every dispatch mode: a lanewise multiply-add chain has one possible
// operation sequence, so there is nothing mode-dependent to mirror (same
// argument as the diagonal preconditioner's fused kernel). Tiles of
// different shapes would zip short, so the shapes are compared up front.
// (One fused pass per point, not one pass per recurrence: a row at a time
// through two-operand `y ← x + b·y` / `y ← y + a·x` updates was tried and
// measured slower — EXPERIMENTS.md "PR 24".)

/// Lane group `g`'s scalars out of a `slots`-long per-RHS array.
#[inline]
fn lane_scalars(a: &[f64], g: usize) -> [f64; LANES] {
    std::array::from_fn(|l| a[g * LANES + l])
}

/// The points of interior row `j` of lane group `g`, `LANES` values each.
#[inline]
fn points(t: &MultiBlockVec, g: usize, j: usize) -> std::slice::ChunksExact<'_, f64> {
    t.interior_lane_row(g, j).chunks_exact(LANES)
}

/// Mutable [`points`].
#[inline]
fn points_mut(t: &mut MultiBlockVec, g: usize, j: usize) -> std::slice::ChunksExactMut<'_, f64> {
    t.interior_lane_row_mut(g, j).chunks_exact_mut(LANES)
}

#[inline]
fn assert_same_shape(a: &MultiBlockVec, others: &[&MultiBlockVec]) {
    for b in others {
        assert!(
            (a.nx, a.ny, a.groups()) == (b.nx, b.ny, b.groups()),
            "batched tiles differ in shape"
        );
    }
}

/// P-CSI setup update, per lane: `d = γ⁻¹ z ; Δx = d ; x += d`.
fn csi_setup_block(
    zb: &MultiBlockVec,
    dxb: &mut MultiBlockVec,
    xb: &mut MultiBlockVec,
    inv_gamma: f64,
) {
    assert_same_shape(zb, &[dxb, xb]);
    for g in 0..zb.groups() {
        for j in 0..zb.ny {
            let rows = points(zb, g, j)
                .zip(points_mut(dxb, g, j))
                .zip(points_mut(xb, g, j));
            for ((z, dx), x) in rows {
                for l in 0..LANES {
                    let d = z[l] * inv_gamma;
                    dx[l] = d;
                    x[l] += d;
                }
            }
        }
    }
}

/// P-CSI iterate update, per lane: `d = c·Δx + ω·z ; Δx = d ; x += d` with
/// per-lane `ω`, `c` (each lane sits at its own recurrence depth after a
/// restart).
fn csi_update_block(
    zb: &MultiBlockVec,
    dxb: &mut MultiBlockVec,
    xb: &mut MultiBlockVec,
    omega: &[f64],
    c: &[f64],
) {
    assert_same_shape(zb, &[dxb, xb]);
    for g in 0..zb.groups() {
        let (ov, cv) = (lane_scalars(omega, g), lane_scalars(c, g));
        for j in 0..zb.ny {
            let rows = points(zb, g, j)
                .zip(points_mut(dxb, g, j))
                .zip(points_mut(xb, g, j));
            for ((z, dx), x) in rows {
                for l in 0..LANES {
                    let d = dx[l] * cv[l] + ov[l] * z[l];
                    dx[l] = d;
                    x[l] += d;
                }
            }
        }
    }
}

/// ChronGear's four fused recurrences, per lane with per-lane scalars:
/// `s = z + βs ; p = Az + βp ; x += αs ; r += (−α)p`.
#[allow(clippy::too_many_arguments)]
fn chrongear_update_block(
    zb: &MultiBlockVec,
    azb: &MultiBlockVec,
    sb: &mut MultiBlockVec,
    pb: &mut MultiBlockVec,
    xb: &mut MultiBlockVec,
    rb: &mut MultiBlockVec,
    beta: &[f64],
    alpha: &[f64],
    nalpha: &[f64],
) {
    assert_same_shape(zb, &[azb, sb, pb, xb, rb]);
    for g in 0..zb.groups() {
        let bv = lane_scalars(beta, g);
        let (av, nav) = (lane_scalars(alpha, g), lane_scalars(nalpha, g));
        for j in 0..zb.ny {
            let rows = points(zb, g, j)
                .zip(points(azb, g, j))
                .zip(points_mut(sb, g, j))
                .zip(points_mut(pb, g, j))
                .zip(points_mut(xb, g, j))
                .zip(points_mut(rb, g, j));
            for (((((z, az), s), p), x), r) in rows {
                for l in 0..LANES {
                    let sv = z[l] + bv[l] * s[l];
                    let pv = az[l] + bv[l] * p[l];
                    s[l] = sv;
                    p[l] = pv;
                    x[l] += av[l] * sv;
                    r[l] += nav[l] * pv;
                }
            }
        }
    }
}

/// Classic PCG's iterate update, per lane: `x += αp ; r += (−α)Ap`.
fn pcg_xr_block(
    pb: &MultiBlockVec,
    apb: &MultiBlockVec,
    xb: &mut MultiBlockVec,
    rb: &mut MultiBlockVec,
    alpha: &[f64],
    nalpha: &[f64],
) {
    assert_same_shape(pb, &[apb, xb, rb]);
    for g in 0..pb.groups() {
        let (av, nav) = (lane_scalars(alpha, g), lane_scalars(nalpha, g));
        for j in 0..pb.ny {
            let rows = points(pb, g, j)
                .zip(points(apb, g, j))
                .zip(points_mut(xb, g, j))
                .zip(points_mut(rb, g, j));
            for (((p, ap), x), r) in rows {
                for l in 0..LANES {
                    x[l] += av[l] * p[l];
                    r[l] += nav[l] * ap[l];
                }
            }
        }
    }
}

/// Classic PCG's direction update, per lane: `p = z + βp`.
fn pcg_dir_block(zb: &MultiBlockVec, pb: &mut MultiBlockVec, beta: &[f64]) {
    assert_same_shape(zb, &[pb]);
    for g in 0..zb.groups() {
        let bv = lane_scalars(beta, g);
        for j in 0..zb.ny {
            for (z, p) in points(zb, g, j).zip(points_mut(pb, g, j)) {
                for l in 0..LANES {
                    p[l] = z[l] + bv[l] * p[l];
                }
            }
        }
    }
}

/// Interior-only copy `dst = src` for every lane (PCG's setup `p₀ = z₀`).
fn copy_interior_block(src: &MultiBlockVec, dst: &mut MultiBlockVec) {
    assert_same_shape(src, &[dst]);
    for g in 0..src.groups() {
        for j in 0..src.ny {
            dst.interior_lane_row_mut(g, j)
                .copy_from_slice(src.interior_lane_row(g, j));
        }
    }
}

/// PipeCG's eight fused recurrences, per lane with per-lane scalars.
/// Direction updates read the *old* `w`/`u` of the point, written only
/// afterwards — same intra-point order as the scalar loop.
#[allow(clippy::too_many_arguments)]
fn pipecg_update_block(
    nb: &MultiBlockVec,
    mb: &MultiBlockVec,
    zb: &mut MultiBlockVec,
    qb: &mut MultiBlockVec,
    sb: &mut MultiBlockVec,
    pb: &mut MultiBlockVec,
    xb: &mut MultiBlockVec,
    rb: &mut MultiBlockVec,
    ub: &mut MultiBlockVec,
    wb: &mut MultiBlockVec,
    beta: &[f64],
    alpha: &[f64],
    nalpha: &[f64],
) {
    assert_same_shape(nb, &[mb, zb, qb, sb, pb, xb, rb, ub, wb]);
    for g in 0..nb.groups() {
        let bv = lane_scalars(beta, g);
        let (av, nav) = (lane_scalars(alpha, g), lane_scalars(nalpha, g));
        for j in 0..nb.ny {
            let rows = points(nb, g, j)
                .zip(points(mb, g, j))
                .zip(points_mut(zb, g, j))
                .zip(points_mut(qb, g, j))
                .zip(points_mut(sb, g, j))
                .zip(points_mut(pb, g, j))
                .zip(points_mut(xb, g, j))
                .zip(points_mut(rb, g, j))
                .zip(points_mut(ub, g, j))
                .zip(points_mut(wb, g, j));
            for (((((((((n, m), z), q), s), p), x), r), u), w) in rows {
                for l in 0..LANES {
                    let zv = n[l] + bv[l] * z[l];
                    let qv = m[l] + bv[l] * q[l];
                    let sv = w[l] + bv[l] * s[l];
                    let pv = u[l] + bv[l] * p[l];
                    z[l] = zv;
                    q[l] = qv;
                    s[l] = sv;
                    p[l] = pv;
                    x[l] += av[l] * pv;
                    r[l] += nav[l] * sv;
                    u[l] += nav[l] * qv;
                    w[l] += nav[l] * zv;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Batch bookkeeping
// ---------------------------------------------------------------------------

/// Batch-wide bookkeeping: one [`SolveCtl`] per right-hand side.
struct BatchCtl {
    solver: &'static str,
    slots: usize,
    lanes: Vec<SolveCtl>,
}

impl BatchCtl {
    /// Open a batch: one control per right-hand side, the lanes of `mb` /
    /// `mx` loaded from `bs` / `xs`, all `k` norms reduced in ONE
    /// allreduce, and the snapshot `mxg` seeded from the initial guesses.
    #[allow(clippy::too_many_arguments)]
    fn open<C: Communicator>(
        comm: &C,
        cfg: &SolverConfig,
        solver: &'static str,
        precond: &'static str,
        start: StatsSnapshot,
        bs: &[&C::Vec<BlockVec>],
        xs: &[&mut C::Vec<BlockVec>],
        mb: &mut C::Vec<MultiBlockVec>,
        mx: &mut C::Vec<MultiBlockVec>,
        mxg: &mut C::Vec<MultiBlockVec>,
    ) -> Self {
        let (k, slots) = (bs.len(), mb.width());
        let mut lanes: Vec<SolveCtl> = (0..k)
            .map(|_| SolveCtl::new(cfg, solver, precond, start))
            .collect();
        fill_lanes(comm, mb, bs);
        let x0: Vec<&C::Vec<BlockVec>> = xs.iter().map(|x| &**x).collect();
        fill_lanes(comm, mx, &x0);
        let bnorm = rhs_norms(comm, mb, &bs[0].layout().masks, slots, k);
        for (lane, bn) in lanes.iter_mut().zip(bnorm) {
            lane.bnorm = bn;
        }
        let _ = comm.for_each_block_fused([mxg], |gb, [good]| {
            good.raw_mut().copy_from_slice(mx.block(gb).raw());
            ZEROS
        });
        BatchCtl {
            solver,
            slots,
            lanes,
        }
    }

    fn running(&mut self) -> impl Iterator<Item = &mut SolveCtl> {
        self.lanes.iter_mut().filter(|l| l.running())
    }

    fn active(&self) -> usize {
        self.lanes.iter().filter(|l| l.running()).count()
    }

    fn all_retired(&self) -> bool {
        self.active() == 0
    }

    /// Charge one batched iteration to every active lane.
    fn tick(&mut self) {
        self.running().for_each(SolveCtl::tick);
    }

    /// Charge the (batched) setup sweeps to every active lane.
    fn charge_setup(&mut self, matvecs: usize, precond_applies: usize) {
        self.running()
            .for_each(|lane| lane.charge(matvecs, precond_applies));
    }

    /// Clear every lane's staged-restart residual: a fresh full residual
    /// sweep now describes all lanes again.
    fn clear_setup_rr(&mut self) {
        for lane in &mut self.lanes {
            lane.setup_rr = None;
        }
    }

    /// Feed every active lane's reduced `‖r‖²` (at `rr[l]`) through its
    /// control — the batched image of the single-RHS convergence check —
    /// and act on the answers that need no solver state: gather finished
    /// lanes out of the iterate or the snapshot, refresh improved lanes'
    /// snapshots. Returns the lanes that must restart. Batched solves make
    /// no per-phase attribution (the sweeps are shared across lanes), so
    /// the solve-level counters and the convergence trace are the per-lane
    /// telemetry.
    #[allow(clippy::too_many_arguments)]
    fn check<C: Communicator>(
        &mut self,
        comm: &C,
        cfg: &SolverConfig,
        rr: &[f64],
        cadence: bool,
        mx: &C::Vec<MultiBlockVec>,
        mxg: &mut C::Vec<MultiBlockVec>,
        xs: &mut [&mut C::Vec<BlockVec>],
    ) -> Vec<usize> {
        let (mut snapshot, mut restart) = (Vec::new(), Vec::new());
        for (l, lane) in self.lanes.iter_mut().enumerate() {
            if !lane.running() {
                continue;
            }
            match lane.check(cfg, rr[l], cadence, &|| comm.stats()) {
                Check::Continue => {}
                Check::Snapshot => snapshot.push(l),
                Check::Restart => restart.push(l),
                Check::Done(outcome) => gather_answer(comm, outcome, mx, mxg, l, &mut *xs[l]),
            }
        }
        snapshot_lanes(comm, mx, mxg, &snapshot);
        if let Some(reg) = cfg.obs.registry().filter(|_| !restart.is_empty()) {
            reg.counter_add(
                "pop_batch_lane_restarts_total",
                &[("solver", self.solver)],
                restart.len() as u64,
            );
        }
        restart
    }

    /// Export `pop_batch_occupancy` (active lanes / k). Free when the sink
    /// is disabled: the registry handle is `None` and nothing is computed.
    fn record_occupancy(&self, obs: &ObsSink) {
        if let Some(reg) = obs.registry() {
            reg.gauge_set(
                "pop_batch_occupancy",
                &[("solver", self.solver)],
                self.active() as f64 / self.lanes.len() as f64,
            );
        }
    }

    /// The per-lane stats, in RHS order. The communication snapshot is the
    /// whole batch's delta, duplicated into each lane: events are shared
    /// across lanes by construction, so a per-lane split would be
    /// arbitrary (documented in DESIGN.md §12).
    fn into_stats(self, now: StatsSnapshot) -> Vec<SolveStats> {
        self.lanes
            .into_iter()
            .map(|lane| lane.into_stats(now))
            .collect()
    }
}

/// Validate batch geometry: `1 ≤ k ≤ MAX_BATCH`, matching `bs`/`xs`, one
/// shared layout. Returns the batch's slot count: `k` rounded up to whole
/// lane groups.
fn batch_shape<C: Communicator>(bs: &[&C::Vec<BlockVec>], xs: &[&mut C::Vec<BlockVec>]) -> usize {
    let k = bs.len();
    assert_eq!(k, xs.len(), "batch needs one x per rhs");
    assert!(
        (1..=MAX_BATCH).contains(&k),
        "batch width must be 1..={MAX_BATCH}, got {k}"
    );
    let layout = bs[0].layout();
    for b in bs {
        assert!(
            Arc::ptr_eq(b.layout(), layout),
            "batched rhs must share one layout"
        );
    }
    for x in xs {
        assert!(
            Arc::ptr_eq(x.layout(), layout),
            "batched x must share the rhs layout"
        );
    }
    k.next_multiple_of(LANES)
}

/// Shared iteration-cap epilogue: settle any lane whose residual was never
/// reduced (one reduction of the standing sweep, unless the lane's staged
/// restart already reduced a fresher value), then classify and gather
/// every still-active lane exactly as the single-RHS tail does. PipeCG
/// passes `rr_sweep = None` (it reduces every iteration, so every lane's
/// residual is settled).
fn settle_remaining<C: Communicator>(
    comm: &C,
    cfg: &SolverConfig,
    ctl: &mut BatchCtl,
    rr_sweep: Option<&C::Sweep>,
    mx: &C::Vec<MultiBlockVec>,
    mxg: &C::Vec<MultiBlockVec>,
    xs: &mut [&mut C::Vec<BlockVec>],
) {
    let rr_sweep = rr_sweep.filter(|_| {
        ctl.lanes
            .iter()
            .any(|l| l.running() && l.unsettled() && l.setup_rr.is_none())
    });
    let red = rr_sweep.map(|sweep| comm.reduce_sweep(sweep, ctl.slots as u64));
    for (l, (lane, xl)) in ctl.lanes.iter_mut().zip(xs).enumerate() {
        if !lane.running() {
            continue;
        }
        let rr = lane
            .unsettled()
            .then(|| lane.setup_rr.or(red.map(|red| red[l])))
            .flatten();
        let outcome = lane.settle(cfg, rr, &|| comm.stats());
        gather_answer(comm, outcome, mx, mxg, l, &mut **xl);
    }
}

// ---------------------------------------------------------------------------
// The batched solver trait
// ---------------------------------------------------------------------------

/// Batched multi-RHS solve: advance `k ≤ 16` systems `A x_l = b_l`
/// (shared operator and preconditioner, independent right-hand sides) in
/// lockstep through `k`-wide fused sweeps. Per RHS the returned stats and
/// the solution bits are identical to `k` independent
/// [`CommSolver::solve_comm`] calls, except `comm`, which reports the
/// whole batch's (much smaller) event count.
pub trait BatchCommSolver: CommSolver {
    /// Solve the batch on whatever runtime `comm` provides, reusing `ws`
    /// across solves. Stats are returned in RHS order.
    #[allow(clippy::too_many_arguments)]
    fn solve_batch_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats>;
}

impl BatchCommSolver for Pcsi {
    fn solve_batch_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats> {
        let start = comm.stats();
        let slots = batch_shape::<C>(bs, xs);
        let BatchWorkspace { multis, stage } = ws;
        let [mb, mx, mr, mz, mdx, mxg] = multis.take(comm, bs[0], slots);

        let mut ctl = BatchCtl::open(
            comm,
            cfg,
            self.name(),
            pre.name(),
            start,
            bs,
            xs,
            mb,
            mx,
            mxg,
        );
        for lane in &mut ctl.lanes {
            lane.obs.eigen(self.bounds.nu, self.bounds.mu);
        }
        let (alpha, gamma) = self.chebyshev();
        let inv_gamma = 1.0 / gamma;

        // Per-lane recurrence depth: restarts reset a single slot to ω₀.
        let mut omega = vec![2.0 / gamma; slots];
        let mut cs = vec![0.0; slots];

        // Batched setup: r₀ = b − A x₀ ; Δx₀ = γ⁻¹ M⁻¹ r₀ ; x₁ = x₀ + Δx₀ ;
        // r₁ = b − A x₁ with per-lane ‖r‖² partials riding along.
        comm.halo_update(mx);
        let _ = comm.for_each_block_fused([&mut *mr], |bk, [rb]| {
            let mut p = ZEROS;
            op.residual_block_multi(bk, mx.block(bk), mb.block(bk), rb, &mut p[..slots]);
            ZEROS
        });
        let _ = comm.for_each_block_fused([&mut *mz, &mut *mdx, &mut *mx], |bk, [zb, dxb, xb]| {
            pre.apply_block_multi(bk, mr.block(bk), zb);
            csi_setup_block(zb, dxb, xb, inv_gamma);
            ZEROS
        });
        comm.halo_update(mx);
        let mut rr_sweep = comm.for_each_block_fused([&mut *mr], |bk, [rb]| {
            let mut p = ZEROS;
            op.residual_block_multi(bk, mx.block(bk), mb.block(bk), rb, &mut p[..slots]);
            p
        });
        ctl.charge_setup(2, 1);

        // Deferred-residual pass fusion. On iterations whose residual has
        // no same-iteration consumer (no convergence check, not the final
        // iteration) sweep B is postponed and fused into the *next*
        // iteration's sweep A: residual, preconditioner, and iterate
        // update run back to back on each block while its tiles are
        // cache-hot, and a full re-read of `x` and `r` per iteration
        // disappears. Per lane the arithmetic is the exact sequence of
        // the split sweeps — each block's deferred residual reads its own
        // pre-update storage plus halo cells the in-place x-update never
        // touches — so trajectories stay bitwise identical; only the pass
        // count drops.
        let mut deferred_b = false;
        let mut iterations = 0usize;
        while iterations < cfg.max_iters && !ctl.all_retired() {
            iterations += 1;
            ctl.tick();
            for s in 0..slots {
                omega[s] = 1.0 / (gamma - omega[s] / (4.0 * alpha * alpha));
                cs[s] = gamma * omega[s] - 1.0;
            }

            // Sweep A: z = M⁻¹ r, then Δx = ω z + c Δx and x += Δx —
            // led, when deferred, by the previous iteration's residual.
            if deferred_b {
                deferred_b = false;
                rr_sweep = comm.for_each_block_fused(
                    [&mut *mr, &mut *mz, &mut *mdx, &mut *mx],
                    |bk, [rb, zb, dxb, xb]| {
                        let mut p = ZEROS;
                        op.residual_block_multi(bk, xb, mb.block(bk), rb, &mut p[..slots]);
                        pre.apply_block_multi(bk, rb, zb);
                        csi_update_block(zb, dxb, xb, &omega, &cs);
                        p
                    },
                );
                ctl.clear_setup_rr();
            } else {
                let _ = comm.for_each_block_fused(
                    [&mut *mz, &mut *mdx, &mut *mx],
                    |bk, [zb, dxb, xb]| {
                        pre.apply_block_multi(bk, mr.block(bk), zb);
                        csi_update_block(zb, dxb, xb, &omega, &cs);
                        ZEROS
                    },
                );
            }

            // Sweep B: one halo update, then the residual with per-lane
            // ‖r‖² partials — the iteration's only reducible state. Run
            // eagerly only when something reads it this iteration: the
            // check below or the post-loop settlement. (Retirement state
            // changes only on check iterations, so every loop exit leaves
            // `rr_sweep` describing the last iteration's residual, exactly
            // as the split sweeps did.)
            comm.halo_update(mx);
            if iterations % cfg.check_interval() == 0 || iterations == cfg.max_iters {
                rr_sweep = comm.for_each_block_fused([&mut *mr], |bk, [rb]| {
                    let mut p = ZEROS;
                    op.residual_block_multi(bk, mx.block(bk), mb.block(bk), rb, &mut p[..slots]);
                    p
                });
                ctl.clear_setup_rr();
            } else {
                deferred_b = true;
            }

            if iterations % cfg.check_interval() == 0 {
                // ONE allreduce carries all k residuals: flat in k.
                let rr = comm.reduce_sweep(&rr_sweep, slots as u64);
                for l in ctl.check(comm, cfg, &rr, true, &*mx, mxg, xs) {
                    // Stage the lane's snapshot, re-run the solver's
                    // single-RHS start on it, and scatter the result back,
                    // so the lane rejoins its scalar trajectory.
                    omega[l] = 2.0 / gamma;
                    let [sx, sr, sz, sdx] = stage.take(comm, bs[0], 1);
                    gather_lane(comm, &*mxg, l, sx);
                    let lane = &mut ctl.lanes[l];
                    let s_sweep =
                        Pcsi::start(op, pre, comm, inv_gamma, bs[l], sx, sr, sz, sdx, lane);
                    lane.setup_rr = Some(comm.reduce_sweep(&s_sweep, 1)[0]);
                    scatter_lane(comm, &*sx, mx, l);
                    scatter_lane(comm, &*sr, mr, l);
                    scatter_lane(comm, &*sdx, mdx, l);
                }
                ctl.record_occupancy(&cfg.obs);
            }
        }

        settle_remaining(comm, cfg, &mut ctl, Some(&rr_sweep), &*mx, &*mxg, xs);
        ctl.into_stats(comm.stats())
    }
}

impl BatchCommSolver for ChronGear {
    fn solve_batch_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats> {
        let start = comm.stats();
        let slots = batch_shape::<C>(bs, xs);
        let layout = Arc::clone(bs[0].layout());
        let BatchWorkspace { multis, stage } = ws;
        let [mb, mx, mr, mz, maz, ms, mp, mxg] = multis.take(comm, bs[0], slots);
        let mut ctl = BatchCtl::open(
            comm,
            cfg,
            self.name(),
            pre.name(),
            start,
            bs,
            xs,
            mb,
            mx,
            mxg,
        );

        // Per-lane recurrence scalars (restarts reset single slots).
        let mut rho_old = vec![1.0f64; slots];
        let mut sigma = vec![0.0f64; slots];
        let mut beta = vec![0.0f64; slots];
        let mut alph = vec![0.0f64; slots];
        let mut nalph = vec![0.0f64; slots];

        // Batched setup: r₀ = b − A x₀ (s and p start zeroed by take()).
        comm.halo_update(mx);
        let mut rr_sweep = comm.for_each_block_fused([&mut *mr], |bk, [rb]| {
            let mut p = ZEROS;
            op.residual_block_multi(bk, mx.block(bk), mb.block(bk), rb, &mut p[..slots]);
            p
        });
        ctl.charge_setup(1, 0);

        let mut iterations = 0usize;
        while iterations < cfg.max_iters && !ctl.all_retired() {
            iterations += 1;
            ctl.tick();

            // z = M⁻¹ r (its own sweep: z needs a boundary update before
            // the matvec).
            let _ = comm.for_each_block_fused([&mut *mz], |bk, [zb]| {
                pre.apply_block_multi(bk, mr.block(bk), zb);
                ZEROS
            });

            // The iteration's single halo exchange, then Az plus both
            // inner-product partials (ρ̃ = rᵀz, δ̃ = (Az)ᵀz) per lane.
            comm.halo_update(mz);
            let d_sweep = comm.for_each_block_fused([&mut *maz], |bk, [azb]| {
                let mask = &layout.masks[bk];
                op.apply_block_multi(bk, mz.block(bk), azb);
                let mut p = ZEROS;
                masked_dot_multi(mr.block(bk), mz.block(bk), mask, &mut p[..slots]);
                masked_dot_multi(azb, mz.block(bk), mask, &mut p[slots..2 * slots]);
                p
            });

            // The fused reduction: 2k scalars, ONE allreduce.
            let d = comm.reduce_sweep(&d_sweep, (2 * slots) as u64);
            for s in 0..slots {
                let rho = d[s];
                let delta = d[slots + s];
                let b = rho / rho_old[s];
                sigma[s] = delta - b * b * sigma[s];
                let a = rho / sigma[s];
                beta[s] = b;
                alph[s] = a;
                nalph[s] = -a;
                rho_old[s] = rho;
            }

            // All four updates in one sweep, with per-lane ‖r‖² partials
            // for the periodic check. The dot re-reads the just-stored r
            // bits, so it equals the scalar loop's fused accumulate.
            rr_sweep = comm.for_each_block_fused(
                [&mut *ms, &mut *mp, &mut *mx, &mut *mr],
                |bk, [sb, pb, xb, rb]| {
                    chrongear_update_block(
                        mz.block(bk),
                        maz.block(bk),
                        sb,
                        pb,
                        xb,
                        rb,
                        &beta,
                        &alph,
                        &nalph,
                    );
                    let mut p = ZEROS;
                    masked_dot_multi(rb, rb, &layout.masks[bk], &mut p[..slots]);
                    p
                },
            );
            ctl.clear_setup_rr();

            if iterations % cfg.check_interval() == 0 {
                let rr = comm.reduce_sweep(&rr_sweep, slots as u64);
                for l in ctl.check(comm, cfg, &rr, true, &*mx, mxg, xs) {
                    zero_lanes(comm, ms, &[l]);
                    zero_lanes(comm, mp, &[l]);
                    rho_old[l] = 1.0;
                    sigma[l] = 0.0;
                    let [sx, sr] = stage.take(comm, bs[0], 1);
                    gather_lane(comm, &*mxg, l, sx);
                    let lane = &mut ctl.lanes[l];
                    let s_sweep = ChronGear::start(op, comm, bs[l], sx, sr, lane);
                    lane.setup_rr = Some(comm.reduce_sweep(&s_sweep, 1)[0]);
                    scatter_lane(comm, &*sx, mx, l);
                    scatter_lane(comm, &*sr, mr, l);
                }
                ctl.record_occupancy(&cfg.obs);
            }
        }

        settle_remaining(comm, cfg, &mut ctl, Some(&rr_sweep), &*mx, &*mxg, xs);
        ctl.into_stats(comm.stats())
    }
}

impl BatchCommSolver for ClassicPcg {
    fn solve_batch_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats> {
        let start = comm.stats();
        let slots = batch_shape::<C>(bs, xs);
        let layout = Arc::clone(bs[0].layout());
        let BatchWorkspace { multis, stage } = ws;
        let [mb, mx, mr, mz, mp, map, mxg] = multis.take(comm, bs[0], slots);
        let mut ctl = BatchCtl::open(
            comm,
            cfg,
            self.name(),
            pre.name(),
            start,
            bs,
            xs,
            mb,
            mx,
            mxg,
        );

        let mut rz = vec![0.0f64; slots];
        let mut beta = vec![0.0f64; slots];
        let mut alph = vec![0.0f64; slots];
        let mut nalph = vec![0.0f64; slots];

        // Batched setup: r₀ = b − A x₀ ; z₀ = M⁻¹ r₀ ; p₀ = z₀ ; plus the
        // setup rᵀz reduction (#0), all per lane.
        comm.halo_update(mx);
        let mut rr_sweep = comm.for_each_block_fused([&mut *mr], |bk, [rb]| {
            let mut p = ZEROS;
            op.residual_block_multi(bk, mx.block(bk), mb.block(bk), rb, &mut p[..slots]);
            p
        });
        let rz_sweep = comm.for_each_block_fused([&mut *mz, &mut *mp], |bk, [zb, pb]| {
            pre.apply_block_multi(bk, mr.block(bk), zb);
            copy_interior_block(zb, pb);
            let mut p = ZEROS;
            masked_dot_multi(mr.block(bk), zb, &layout.masks[bk], &mut p[..slots]);
            p
        });
        {
            let red = comm.reduce_sweep(&rz_sweep, slots as u64);
            rz.copy_from_slice(&red[..slots]);
        }
        ctl.charge_setup(1, 1);

        let mut iterations = 0usize;
        while iterations < cfg.max_iters && !ctl.all_retired() {
            iterations += 1;
            ctl.tick();

            // Sweep 1: Ap and its pᵀAp partials together.
            comm.halo_update(mp);
            let pap_sweep = comm.for_each_block_fused([&mut *map], |bk, [apb]| {
                op.apply_block_multi(bk, mp.block(bk), apb);
                let mut p = ZEROS;
                masked_dot_multi(mp.block(bk), apb, &layout.masks[bk], &mut p[..slots]);
                p
            });

            // Reduction #1 of the iteration.
            let pap = comm.reduce_sweep(&pap_sweep, slots as u64);
            for s in 0..slots {
                let a = rz[s] / pap[s];
                alph[s] = a;
                nalph[s] = -a;
            }

            // Sweep 2: x += αp, r −= αAp, z = M⁻¹r, with per-lane ‖r‖² and
            // rᵀz partials in the two slot bands.
            let d_sweep =
                comm.for_each_block_fused([&mut *mx, &mut *mr, &mut *mz], |bk, [xb, rb, zb]| {
                    pcg_xr_block(mp.block(bk), map.block(bk), xb, rb, &alph, &nalph);
                    pre.apply_block_multi(bk, rb, zb);
                    let mask = &layout.masks[bk];
                    let mut p = ZEROS;
                    masked_dot_multi(rb, rb, mask, &mut p[..slots]);
                    masked_dot_multi(rb, zb, mask, &mut p[slots..2 * slots]);
                    p
                });

            // Reduction #2: consumes rᵀz from the second slot band. The
            // declared width mirrors the single-RHS loop's `reduce(…, 1)`
            // (which also reads past its declared scalar count).
            let red = comm.reduce_sweep(&d_sweep, slots as u64);
            for s in 0..slots {
                let rz_new = red[slots + s];
                beta[s] = rz_new / rz[s];
                rz[s] = rz_new;
            }
            rr_sweep = d_sweep;
            ctl.clear_setup_rr();

            // Sweep 3: the direction update p = z + βp.
            let _ = comm.for_each_block_fused([&mut *mp], |bk, [pb]| {
                pcg_dir_block(mz.block(bk), pb, &beta);
                ZEROS
            });

            if iterations % cfg.check_interval() == 0 {
                let rr = comm.reduce_sweep(&rr_sweep, slots as u64);
                for l in ctl.check(comm, cfg, &rr, true, &*mx, mxg, xs) {
                    let [sx, sr, sz, sp] = stage.take(comm, bs[0], 1);
                    gather_lane(comm, &*mxg, l, sx);
                    let lane = &mut ctl.lanes[l];
                    let (s_sweep, srz) =
                        ClassicPcg::start(op, pre, comm, bs[l], sx, sr, sz, sp, lane);
                    rz[l] = srz;
                    lane.setup_rr = Some(comm.reduce_sweep(&s_sweep, 1)[0]);
                    scatter_lane(comm, &*sx, mx, l);
                    scatter_lane(comm, &*sr, mr, l);
                    scatter_lane(comm, &*sp, mp, l);
                }
                ctl.record_occupancy(&cfg.obs);
            }
        }

        settle_remaining(comm, cfg, &mut ctl, Some(&rr_sweep), &*mx, &*mxg, xs);
        ctl.into_stats(comm.stats())
    }
}

impl BatchCommSolver for PipelinedCg {
    fn solve_batch_comm<C: Communicator>(
        &self,
        op: &NinePoint,
        pre: &dyn Preconditioner,
        comm: &C,
        bs: &[&C::Vec<BlockVec>],
        xs: &mut [&mut C::Vec<BlockVec>],
        cfg: &SolverConfig,
        ws: &mut BatchWorkspace<C>,
    ) -> Vec<SolveStats> {
        let start = comm.stats();
        let slots = batch_shape::<C>(bs, xs);
        let layout = Arc::clone(bs[0].layout());
        let BatchWorkspace { multis, stage } = ws;
        let [mb, mx, mr, mu, mw, mm, mn, mzz, mq, ms, mp, mxg] = multis.take(comm, bs[0], slots);
        let mut ctl = BatchCtl::open(
            comm,
            cfg,
            self.name(),
            pre.name(),
            start,
            bs,
            xs,
            mb,
            mx,
            mxg,
        );

        let mut gamma_old = vec![1.0f64; slots];
        let mut alpha_old = vec![1.0f64; slots];
        let mut first = vec![true; slots];
        let mut beta = vec![0.0f64; slots];
        let mut alph = vec![0.0f64; slots];
        let mut nalph = vec![0.0f64; slots];

        // Batched setup: r₀ = b − A x₀ ; u₀ = M⁻¹ r₀ ; w₀ = A u₀
        // (z, q, s, p start zeroed by take()).
        comm.halo_update(mx);
        let _ = comm.for_each_block_fused([&mut *mr], |bk, [rb]| {
            let mut p = ZEROS;
            op.residual_block_multi(bk, mx.block(bk), mb.block(bk), rb, &mut p[..slots]);
            ZEROS
        });
        let _ = comm.for_each_block_fused([&mut *mu], |bk, [ub]| {
            pre.apply_block_multi(bk, mr.block(bk), ub);
            ZEROS
        });
        comm.halo_update(mu);
        let _ = comm.for_each_block_fused([&mut *mw], |bk, [wb]| {
            op.apply_block_multi(bk, mu.block(bk), wb);
            ZEROS
        });
        ctl.charge_setup(2, 1);

        let mut iterations = 0usize;
        while iterations < cfg.max_iters && !ctl.all_retired() {
            iterations += 1;
            ctl.tick();

            // Sweep 1: the fused reduction's three per-lane partials —
            // γ = (r,u), δ = (w,u), ‖r‖² — in the three slot bands, plus
            // m = M⁻¹w, all in one pass.
            let d_sweep = comm.for_each_block_fused([&mut *mm], |bk, [mmb]| {
                let mask = &layout.masks[bk];
                let mut p = ZEROS;
                masked_dot_multi(mr.block(bk), mu.block(bk), mask, &mut p[..slots]);
                masked_dot_multi(mw.block(bk), mu.block(bk), mask, &mut p[slots..2 * slots]);
                masked_dot_multi(
                    mr.block(bk),
                    mr.block(bk),
                    mask,
                    &mut p[2 * slots..3 * slots],
                );
                pre.apply_block_multi(bk, mw.block(bk), mmb);
                p
            });
            // 3k scalars, still ONE allreduce per iteration.
            let d = comm.reduce_sweep(&d_sweep, (3 * slots) as u64);

            // Sweep 2: n = A m.
            comm.halo_update(mm);
            let _ = comm.for_each_block_fused([&mut *mn], |bk, [nb]| {
                op.apply_block_multi(bk, mm.block(bk), nb);
                ZEROS
            });

            for s in 0..slots {
                let gamma = d[s];
                let delta = d[slots + s];
                if first[s] {
                    first[s] = false;
                    alph[s] = gamma / delta;
                    beta[s] = 0.0;
                } else {
                    let b = gamma / gamma_old[s];
                    beta[s] = b;
                    alph[s] = gamma / (delta - b * gamma / alpha_old[s]);
                }
                nalph[s] = -alph[s];
            }

            // Sweep 3: all eight pipelined recurrences fused per point.
            let _ = comm.for_each_block_fused(
                [
                    &mut *mzz, &mut *mq, &mut *ms, &mut *mp, &mut *mx, &mut *mr, &mut *mu, &mut *mw,
                ],
                |bk, [zb, qb, sb, pb, xb, rb, ub, wb]| {
                    pipecg_update_block(
                        mn.block(bk),
                        mm.block(bk),
                        zb,
                        qb,
                        sb,
                        pb,
                        xb,
                        rb,
                        ub,
                        wb,
                        &beta,
                        &alph,
                        &nalph,
                    );
                    ZEROS
                },
            );
            gamma_old[..slots].copy_from_slice(&d[..slots]);
            alpha_old[..slots].copy_from_slice(&alph[..slots]);

            // The pipelined formulation checks every iteration for free;
            // history entries keep the check_every cadence.
            let cadence = iterations % cfg.check_interval() == 0;
            let active = ctl.active();
            let restart = ctl.check(comm, cfg, &d[2 * slots..3 * slots], cadence, &*mx, mxg, xs);
            for &l in &restart {
                zero_lanes(comm, mzz, &[l]);
                zero_lanes(comm, mq, &[l]);
                zero_lanes(comm, ms, &[l]);
                zero_lanes(comm, mp, &[l]);
                gamma_old[l] = 1.0;
                alpha_old[l] = 1.0;
                first[l] = true;
                let [sx, sr, su, sw] = stage.take(comm, bs[0], 1);
                gather_lane(comm, &*mxg, l, sx);
                PipelinedCg::start(op, pre, comm, bs[l], sx, sr, su, sw, &mut ctl.lanes[l]);
                scatter_lane(comm, &*sx, mx, l);
                scatter_lane(comm, &*sr, mr, l);
                scatter_lane(comm, &*su, mu, l);
                scatter_lane(comm, &*sw, mw, l);
            }
            if ctl.active() != active || !restart.is_empty() {
                ctl.record_occupancy(&cfg.obs);
            }
        }

        // PipeCG reduces every iteration, so every lane's final_rel is
        // settled; no standing-sweep tail exists in the scalar loop either.
        settle_remaining(comm, cfg, &mut ctl, None, &*mx, &*mxg, xs);
        ctl.into_stats(comm.stats())
    }
}

// ---------------------------------------------------------------------------
// Batch planner
// ---------------------------------------------------------------------------

/// Identity key deciding which solve requests may share a batch: the
/// decomposition (layout identity) and the operator's exact coefficient
/// bits. Solves with equal keys follow identical sweep structure, so their
/// lanes can ride one fused pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BatchKey {
    layout: usize,
    op: u64,
}

// The fingerprint lives in `crate::fingerprint` (shared with the serve
// operator cache); re-exported here so `solvers::batch::operator_fingerprint`
// keeps working.
pub use crate::fingerprint::operator_fingerprint;

/// The batch key of one solve request against `op`.
pub fn batch_key(op: &NinePoint) -> BatchKey {
    BatchKey {
        layout: Arc::as_ptr(&op.layout) as usize,
        op: operator_fingerprint(op),
    }
}

/// One planned batch: request indices (submission order preserved) that
/// share `key`, at most `max_batch` of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedBatch {
    pub key: BatchKey,
    pub indices: Vec<usize>,
}

/// Groups solve requests into batches: requests sharing a [`BatchKey`]
/// coalesce (submission order preserved within and across groups), each
/// group is chunked into batches of at most `max_batch` RHS. Ragged tails
/// are fine — the engine pads them with shadow lanes.
#[derive(Debug, Clone)]
pub struct BatchPlanner {
    /// Widest batch to emit; clamped to `1..=MAX_BATCH`.
    pub max_batch: usize,
}

impl Default for BatchPlanner {
    fn default() -> Self {
        BatchPlanner {
            max_batch: MAX_BATCH,
        }
    }
}

impl BatchPlanner {
    pub fn new(max_batch: usize) -> Self {
        BatchPlanner { max_batch }
    }

    /// Plan batches for the request keys, in first-seen group order.
    pub fn plan(&self, keys: &[BatchKey]) -> Vec<PlannedBatch> {
        self.plan_by(keys)
            .into_iter()
            .map(|(key, indices)| PlannedBatch { key, indices })
            .collect()
    }

    /// Plan over an arbitrary coalescing key. `pop-serve` keys on more than
    /// operator identity (solver kind, preconditioner spec, tolerance bits
    /// all gate lane-sharing), so the grouping is generic: requests with
    /// equal keys coalesce in first-seen group order, each group chunked to
    /// at most `max_batch` indices, submission order preserved throughout.
    pub fn plan_by<K: PartialEq + Copy>(&self, keys: &[K]) -> Vec<(K, Vec<usize>)> {
        let cap = self.max_batch.clamp(1, MAX_BATCH);
        // Linear scan instead of a hash map: request counts are tiny and
        // this keeps group order deterministic by first appearance.
        let mut order: Vec<K> = Vec::new();
        let mut members: Vec<Vec<usize>> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            match order.iter().position(|o| o == key) {
                Some(g) => members[g].push(i),
                None => {
                    order.push(*key);
                    members.push(vec![i]);
                }
            }
        }
        let mut out = Vec::new();
        for (key, idxs) in order.into_iter().zip(members) {
            for chunk in idxs.chunks(cap) {
                out.push((key, chunk.to_vec()));
            }
        }
        out
    }
}

/// Convenience driver for a homogeneous request set (one operator, one
/// preconditioner): chunk the `k` systems into batches of at most
/// `max_batch` and run each through the batched engine. Stats come back
/// in RHS order.
#[allow(clippy::too_many_arguments)]
pub fn solve_many<C: Communicator, S: BatchCommSolver>(
    solver: &S,
    op: &NinePoint,
    pre: &dyn Preconditioner,
    comm: &C,
    bs: &[&C::Vec<BlockVec>],
    xs: &mut [&mut C::Vec<BlockVec>],
    cfg: &SolverConfig,
    max_batch: usize,
    ws: &mut BatchWorkspace<C>,
) -> Vec<SolveStats> {
    assert_eq!(bs.len(), xs.len(), "solve_many needs one x per rhs");
    let cap = max_batch.clamp(1, MAX_BATCH);
    let mut out = Vec::with_capacity(bs.len());
    for (bc, xc) in bs.chunks(cap).zip(xs.chunks_mut(cap)) {
        out.extend(solver.solve_batch_comm(op, pre, comm, bc, xc, cfg, ws));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{BlockEvp, Diagonal};
    use crate::solvers::testutil::fixture;
    use crate::solvers::SolverWorkspace;
    use pop_comm::DistVec;
    use pop_grid::Grid;

    fn seeded_rhs(model: &DistVec, seed: u64) -> DistVec {
        let mut b = model.clone();
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        for blk in &mut b.blocks {
            for j in 0..blk.ny {
                for v in blk.interior_row_mut(j) {
                    if *v != 0.0 {
                        *v *= 1.0 + 0.25 * next();
                    }
                }
            }
        }
        b
    }

    /// Batched ChronGear on a ragged k=5 batch is bitwise identical, per
    /// RHS, to five independent single-RHS solves: solutions, iteration
    /// counts, outcomes, and residual histories.
    #[test]
    fn batched_chrongear_matches_single_rhs_bitwise() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        let pre = Diagonal::new(&f.op);
        let solver = ChronGear;
        let cfg = SolverConfig::with_tol(1e-11);
        let k = 5;

        let bs_own: Vec<DistVec> = (0..k).map(|l| seeded_rhs(&f.b, l as u64 + 1)).collect();

        let mut singles = Vec::new();
        let mut ws = SolverWorkspace::default();
        for b in &bs_own {
            let mut x = DistVec::zeros(&f.layout);
            let st = solver.solve_comm(&f.op, &pre, &f.world, b, &mut x, &cfg, &mut ws);
            singles.push((x, st));
        }

        let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&f.layout)).collect();
        let bs: Vec<&DistVec> = bs_own.iter().collect();
        let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
        let mut bws = BatchWorkspace::new();
        let stats = solver.solve_batch_comm(&f.op, &pre, &f.world, &bs, &mut xs, &cfg, &mut bws);

        for (l, (x_single, st_single)) in singles.iter().enumerate() {
            let got = xs_own[l].to_global();
            let want = x_single.to_global();
            assert_eq!(got.len(), want.len());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "lane {l} point {i}: {g:e} vs {w:e}"
                );
            }
            assert_eq!(stats[l].iterations, st_single.iterations, "lane {l}");
            assert_eq!(stats[l].outcome, st_single.outcome, "lane {l}");
            assert_eq!(
                stats[l].final_relative_residual.to_bits(),
                st_single.final_relative_residual.to_bits(),
                "lane {l}"
            );
            assert_eq!(
                stats[l].residual_history, st_single.residual_history,
                "lane {l}"
            );
            assert_eq!(stats[l].matvecs, st_single.matvecs, "lane {l}");
            assert_eq!(
                stats[l].precond_applies, st_single.precond_applies,
                "lane {l}"
            );
        }
    }

    /// Batched P-CSI with the EVP preconditioner stays on the single-RHS
    /// trajectory per lane (k=3 ragged batch exercising the lane-fused EVP
    /// apply inside the batched loop).
    #[test]
    fn batched_csi_evp_matches_single_rhs_bitwise() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        let pre = BlockEvp::with_defaults(&f.op);
        let bounds = crate::lanczos::estimate_bounds_fixed_steps(&f.op, &pre, &f.world, 30, 7);
        let solver = Pcsi::new(bounds);
        let cfg = SolverConfig::with_tol(1e-11);
        let k = 3;

        let bs_own: Vec<DistVec> = (0..k).map(|l| seeded_rhs(&f.b, l as u64 + 11)).collect();

        let mut singles = Vec::new();
        let mut ws = SolverWorkspace::default();
        for b in &bs_own {
            let mut x = DistVec::zeros(&f.layout);
            let st = solver.solve_comm(&f.op, &pre, &f.world, b, &mut x, &cfg, &mut ws);
            singles.push((x, st));
        }

        let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&f.layout)).collect();
        let bs: Vec<&DistVec> = bs_own.iter().collect();
        let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
        let mut bws = BatchWorkspace::new();
        let stats = solver.solve_batch_comm(&f.op, &pre, &f.world, &bs, &mut xs, &cfg, &mut bws);

        for (l, (x_single, st_single)) in singles.iter().enumerate() {
            let got = xs_own[l].to_global();
            let want = x_single.to_global();
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "lane {l} point {i}: {g:e} vs {w:e}"
                );
            }
            assert_eq!(stats[l].iterations, st_single.iterations, "lane {l}");
            assert_eq!(stats[l].outcome, st_single.outcome, "lane {l}");
        }
    }

    /// The allreduce count is flat in k: a batch of 16 performs exactly as
    /// many allreduces as one single-RHS solve of the same iteration count —
    /// for check-only P-CSI and per-iteration ChronGear, diagonal and EVP.
    #[test]
    fn allreduce_count_flat_in_k() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        // Fixed iteration count: tol 0 runs to the cap on every lane.
        let cfg = SolverConfig {
            tol: 0.0,
            max_iters: 40,
            ..Default::default()
        };
        let k = 16;
        let bs_own: Vec<DistVec> = (0..k).map(|l| seeded_rhs(&f.b, l as u64 + 21)).collect();
        let bs: Vec<&DistVec> = bs_own.iter().collect();

        let pres: [&dyn Preconditioner; 2] =
            [&Diagonal::new(&f.op), &BlockEvp::with_defaults(&f.op)];
        for pre in pres {
            let bounds = crate::lanczos::estimate_bounds_fixed_steps(&f.op, pre, &f.world, 30, 7);
            let pcsi = Pcsi::new(bounds);
            let mut ws = SolverWorkspace::default();
            let mut bws = BatchWorkspace::new();
            let mut x = DistVec::zeros(&f.layout);
            let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&f.layout)).collect();
            let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
            let (c, w, p) = (&f.world, &mut ws, &f.op);
            let runs = [
                (
                    pcsi.solve_comm(p, pre, c, &f.b, &mut x, &cfg, w),
                    pcsi.solve_batch_comm(p, pre, c, &bs, &mut xs, &cfg, &mut bws),
                ),
                (
                    ChronGear.solve_comm(p, pre, c, &f.b, &mut x, &cfg, w),
                    ChronGear.solve_batch_comm(p, pre, c, &bs, &mut xs, &cfg, &mut bws),
                ),
            ];
            for (single, stats) in runs {
                let what = format!("{}+{}", single.solver, pre.name());
                assert_eq!(stats[0].iterations, single.iterations, "{what}");
                assert_eq!(
                    stats[0].comm.allreduces, single.comm.allreduces,
                    "{what}: batched allreduce count must not grow with k"
                );
                assert_eq!(
                    stats[0].comm.halo_updates, single.comm.halo_updates,
                    "{what}"
                );
            }
        }
    }

    #[test]
    fn planner_groups_by_key_and_chunks() {
        let ka = BatchKey { layout: 1, op: 10 };
        let kb = BatchKey { layout: 1, op: 20 };
        let keys = [ka, kb, ka, ka, kb, ka, ka, ka];
        let plan = BatchPlanner::new(4).plan(&keys);
        assert_eq!(
            plan,
            vec![
                PlannedBatch {
                    key: ka,
                    indices: vec![0, 2, 3, 5]
                },
                PlannedBatch {
                    key: ka,
                    indices: vec![6, 7]
                },
                PlannedBatch {
                    key: kb,
                    indices: vec![1, 4]
                },
            ]
        );
    }

    #[test]
    fn fingerprint_distinguishes_operators() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        let f2 = fixture(&grid, 16, 13, 3600.0);
        assert_eq!(operator_fingerprint(&f.op), operator_fingerprint(&f.op));
        assert_ne!(operator_fingerprint(&f.op), operator_fingerprint(&f2.op));
        assert_ne!(batch_key(&f.op), batch_key(&f2.op));
    }

    /// solve_many chunks a 6-wide homogeneous request set into 4 + 2 and
    /// returns per-RHS stats in submission order.
    #[test]
    fn solve_many_chunks_and_orders() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        let pre = Diagonal::new(&f.op);
        let solver = ChronGear;
        let cfg = SolverConfig::with_tol(1e-10);
        let k = 6;
        let bs_own: Vec<DistVec> = (0..k).map(|l| seeded_rhs(&f.b, l as u64 + 31)).collect();
        let mut xs_own: Vec<DistVec> = (0..k).map(|_| DistVec::zeros(&f.layout)).collect();
        let bs: Vec<&DistVec> = bs_own.iter().collect();
        let mut xs: Vec<&mut DistVec> = xs_own.iter_mut().collect();
        let mut bws = BatchWorkspace::new();
        let stats = solve_many(
            &solver, &f.op, &pre, &f.world, &bs, &mut xs, &cfg, 4, &mut bws,
        );
        assert_eq!(stats.len(), k);
        let mut ws = SolverWorkspace::default();
        for (l, b) in bs_own.iter().enumerate() {
            let mut x = DistVec::zeros(&f.layout);
            let st = solver.solve_comm(&f.op, &pre, &f.world, b, &mut x, &cfg, &mut ws);
            assert_eq!(stats[l].iterations, st.iterations, "lane {l}");
            let got = xs_own[l].to_global();
            let want = x.to_global();
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "lane {l}");
            }
        }
    }
}
