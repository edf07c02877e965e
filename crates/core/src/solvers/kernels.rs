//! The per-block kernels of the solver recurrences, once per tile type.
//!
//! Each recurrence (`csi.rs`, `chrongear.rs`, `pcg.rs`, `pipecg.rs`) is one
//! loop generic over `T: TileKernels`, instantiated on [`BlockVec`] for one
//! right-hand side and on [`MultiBlockVec`] for a `k`-wide batch. Everything
//! that differs between the two widths lives behind this trait: the stencil
//! and preconditioner calls, the masked dot products, the pointwise vector
//! updates, and the lane plumbing of per-RHS control (copy, finite check,
//! gather, scatter of one lane — the whole tile for a [`BlockVec`]).
//! This is the only solver module that names a lane kernel.
//!
//! Both families stay: the point-vectorised kernels are the faster ones for
//! one right-hand side, the lane-vectorised ones for a batch. Every lane
//! kernel repeats the point kernel's exact per-point operation order in each
//! lane, with per-lane scalars, which is what keeps every lane of a batch
//! bitwise on its single-RHS trajectory (`tests/batch_equivalence.rs`).
//!
//! # Widths and scalars
//!
//! A tile carries `w` values per point: 1 for a [`BlockVec`], the batch's
//! slot count for a [`MultiBlockVec`]. Per-lane recurrence scalars are
//! passed as `w`-long slices (slot `s` drives lane `s`), and per-block
//! partial sums are written in bands of `w` slots: band `j` of a kernel's
//! output is `out[j * w..(j + 1) * w]`, so one reduction row carries every
//! lane's partials.

use crate::precond::Preconditioner;
use pop_comm::{masked_block_dot, masked_dot_multi, BlockVec, MultiBlockVec, Tile};
use pop_simd::{LaneF64, LaneJob, LANES};
use pop_stencil::NinePoint;

/// What a solver recurrence does to one block of one tile type. See the
/// [module docs](self) for the width and partial-band conventions.
pub(crate) trait TileKernels: Tile {
    /// `r = b − A x` over block `bk`'s interior, `‖r‖²` per lane in
    /// `out[..w]`. `x`'s halo must be current.
    fn residual(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self, out: &mut [f64]);

    /// [`TileKernels::residual`] without the `‖r‖²` fold: the same `r`
    /// bits, for a sweep whose norm nobody reads.
    fn residual_no_norm(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self);

    /// `y = A x` over block `bk`'s interior. `x`'s halo must be current.
    fn apply(op: &NinePoint, bk: usize, x: &Self, y: &mut Self);

    /// `y = A x` with `rᵀx` in band 0 of `out` and `yᵀx` in band 1:
    /// ChronGear's `ρ̃` and `δ̃`.
    fn apply_dots(op: &NinePoint, bk: usize, x: &Self, y: &mut Self, r: &Self, out: &mut [f64]);

    /// `z = M⁻¹ r` over the block's interior.
    fn precond(pre: &dyn Preconditioner, bk: usize, r: &Self, z: &mut Self);

    /// Masked `aᵀb` per lane into `out[..w]`, in row-major ocean-point
    /// order (the canonical per-block partial).
    fn dot(a: &Self, b: &Self, mask: &[u8], out: &mut [f64]);

    /// P-CSI's start: `d = γ⁻¹ z ; Δx = d ; x += d`.
    fn csi_start(z: &Self, dx: &mut Self, x: &mut Self, inv_gamma: f64);

    /// P-CSI's update: `d = c·Δx + ω·z ; Δx = d ; x += d`.
    fn csi_update(z: &Self, dx: &mut Self, x: &mut Self, omega: &[f64], c: &[f64]);

    /// ChronGear's four recurrences:
    /// `s = z + βs ; p = Az + βp ; x += αs ; r += (−α)p`.
    #[allow(clippy::too_many_arguments)]
    fn chrongear_update(
        z: &Self,
        az: &Self,
        s: &mut Self,
        p: &mut Self,
        x: &mut Self,
        r: &mut Self,
        beta: &[f64],
        alpha: &[f64],
        nalpha: &[f64],
    );

    /// Classic PCG's iterate update: `x += αp ; r += (−α)Ap`.
    fn pcg_update(p: &Self, ap: &Self, x: &mut Self, r: &mut Self, alpha: &[f64], nalpha: &[f64]);

    /// Classic PCG's direction update: `p = z + βp`.
    fn pcg_direction(z: &Self, p: &mut Self, beta: &[f64]);

    /// PipeCG's eight recurrences. The direction updates read the *old*
    /// `w` and `u` of the point, which are written only afterwards.
    #[allow(clippy::too_many_arguments)]
    fn pipecg_update(
        n: &Self,
        m: &Self,
        z: &mut Self,
        q: &mut Self,
        s: &mut Self,
        p: &mut Self,
        x: &mut Self,
        r: &mut Self,
        u: &mut Self,
        w: &mut Self,
        beta: &[f64],
        alpha: &[f64],
        nalpha: &[f64],
    );

    /// The whole storage, read-only.
    fn raw(&self) -> &[f64];

    /// Copy lane `slot` of `src` into `dst` (interior and halo).
    fn lane_copy(src: &Self, dst: &mut Self, slot: usize);

    /// Does every value of lane `slot` (halo included) stay finite?
    fn lane_finite(&self, slot: usize) -> bool;

    /// Copy lane `slot` out into a single-RHS tile (full storage).
    fn store_lane(&self, slot: usize, dst: &mut BlockVec);

    /// Copy a single-RHS tile into lane `slot` (full storage).
    fn load_lane(&mut self, slot: usize, src: &BlockVec);
}

// ---------------------------------------------------------------------------
// One right-hand side: the point-vectorised kernels
// ---------------------------------------------------------------------------

impl TileKernels for BlockVec {
    #[inline]
    fn residual(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self, out: &mut [f64]) {
        out[0] = op.residual_block_into(bk, x, b, r, &op.layout.masks[bk]);
    }

    #[inline]
    fn residual_no_norm(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self) {
        op.residual_block_no_norm_into(bk, x, b, r, &op.layout.masks[bk]);
    }

    #[inline]
    fn apply(op: &NinePoint, bk: usize, x: &Self, y: &mut Self) {
        op.apply_block_into(bk, x, y, &op.layout.masks[bk]);
    }

    #[inline]
    fn apply_dots(op: &NinePoint, bk: usize, x: &Self, y: &mut Self, r: &Self, out: &mut [f64]) {
        let mask = &op.layout.masks[bk];
        out[..2].copy_from_slice(&op.apply_block_dots_into(bk, x, y, r, mask));
    }

    #[inline]
    fn precond(pre: &dyn Preconditioner, bk: usize, r: &Self, z: &mut Self) {
        pre.apply_block(bk, r, z);
    }

    #[inline]
    fn dot(a: &Self, b: &Self, mask: &[u8], out: &mut [f64]) {
        out[0] = masked_block_dot(a, b, mask);
    }

    fn csi_start(z: &Self, dx: &mut Self, x: &mut Self, inv_gamma: f64) {
        for j in 0..dx.ny {
            let zr = z.interior_row(j);
            let dxr = dx.interior_row_mut(j);
            let xr = x.interior_row_mut(j);
            for i in 0..dxr.len() {
                let d = zr[i] * inv_gamma;
                dxr[i] = d;
                xr[i] += d;
            }
        }
    }

    fn csi_update(z: &Self, dx: &mut Self, x: &mut Self, omega: &[f64], c: &[f64]) {
        let (omega, c) = (omega[0], c[0]);
        for j in 0..dx.ny {
            let zr = z.interior_row(j);
            let dxr = dx.interior_row_mut(j);
            let xr = x.interior_row_mut(j);
            for i in 0..dxr.len() {
                let d = dxr[i] * c + omega * zr[i];
                dxr[i] = d;
                xr[i] += d;
            }
        }
    }

    fn chrongear_update(
        z: &Self,
        az: &Self,
        s: &mut Self,
        p: &mut Self,
        x: &mut Self,
        r: &mut Self,
        beta: &[f64],
        alpha: &[f64],
        nalpha: &[f64],
    ) {
        let (beta, alpha, nalpha) = (beta[0], alpha[0], nalpha[0]);
        let nx = s.nx;
        for j in 0..s.ny {
            // One length for all six rows, so the loop is free of bounds
            // checks and vectorises.
            let zr = &z.interior_row(j)[..nx];
            let azr = &az.interior_row(j)[..nx];
            let sr = &mut s.interior_row_mut(j)[..nx];
            let pr = &mut p.interior_row_mut(j)[..nx];
            let xr = &mut x.interior_row_mut(j)[..nx];
            let rr = &mut r.interior_row_mut(j)[..nx];
            for i in 0..nx {
                let sv = zr[i] + beta * sr[i];
                let pv = azr[i] + beta * pr[i];
                sr[i] = sv;
                pr[i] = pv;
                xr[i] += alpha * sv;
                rr[i] += nalpha * pv;
            }
        }
    }

    fn pcg_update(p: &Self, ap: &Self, x: &mut Self, r: &mut Self, alpha: &[f64], nalpha: &[f64]) {
        let (alpha, nalpha) = (alpha[0], nalpha[0]);
        let nx = x.nx;
        for j in 0..x.ny {
            let pr = p.interior_row(j);
            let apr = ap.interior_row(j);
            let xr = x.interior_row_mut(j);
            let rr = r.interior_row_mut(j);
            for i in 0..nx {
                xr[i] += alpha * pr[i];
                rr[i] += nalpha * apr[i];
            }
        }
    }

    fn pcg_direction(z: &Self, p: &mut Self, beta: &[f64]) {
        let beta = beta[0];
        for j in 0..p.ny {
            let zr = z.interior_row(j);
            let pr = p.interior_row_mut(j);
            for i in 0..pr.len() {
                pr[i] = zr[i] + beta * pr[i];
            }
        }
    }

    fn pipecg_update(
        n: &Self,
        m: &Self,
        z: &mut Self,
        q: &mut Self,
        s: &mut Self,
        p: &mut Self,
        x: &mut Self,
        r: &mut Self,
        u: &mut Self,
        w: &mut Self,
        beta: &[f64],
        alpha: &[f64],
        nalpha: &[f64],
    ) {
        let (beta, alpha, nalpha) = (beta[0], alpha[0], nalpha[0]);
        let nx = z.nx;
        for j in 0..z.ny {
            let nr = n.interior_row(j);
            let mr = m.interior_row(j);
            let zr = z.interior_row_mut(j);
            let qr = q.interior_row_mut(j);
            let sr = s.interior_row_mut(j);
            let pr = p.interior_row_mut(j);
            let xr = x.interior_row_mut(j);
            let rr = r.interior_row_mut(j);
            let ur = u.interior_row_mut(j);
            let wr = w.interior_row_mut(j);
            for i in 0..nx {
                let zv = nr[i] + beta * zr[i];
                let qv = mr[i] + beta * qr[i];
                let sv = wr[i] + beta * sr[i];
                let pv = ur[i] + beta * pr[i];
                zr[i] = zv;
                qr[i] = qv;
                sr[i] = sv;
                pr[i] = pv;
                xr[i] += alpha * pv;
                rr[i] += nalpha * sv;
                ur[i] += nalpha * qv;
                wr[i] += nalpha * zv;
            }
        }
    }

    #[inline]
    fn raw(&self) -> &[f64] {
        BlockVec::raw(self)
    }

    fn lane_copy(src: &Self, dst: &mut Self, _slot: usize) {
        dst.raw_mut().copy_from_slice(src.raw());
    }

    fn lane_finite(&self, _slot: usize) -> bool {
        self.raw().iter().all(|v| v.is_finite())
    }

    fn store_lane(&self, _slot: usize, dst: &mut BlockVec) {
        dst.raw_mut().copy_from_slice(self.raw());
    }

    fn load_lane(&mut self, _slot: usize, src: &BlockVec) {
        self.raw_mut().copy_from_slice(src.raw());
    }
}

// ---------------------------------------------------------------------------
// A batch: the lane-vectorised kernels
// ---------------------------------------------------------------------------
//
// Each pointwise kernel repeats the point kernel's per-point operation order
// in every lane, with per-lane scalars from slot arrays, over the tiles'
// interior lane rows zipped point by point — or, for P-CSI's update, the
// one that runs every iteration, as a lane job (`CsiUpdate`) on the
// dispatched lane type. Plain `mul`/`add` either way: a lanewise
// multiply-add chain has one possible operation sequence, so there is
// nothing mode-dependent to mirror. Tiles of different shapes would zip
// short, so the shapes are compared up front.
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

/// Flat index range of lane-group `g`'s storage in a multi-tile.
#[inline]
fn group_range(mb: &MultiBlockVec, g: usize) -> std::ops::Range<usize> {
    let glen = mb.rows() * mb.stride() * LANES;
    g * glen..(g + 1) * glen
}

/// Lane `slot`'s values in `t`'s storage: one every `LANES` floats of its
/// group's image.
#[inline]
fn lane_values(t: &MultiBlockVec, slot: usize) -> impl Iterator<Item = &f64> {
    t.raw()[group_range(t, slot / LANES)]
        .iter()
        .skip(slot % LANES)
        .step_by(LANES)
}

/// Mutable [`lane_values`].
#[inline]
fn lane_values_mut(t: &mut MultiBlockVec, slot: usize) -> impl Iterator<Item = &mut f64> {
    let r = group_range(t, slot / LANES);
    t.raw_mut()[r].iter_mut().skip(slot % LANES).step_by(LANES)
}

/// P-CSI's batched update as one lane job: at every interior point of each
/// lane group, `d = Δx·c + ω·z ; Δx = d ; x += d` with the group's per-lane
/// `ω` and `c` in registers — the point kernel's operation order in every
/// lane, plain `mul`/`add`, never `mul_add`. Built only by
/// [`TileKernels::csi_update`], after the three tiles' shapes were compared.
struct CsiUpdate<'a> {
    z: &'a MultiBlockVec,
    dx: &'a mut MultiBlockVec,
    x: &'a mut MultiBlockVec,
    omega: &'a [f64],
    c: &'a [f64],
}

impl LaneJob for CsiUpdate<'_> {
    type Out = ();

    #[inline(always)]
    unsafe fn run<V: LaneF64>(self) {
        let CsiUpdate { z, dx, x, omega, c } = self;
        for g in 0..z.groups() {
            let ov = V::load(omega[g * LANES..][..LANES].as_ptr());
            let cv = V::load(c[g * LANES..][..LANES].as_ptr());
            for j in 0..z.ny {
                let zr = z.interior_lane_row(g, j);
                let (dxr, xr) = (
                    dx.interior_lane_row_mut(g, j),
                    x.interior_lane_row_mut(g, j),
                );
                // One length for the three rows (`nx` points of `LANES`
                // values): the shapes were compared where the job was built.
                let n = zr.len();
                assert!(dxr.len() == n && xr.len() == n);
                let (zp, dxp, xp) = (zr.as_ptr(), dxr.as_mut_ptr(), xr.as_mut_ptr());
                let mut i = 0;
                while i + LANES <= n {
                    // SAFETY: `i + LANES ≤ n`.
                    let d = V::load(dxp.add(i)).mul(cv).add(ov.mul(V::load(zp.add(i))));
                    d.store(dxp.add(i));
                    V::load(xp.add(i)).add(d).store(xp.add(i));
                    i += LANES;
                }
            }
        }
    }
}

impl TileKernels for MultiBlockVec {
    #[inline]
    fn residual(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self, out: &mut [f64]) {
        op.residual_block_multi(bk, x, b, r, out);
    }

    #[inline]
    fn residual_no_norm(op: &NinePoint, bk: usize, x: &Self, b: &Self, r: &mut Self) {
        op.residual_block_multi_no_norm(bk, x, b, r);
    }

    #[inline]
    fn apply(op: &NinePoint, bk: usize, x: &Self, y: &mut Self) {
        op.apply_block_multi(bk, x, y);
    }

    fn apply_dots(op: &NinePoint, bk: usize, x: &Self, y: &mut Self, r: &Self, out: &mut [f64]) {
        let (w, mask) = (x.groups() * LANES, &op.layout.masks[bk]);
        op.apply_block_multi(bk, x, y);
        masked_dot_multi(r, x, mask, &mut out[..w]);
        masked_dot_multi(y, x, mask, &mut out[w..2 * w]);
    }

    #[inline]
    fn precond(pre: &dyn Preconditioner, bk: usize, r: &Self, z: &mut Self) {
        pre.apply_block_multi(bk, r, z);
    }

    #[inline]
    fn dot(a: &Self, b: &Self, mask: &[u8], out: &mut [f64]) {
        masked_dot_multi(a, b, mask, out);
    }

    fn csi_start(z: &Self, dx: &mut Self, x: &mut Self, inv_gamma: f64) {
        assert_same_shape(z, &[dx, x]);
        for g in 0..z.groups() {
            for j in 0..z.ny {
                let rows = points(z, g, j)
                    .zip(points_mut(dx, g, j))
                    .zip(points_mut(x, g, j));
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

    fn csi_update(z: &Self, dx: &mut Self, x: &mut Self, omega: &[f64], c: &[f64]) {
        assert_same_shape(z, &[dx, x]);
        let job = CsiUpdate { z, dx, x, omega, c };
        pop_simd::dispatch(pop_simd::mode(), job);
    }

    fn chrongear_update(
        z: &Self,
        az: &Self,
        s: &mut Self,
        p: &mut Self,
        x: &mut Self,
        r: &mut Self,
        beta: &[f64],
        alpha: &[f64],
        nalpha: &[f64],
    ) {
        assert_same_shape(z, &[az, s, p, x, r]);
        for g in 0..z.groups() {
            let bv = lane_scalars(beta, g);
            let (av, nav) = (lane_scalars(alpha, g), lane_scalars(nalpha, g));
            for j in 0..z.ny {
                let rows = points(z, g, j)
                    .zip(points(az, g, j))
                    .zip(points_mut(s, g, j))
                    .zip(points_mut(p, g, j))
                    .zip(points_mut(x, g, j))
                    .zip(points_mut(r, g, j));
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

    fn pcg_update(p: &Self, ap: &Self, x: &mut Self, r: &mut Self, alpha: &[f64], nalpha: &[f64]) {
        assert_same_shape(p, &[ap, x, r]);
        for g in 0..p.groups() {
            let (av, nav) = (lane_scalars(alpha, g), lane_scalars(nalpha, g));
            for j in 0..p.ny {
                let rows = points(p, g, j)
                    .zip(points(ap, g, j))
                    .zip(points_mut(x, g, j))
                    .zip(points_mut(r, g, j));
                for (((p, ap), x), r) in rows {
                    for l in 0..LANES {
                        x[l] += av[l] * p[l];
                        r[l] += nav[l] * ap[l];
                    }
                }
            }
        }
    }

    fn pcg_direction(z: &Self, p: &mut Self, beta: &[f64]) {
        assert_same_shape(z, &[p]);
        for g in 0..z.groups() {
            let bv = lane_scalars(beta, g);
            for j in 0..z.ny {
                for (z, p) in points(z, g, j).zip(points_mut(p, g, j)) {
                    for l in 0..LANES {
                        p[l] = z[l] + bv[l] * p[l];
                    }
                }
            }
        }
    }

    fn pipecg_update(
        n: &Self,
        m: &Self,
        z: &mut Self,
        q: &mut Self,
        s: &mut Self,
        p: &mut Self,
        x: &mut Self,
        r: &mut Self,
        u: &mut Self,
        w: &mut Self,
        beta: &[f64],
        alpha: &[f64],
        nalpha: &[f64],
    ) {
        assert_same_shape(n, &[m, z, q, s, p, x, r, u, w]);
        for g in 0..n.groups() {
            let bv = lane_scalars(beta, g);
            let (av, nav) = (lane_scalars(alpha, g), lane_scalars(nalpha, g));
            for j in 0..n.ny {
                let rows = points(n, g, j)
                    .zip(points(m, g, j))
                    .zip(points_mut(z, g, j))
                    .zip(points_mut(q, g, j))
                    .zip(points_mut(s, g, j))
                    .zip(points_mut(p, g, j))
                    .zip(points_mut(x, g, j))
                    .zip(points_mut(r, g, j))
                    .zip(points_mut(u, g, j))
                    .zip(points_mut(w, g, j));
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

    #[inline]
    fn raw(&self) -> &[f64] {
        MultiBlockVec::raw(self)
    }

    fn lane_copy(src: &Self, dst: &mut Self, slot: usize) {
        for (d, s) in lane_values_mut(dst, slot).zip(lane_values(src, slot)) {
            *d = *s;
        }
    }

    fn lane_finite(&self, slot: usize) -> bool {
        lane_values(self, slot).all(|v| v.is_finite())
    }

    fn store_lane(&self, slot: usize, dst: &mut BlockVec) {
        MultiBlockVec::store_lane(self, slot / LANES, slot % LANES, dst);
    }

    fn load_lane(&mut self, slot: usize, src: &BlockVec) {
        MultiBlockVec::load_lane(self, slot / LANES, slot % LANES, src);
    }
}
