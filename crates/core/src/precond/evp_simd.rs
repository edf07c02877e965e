//! Lane-parallel kernels for the EVP sub-block solve.
//!
//! The solve of a tile that has no same-shape sibling in its block (the
//! packed tiles of a block run four at a time through
//! [`super::evp_multi`] instead). Two kernels dominate it (DESIGN.md §9):
//! the marching sweep and the dense influence-matrix apply. Each is written
//! once as a generic 4-lane kernel over [`pop_simd::LaneF64`] and
//! instantiated for the portable lanes and AVX2, next to a scalar reference
//! arm; all arms are bitwise identical.
//!
//! ## The restructured march
//!
//! The classic marching recurrence solves the equation centered at
//! `(i, j)` for `x(i+1, j+1)`, which chains a divide into every step of a
//! loop-carried dependency. We split each center row into
//!
//! 1. a **g-pass** over terms from already-completed rows:
//!    `g_i = (ψ_i − q_i) · d⁻¹_i` with `d⁻¹_i = 1/ANE(i,j)` precomputed at
//!    setup — independent per column, so it vectorizes lane-parallel, and
//! 2. a **chain pass** over the in-progress output row,
//!    `y_{i+1} = g_i − h2_i·y_{i−1}` (reduced) or
//!    `y_{i+1} = (g_i − h1_i·y_i) − h2_i·y_{i−1}` (full), with
//!    `h1 = AN(i,j)/ANE(i,j)`, `h2 = ANE(i−1,j)/ANE(i,j)` precomputed at
//!    setup ([`MarchPlan`]).
//!
//! The chain keeps only a multiply and a subtract on the critical path
//! (the divide became a setup-time reciprocal). Within one tile it is a
//! serial recurrence, so here it runs as the *same scalar loop in every
//! dispatch mode*; lanes only help it *across* tiles or right-hand sides,
//! which is [`super::evp_multi`]'s job. The g-pass is bitwise
//! mode-independent because each lane performs the scalar operation
//! sequence for its own column.
//!
//! (Expanding the reduced recurrence one level — distance-4, four
//! interleaved chains — was tried and measured *slower* at POP's 8–12
//! column tiles: the extra pass and register rotation cost more than the
//! halved serial latency. The distance-2 form below is the measured
//! optimum at these row lengths.)
//!
//! The influence apply uses a transposed copy of `R = W⁻¹` laid out at
//! setup so four *output* rows share one lane group; each lane accumulates
//! over columns in ascending order starting from `+0.0`, exactly the
//! scalar row dot product.

use pop_simd::{LaneF64, Portable4, SimdMode, LANES};
use pop_stencil::LocalStencil;

/// The coefficient planes of a [`MarchPlan`], in storage order: plane `f`
/// holds one value per tile point, row-major, at `c[f·nx·ny ..]`. The first
/// [`planes`]`(true)` serve the reduced system; the full system adds the
/// axis couplings.
pub(super) const A0: usize = 0;
/// `ANE(i, j−1)`, the coupling to `x(i+1, j−1)`.
pub(super) const ANE_S: usize = 1;
/// `ANE(i−1, j−1)`, the coupling to `x(i−1, j−1)`.
pub(super) const ANE_SW: usize = 2;
/// `1/ANE(i,j)`: the marching pivot as a reciprocal, so the per-point
/// divide becomes a multiply in *every* arm (the arms stay bitwise
/// identical; the one-time reciprocal rounding is absorbed by the influence
/// matrix, which is marched with the same plan).
pub(super) const D_INV: usize = 3;
/// The chain coefficient `ANE(i−1,j)/ANE(i,j)`, stored ready for the chain
/// step this CPU runs: negated where the step is `fma(−h2, y₋₂, g)`
/// ([`pop_simd::detected_fma`]), as is where it is `g − h2·y₋₂`.
pub(super) const H2: usize = 4;
/// `AN(i, j−1)`.
pub(super) const AN_S: usize = 5;
pub(super) const AE: usize = 6;
/// `AE(i−1, j)`.
pub(super) const AE_W: usize = 7;
/// `AN(i,j)/ANE(i,j)`, signed like [`H2`]. (The reduced system has no such
/// plane: the term is dropped, not multiplied by zero — `0·y` is not
/// bitwise neutral for `−0.0`.)
pub(super) const H1: usize = 8;

/// How many coefficient planes a marching tile carries.
pub(super) const fn planes(reduced: bool) -> usize {
    if reduced {
        H2 + 1
    } else {
        H1 + 1
    }
}

/// Setup-time precomputation for the restructured marching sweep: every
/// coefficient a sweep reads, as row-major `nx × ny` planes (see [`A0`] …
/// [`H1`]). Built only for marchable tiles (`ANE ≠ 0` at every center); the
/// tile's `LocalStencil` is not needed afterwards.
#[derive(Debug, Clone)]
pub(super) struct MarchPlan {
    pub(super) nx: usize,
    pub(super) ny: usize,
    pub(super) reduced: bool,
    pub(super) c: Vec<f64>,
}

impl MarchPlan {
    pub(super) fn new(st: &LocalStencil, reduced: bool) -> Self {
        let (nx, ny) = (st.nx, st.ny);
        let (cs, a0, an, ae, ane) = st.raw_parts();
        let n = nx * ny;
        let chain = |h: f64| if pop_simd::detected_fma() { -h } else { h };
        let mut c = vec![0.0; planes(reduced) * n];
        for j in 0..ny {
            for i in 0..nx {
                let (p, ck) = (j * nx + i, (j + 1) * cs + 1 + i);
                c[A0 * n + p] = a0[ck];
                c[ANE_S * n + p] = ane[ck - cs];
                c[ANE_SW * n + p] = ane[ck - cs - 1];
                c[D_INV * n + p] = 1.0 / ane[ck];
                c[H2 * n + p] = chain(ane[ck - 1] / ane[ck]);
                if !reduced {
                    c[AN_S * n + p] = an[ck - cs];
                    c[AE * n + p] = ae[ck];
                    c[AE_W * n + p] = ae[ck - 1];
                    c[H1 * n + p] = chain(an[ck] / ane[ck]);
                }
            }
        }
        MarchPlan { nx, ny, reduced, c }
    }

    /// Row `j` of plane `f`; empty for a plane the reduced system lacks.
    #[inline(always)]
    fn row(&self, f: usize, j: usize) -> &[f64] {
        if f >= planes(self.reduced) {
            return &[];
        }
        // SAFETY: plane `f` exists and `j < ny` (debug-checked in `window`).
        unsafe { pop_simd::window(&self.c, (f * self.ny + j) * self.nx, self.nx) }
    }
}

/// Marching-pad indices (row stride `nx + 2`) of the initial-guess line
/// `e`: south row then west column (paper Fig. 5).
pub(super) fn e_line(nx: usize, ny: usize) -> impl Iterator<Item = usize> {
    let xs = nx + 2;
    (0..nx)
        .map(move |i| xs + i + 1)
        .chain((1..ny).map(move |j| (j + 1) * xs + 1))
}

/// Marching-pad indices of the overshoot line `f` on the Dirichlet ring:
/// north ring then east ring. As long as [`e_line`]: `nx + ny − 1`.
pub(super) fn f_line(nx: usize, ny: usize) -> impl Iterator<Item = usize> {
    let xs = nx + 2;
    (1..=nx)
        .map(move |i| (ny + 1) * xs + i + 1)
        .chain((1..ny).map(move |j| (j + 1) * xs + nx + 1))
}

/// The scalar chain pass shared verbatim by every dispatch mode. `out` is
/// the padded output row (logical row `j+1`): `out[0]` = west ring
/// `x(−1, j+1)`, `out[1]` = preset guess `x(0, j+1)`, and `out[i+2]`
/// receives `x(i+1, j+1)`.
///
/// The recurrence is the tile solve's serial critical path, so on CPUs
/// with FMA it runs as one fused `y = fma(−h2, y₋₂, g)` per step — half
/// the dependency latency of `mul` then `sub`. The FMA choice is a CPU
/// property, *not* a dispatch-mode property (the plan's chain planes are
/// signed for it at set-up): every mode runs the same chain code, so
/// scalar↔SIMD bitwise identity is preserved.
#[inline(always)]
fn chain_row(reduced: bool, h1row: &[f64], h2row: &[f64], g: &[f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if pop_simd::detected_fma() {
        // SAFETY: FMA support was just detected at runtime.
        unsafe { chain_row_fma(reduced, h1row, h2row, g, out) };
        return;
    }
    chain_row_plain(reduced, h1row, h2row, g, out)
}

#[inline(always)]
fn chain_row_plain(reduced: bool, h1row: &[f64], h2row: &[f64], g: &[f64], out: &mut [f64]) {
    let mut ym1 = out[0];
    let mut y0 = out[1];
    let out = &mut out[2..2 + g.len()];
    if reduced {
        for ((o, &gi), &h2i) in out.iter_mut().zip(g).zip(h2row) {
            let y = gi - h2i * ym1;
            *o = y;
            ym1 = y0;
            y0 = y;
        }
    } else {
        for (((o, &gi), &h1i), &h2i) in out.iter_mut().zip(g).zip(h1row).zip(h2row) {
            let y = (gi - h1i * y0) - h2i * ym1;
            *o = y;
            ym1 = y0;
            y0 = y;
        }
    }
}

/// [`chain_row_plain`] with each `g − h·y` contracted to `fma(−h, y, g)`
/// (negation is exact, so this is the correctly-rounded fused form); the
/// rows hold `−h`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "fma")]
unsafe fn chain_row_fma(reduced: bool, h1row: &[f64], h2row: &[f64], g: &[f64], out: &mut [f64]) {
    let mut ym1 = out[0];
    let mut y0 = out[1];
    let out = &mut out[2..2 + g.len()];
    if reduced {
        for ((o, &gi), &nh2) in out.iter_mut().zip(g).zip(h2row) {
            let y = nh2.mul_add(ym1, gi);
            *o = y;
            ym1 = y0;
            y0 = y;
        }
    } else {
        for (((o, &gi), &nh1), &nh2) in out.iter_mut().zip(g).zip(h1row).zip(h2row) {
            let y = nh2.mul_add(ym1, nh1.mul_add(y0, gi));
            *o = y;
            ym1 = y0;
            y0 = y;
        }
    }
}

/// The completed-row operand windows of center row `j`, all of length
/// `nx` and indexed by column `i`.
struct GRows<'a> {
    a0c: &'a [f64],
    d: &'a [f64],
    ane_s: &'a [f64],
    ane_sw: &'a [f64],
    an_s: &'a [f64],
    aec: &'a [f64],
    aew: &'a [f64],
    xc: &'a [f64],
    xe: &'a [f64],
    xw: &'a [f64],
    xs_: &'a [f64],
    xse: &'a [f64],
    xsw: &'a [f64],
}

impl<'a> GRows<'a> {
    #[inline(always)]
    fn slice(plan: &'a MarchPlan, done: &'a [f64], xs: usize, j: usize) -> GRows<'a> {
        let (reduced, nx) = (plan.reduced, plan.nx);
        let xrow = (j + 1) * xs + 1;
        // SAFETY: `xrow + 1 + nx = (j+2)·xs = done.len()` for every
        // `j < ny`; all other windows start lower. (Debug-checked inside
        // `window`.)
        unsafe {
            let w = pop_simd::window;
            GRows {
                a0c: plan.row(A0, j),
                d: plan.row(D_INV, j),
                ane_s: plan.row(ANE_S, j),
                ane_sw: plan.row(ANE_SW, j),
                an_s: plan.row(AN_S, j),
                aec: plan.row(AE, j),
                aew: plan.row(AE_W, j),
                xc: w(done, xrow, nx),
                xe: if reduced { &[] } else { w(done, xrow + 1, nx) },
                xw: if reduced { &[] } else { w(done, xrow - 1, nx) },
                xs_: if reduced { &[] } else { w(done, xrow - xs, nx) },
                xse: w(done, xrow - xs + 1, nx),
                xsw: w(done, xrow - xs - 1, nx),
            }
        }
    }

    /// `g_i = (ψ_i − q_i) · d⁻¹_i`, scalar.
    #[inline(always)]
    fn g_scalar(&self, reduced: bool, rhs: &[f64], i: usize) -> f64 {
        let mut q =
            self.a0c[i] * self.xc[i] + self.ane_s[i] * self.xse[i] + self.ane_sw[i] * self.xsw[i];
        if !reduced {
            q += self.an_s[i] * self.xs_[i] + self.aec[i] * self.xe[i] + self.aew[i] * self.xw[i];
        }
        (rhs[i] - q) * self.d[i]
    }

    /// The lane image of [`GRows::g_scalar`]: four columns per group, the
    /// identical operation sequence in each lane — the full system's three
    /// axis terms are summed among themselves before joining `q`, as the
    /// scalar `q += t4 + t5 + t6` does.
    ///
    /// # Safety
    /// `i + LANES <= nx`; with AVX2 lanes the caller must run under the
    /// `avx2` target feature.
    #[inline(always)]
    unsafe fn g_lanes<V: LaneF64>(&self, reduced: bool, rhs: &[f64], i: usize) -> V {
        let at = |s: &[f64]| V::load(s.as_ptr().add(i));
        let q = at(self.a0c).mul(at(self.xc));
        let q = q.add(at(self.ane_s).mul(at(self.xse)));
        let mut q = q.add(at(self.ane_sw).mul(at(self.xsw)));
        if !reduced {
            let t4 = at(self.an_s).mul(at(self.xs_));
            let t5 = at(self.aec).mul(at(self.xe));
            let t6 = at(self.aew).mul(at(self.xw));
            q = q.add(t4.add(t5).add(t6));
        }
        at(rhs).sub(q).mul(at(self.d))
    }
}

/// One center row of the sweep: the g-pass (`lanes` picks its arm), then the
/// chain into the output row.
#[inline(always)]
fn march_row<V: LaneF64>(
    lanes: bool,
    plan: &MarchPlan,
    xpad: &mut [f64],
    rhs: &[f64],
    g: &mut [f64],
    j: usize,
) {
    let nx = plan.nx;
    let xs = nx + 2;
    let (done, rest) = xpad.split_at_mut((j + 2) * xs);
    let rows = GRows::slice(plan, done, xs, j);
    let mut i = 0;
    while lanes && i + LANES <= nx {
        // SAFETY: `i + LANES <= nx`, the length of every window and of `g`.
        unsafe {
            rows.g_lanes::<V>(plan.reduced, rhs, i)
                .store(g.as_mut_ptr().add(i));
        }
        i += LANES;
    }
    for (k, gk) in g.iter_mut().enumerate().take(nx).skip(i) {
        *gk = rows.g_scalar(plan.reduced, rhs, k);
    }
    chain_row(
        plan.reduced,
        plan.row(H1, j),
        plan.row(H2, j),
        g,
        &mut rest[..xs],
    );
}

#[inline(always)]
fn march_rows<V: LaneF64>(
    lanes: bool,
    plan: &MarchPlan,
    xpad: &mut [f64],
    (psi, psi_stride): (&[f64], usize),
    g: &mut [f64],
) {
    for j in 0..plan.ny {
        let rhs = &psi[j * psi_stride..j * psi_stride + plan.nx];
        march_row::<V>(lanes, plan, xpad, rhs, g, j);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn march_avx2(plan: &MarchPlan, xpad: &mut [f64], psi: (&[f64], usize), g: &mut [f64]) {
    march_rows::<pop_simd::Avx2>(true, plan, xpad, psi, g);
}

/// One southwest→northeast marching sweep (paper Eq. 4) in the
/// restructured g/chain form. `psi = (slice, row stride)` is the right-hand
/// side, read in place (the influence-matrix preprocessing sweeps pass one
/// zero row with stride 0). Values on the guess line `e` and the south/west
/// ring must be preset; everything with `i ≥ 1 ∧ j ≥ 1` — including the
/// north/east ring — is produced. `g` is caller scratch (resized here).
pub(super) fn march(
    mode: SimdMode,
    plan: &MarchPlan,
    xpad: &mut [f64],
    psi: (&[f64], usize),
    g: &mut Vec<f64>,
) {
    debug_assert_eq!(xpad.len(), (plan.nx + 2) * (plan.ny + 2));
    g.clear();
    g.resize(plan.nx, 0.0);
    match mode {
        SimdMode::Scalar => march_rows::<Portable4>(false, plan, xpad, psi, g),
        SimdMode::Portable => march_rows::<Portable4>(true, plan, xpad, psi, g),
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection.
            unsafe {
                march_avx2(plan, xpad, psi, g)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

/// Zero exactly the marching-pad cells a sweep *reads before writing*: the
/// full south pad rows 0–1 (ring plus south e-line) and pad columns 0–1 of
/// every higher row (west ring plus west e-line). Everything else — the
/// whole interior and the north/east ring — is written by the sweep's
/// chain pass before any later row's g-pass reads it, so stale values from
/// a previous sweep (or a previous tile's solve) are unreachable. This
/// replaces a full `fill(0.0)` of the pad on the per-iteration hot path.
pub(super) fn reset_march_pad(xpad: &mut [f64], nx: usize, ny: usize) {
    let xs = nx + 2;
    xpad[..2 * xs].fill(0.0);
    for j in 2..ny + 2 {
        xpad[j * xs] = 0.0;
        xpad[j * xs + 1] = 0.0;
    }
}

// ---------------------------------------------------------------------------
// Influence-matrix apply
// ---------------------------------------------------------------------------

/// Transpose `R = W⁻¹` into the lane layout: column-major with the row
/// count padded to `kp = round_up_lanes(k)` (`rt[c·kp + r] = R[r][c]`,
/// zero-filled pad rows), so four output rows load as one lane group.
pub(super) fn transpose_padded(r_inv: &pop_stencil::DenseMatrix, kp: usize) -> Vec<f64> {
    let k = r_inv.n();
    let mut rt = vec![0.0; k * kp];
    for c in 0..k {
        for r in 0..k {
            rt[c * kp + r] = r_inv.get(r, c);
        }
    }
    rt
}

/// The scalar reference: each output row of the row-major `r_inv` is an
/// ascending-column left fold from `+0.0` — the accumulation order the lane
/// kernels reproduce per output row.
fn matvec_scalar(r_inv: &[f64], x: &[f64], y: &mut [f64]) {
    for (yr, row) in y.iter_mut().zip(r_inv.chunks_exact(x.len())) {
        *yr = row.iter().zip(x).fold(0.0, |acc, (r, xc)| acc + r * xc);
    }
}

#[inline(always)]
fn matvec_lanes<V: LaneF64>(rt: &[f64], kp: usize, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(y.len(), kp);
    // Up to four lane groups (16 output rows) advance together through one
    // pass over `x`: one splat per column feeds every group, and the
    // independent accumulators hide the add latency. Each output row still
    // accumulates ascending columns from +0.0 — exactly the scalar order.
    let mut r0 = 0;
    while r0 < kp {
        match ((kp - r0) / LANES).min(4) {
            1 => matvec_groups::<V, 1>(rt, kp, x, y, r0),
            2 => matvec_groups::<V, 2>(rt, kp, x, y, r0),
            3 => matvec_groups::<V, 3>(rt, kp, x, y, r0),
            _ => matvec_groups::<V, 4>(rt, kp, x, y, r0),
        }
        r0 += ((kp - r0) / LANES).min(4) * LANES;
    }
}

#[inline(always)]
fn matvec_groups<V: LaneF64, const NG: usize>(
    rt: &[f64],
    kp: usize,
    x: &[f64],
    y: &mut [f64],
    r0: usize,
) {
    let mut acc = [V::splat(0.0); NG];
    for (c, &xc) in x.iter().enumerate() {
        let xv = V::splat(xc);
        let col = c * kp + r0;
        for (gi, a) in acc.iter_mut().enumerate() {
            unsafe {
                *a = a.add(V::load(rt.as_ptr().add(col + gi * LANES)).mul(xv));
            }
        }
    }
    for (gi, a) in acc.iter().enumerate() {
        unsafe {
            a.store(y.as_mut_ptr().add(r0 + gi * LANES));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn matvec_avx2(rt: &[f64], kp: usize, x: &[f64], y: &mut [f64]) {
    matvec_lanes::<pop_simd::Avx2>(rt, kp, x, y);
}

/// `corr = R · f` with the dispatch-selected kernel. `corr` is resized to
/// `kp`; entries `0..f.len()` carry the product (pad entries are zero).
pub(super) fn influence_apply(
    mode: SimdMode,
    r_inv: &[f64],
    rt: &[f64],
    kp: usize,
    f: &[f64],
    corr: &mut Vec<f64>,
) {
    corr.clear();
    corr.resize(kp, 0.0);
    match mode {
        SimdMode::Scalar => matvec_scalar(r_inv, f, corr),
        SimdMode::Portable => matvec_lanes::<Portable4>(rt, kp, f, corr),
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection.
            unsafe {
                matvec_avx2(rt, kp, f, corr)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every arm folds a row from `+0.0`: products that are all `−0.0` sum
    /// to `+0.0`, never to the `−0.0` an `Iterator::sum` fold starts from.
    #[test]
    fn influence_apply_folds_from_positive_zero_in_every_mode() {
        let k = 7;
        let r_inv: Vec<f64> = (0..k * k).map(|q| 1.0 + q as f64).collect();
        let m = pop_stencil::DenseMatrix::from_fn(k, |r, c| r_inv[r * k + c]);
        let kp = pop_simd::round_up_lanes(k);
        let rt = transpose_padded(&m, kp);
        let f = vec![-0.0; k];
        let mut modes = vec![SimdMode::Scalar, SimdMode::Portable];
        if pop_simd::detected_avx2() {
            modes.push(SimdMode::Avx2);
        }
        for mode in modes {
            let mut corr = vec![1.0; 3];
            influence_apply(mode, &r_inv, &rt, kp, &f, &mut corr);
            for (r, v) in corr[..k].iter().enumerate() {
                assert_eq!(v.to_bits(), 0.0f64.to_bits(), "{mode:?} row {r}: {v:?}");
            }
        }
    }
}
