//! `k`-wide lane-parallel kernels for the EVP tile solve: the batched image
//! of [`super::evp_simd`].
//!
//! A batched tile solve marches **all `groups() · LANES` right-hand sides
//! at once**. The marching pad is superlane-major (`groups · LANES`
//! consecutive `f64` per pad point — lane group, then lane), every
//! stencil/chain coefficient is splat once and shared by all lanes of all
//! groups, and the influence matrix `R = W⁻¹` — the expensive setup
//! product of a tile — is traversed once per application and applied to
//! every overshoot vector in the same pass. That is where the batching win
//! comes from, twice over: the coefficient and matrix loads that dominate
//! a single-RHS tile solve are amortized across the full batch, and the
//! latency-bound chain recurrence runs one *independent* chain per lane
//! group, so up to [`MAX_GROUPS`] recurrences are in flight per row
//! instead of one.
//!
//! Each lane executes exactly the per-point operation sequence of the
//! single-RHS lane kernels (which the dispatch layer pins bitwise identical
//! to the scalar reference arms — `tests/simd_equivalence.rs`), so per-lane
//! results are bitwise identical to [`super::EvpSubBlock::solve_strided_mode`]
//! under every dispatch mode: interleaving independent lane groups reorders
//! *instructions*, never any lane's arithmetic. Two rules carry over
//! unchanged:
//!
//! - the chain recurrence's FMA contraction is keyed on the CPU property
//!   [`pop_simd::detected_fma`], never on the dispatch mode, and the lane
//!   form `fma(splat(−h), y, g)` is the exact lane image of the scalar
//!   `(−h).mul_add(y, g)`;
//! - the influence apply accumulates each output row over ascending columns
//!   from `+0.0`, the scalar row dot product, with one splat per matrix
//!   entry feeding all lanes.

use super::evp_simd::MarchPlan;
use pop_simd::{LaneF64, Portable4, SimdMode, LANES};
use pop_stencil::dense::BandLu;
use pop_stencil::{DenseMatrix, LocalStencil};

/// The most lane groups one batched tile solve interleaves:
/// `MAX_BATCH / LANES` (`crate::solvers::batch`). The kernels keep one
/// chain/accumulator register per group, so the bound is a compile-time
/// array size.
pub(super) const MAX_GROUPS: usize = 4;

const _: () = assert!(crate::solvers::MAX_BATCH <= MAX_GROUPS * LANES);

/// Reusable scratch for the batched tile solve; lives inside the same
/// thread-local as the single-RHS tile scratch so steady-state batched
/// preconditioner applications allocate nothing.
#[derive(Debug, Default, Clone)]
pub(super) struct MultiEvpScratch {
    /// Superlane-major marching pad: `(nx+2)·(ny+2)` points of
    /// `groups·LANES` values.
    pub(super) xpad: Vec<f64>,
    /// Per-row `g` buffer: `nx` points of `groups·LANES` values.
    pub(super) g: Vec<f64>,
    /// Overshoot-ring values: ring length × `groups·LANES`.
    pub(super) fvals: Vec<f64>,
    /// Guess correction `R·f`: ring length × `groups·LANES`.
    pub(super) corr: Vec<f64>,
    /// Superlane-major contiguous staging tile for the band-LU solve (in
    /// place: `ψ` in, `x` out).
    pub(super) x_t: Vec<f64>,
}

/// Zero the superlane-major pad cells a batched sweep reads before writing:
/// the two full south pad rows and the two west pad columns of every higher
/// row (see [`super::evp_simd::reset_march_pad`] for why the rest of the
/// pad needs no reset). `sl = groups · LANES` is the per-point width.
pub(super) fn reset_march_pad_multi(xpad: &mut [f64], nx: usize, ny: usize, sl: usize) {
    let xs = (nx + 2) * sl;
    xpad[..2 * xs].fill(0.0);
    for j in 2..ny + 2 {
        xpad[j * xs..j * xs + 2 * sl].fill(0.0);
    }
}

/// The lane-parallel southwest→northeast marching sweep over the
/// superlane-major pad: per center row, a lane-wide g-pass then the
/// lane-wide chain recurrences, all lane groups interleaved.
///
/// `psi` starts at the tile's first interior lane group of **lane group 0**
/// inside its parent [`pop_comm::MultiBlockVec`] storage; lane group `g`'s
/// tile sits `g · psi_gstride` elements later and each advances
/// `psi_stride` `f64` elements per tile row (`block stride · LANES`); each
/// lane reads its own right-hand side.
///
/// The full (non-reduced) g-pass sums its three extra terms in a
/// **column-dependent** order, because the single-RHS kernels do: the
/// scalar arm groups them (`q += t4 + t5 + t6`), while the lane arm adds
/// them sequentially for full lane chunks and falls back to the scalar
/// grouping for the `nx % LANES` tail columns. `tail_from` is the first
/// column the single-RHS kernel of the active mode computed with the
/// scalar grouping (0 under scalar dispatch, `nx − nx % LANES` under lane
/// dispatch); matching it per column is what keeps every lane bitwise
/// faithful. Reduced tiles have only three terms, whose order is the same
/// in both arms.
///
/// # Safety
/// With AVX2 lanes the caller must run under the `avx2` target feature, and
/// additionally `fma` when `use_fma` is set.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn march_multi_lanes<V: LaneF64>(
    st: &LocalStencil,
    plan: &MarchPlan,
    xpad: &mut [f64],
    psi: &[f64],
    psi_stride: usize,
    psi_gstride: usize,
    g: &mut [f64],
    use_fma: bool,
    tail_from: usize,
    groups: usize,
) {
    let (nx, ny) = (st.nx, st.ny);
    let xs = nx + 2;
    let sl = groups * LANES;
    let (cs, a0, an, ae, ane) = st.raw_parts();
    let reduced = plan.reduced;
    for j in 0..ny {
        let crow = (j + 1) * cs + 1;
        // Split so the g-pass reads only completed rows while the chain
        // writes the in-progress output row — same aliasing discipline as
        // the single-RHS sweep.
        let (done, rest) = xpad.split_at_mut((j + 2) * xs * sl);
        // Pad *point* index of `x(0, j)`'s cell; lane group `g` of point
        // `p` lives at `p·sl + g·LANES`.
        let xrow = (j + 1) * xs + 1;
        for i in 0..nx {
            let ck = crow + i;
            let xk = xrow + i;
            // One splat per coefficient, shared by every lane group.
            let a0v = V::splat(a0[ck]);
            let ane_n = V::splat(ane[ck - cs]);
            let ane_sw = V::splat(ane[ck - cs - 1]);
            let dv = V::splat(plan.d_inv[j * nx + i]);
            let at = |p: usize, gr: usize| V::load(done.as_ptr().add(p * sl + gr * LANES));
            if reduced {
                for gr in 0..groups {
                    let q = a0v.mul(at(xk, gr));
                    let q = q.add(ane_n.mul(at(xk - (xs - 1), gr)));
                    let q = q.add(ane_sw.mul(at(xk - (xs + 1), gr)));
                    let rhs = V::load(
                        psi.as_ptr()
                            .add(gr * psi_gstride + j * psi_stride + i * LANES),
                    );
                    rhs.sub(q)
                        .mul(dv)
                        .store(g.as_mut_ptr().add(i * sl + gr * LANES));
                }
            } else {
                let an_v = V::splat(an[ck - cs]);
                let ae_e = V::splat(ae[ck]);
                let ae_w = V::splat(ae[ck - 1]);
                for gr in 0..groups {
                    let q = a0v.mul(at(xk, gr));
                    let q = q.add(ane_n.mul(at(xk - (xs - 1), gr)));
                    let mut q = q.add(ane_sw.mul(at(xk - (xs + 1), gr)));
                    let t4 = an_v.mul(at(xk - xs, gr));
                    let t5 = ae_e.mul(at(xk + 1, gr));
                    let t6 = ae_w.mul(at(xk - 1, gr));
                    if i < tail_from {
                        q = q.add(t4).add(t5).add(t6);
                    } else {
                        q = q.add(t4.add(t5).add(t6));
                    }
                    let rhs = V::load(
                        psi.as_ptr()
                            .add(gr * psi_gstride + j * psi_stride + i * LANES),
                    );
                    rhs.sub(q)
                        .mul(dv)
                        .store(g.as_mut_ptr().add(i * sl + gr * LANES));
                }
            }
        }
        let h1row = if reduced {
            &[][..]
        } else {
            &plan.h1[j * nx..(j + 1) * nx]
        };
        chain_row_multi::<V>(
            reduced,
            h1row,
            &plan.h2[j * nx..(j + 1) * nx],
            g,
            &mut rest[..xs * sl],
            use_fma,
            groups,
        );
    }
}

/// The lane-wide chain recurrence: each lane runs the scalar chain of
/// [`super::evp_simd`] on its own RHS, with `h1`/`h2` splat once from the
/// shared plan and fed to one independent recurrence per lane group —
/// [`MAX_GROUPS`] chains in flight where the single-RHS kernel has one.
/// `out` is the padded superlane-major output row: point 0 = west ring,
/// point 1 = preset guess, point `i+2` receives `x(i+1, j+1)`.
#[inline(always)]
unsafe fn chain_row_multi<V: LaneF64>(
    reduced: bool,
    h1row: &[f64],
    h2row: &[f64],
    g: &[f64],
    out: &mut [f64],
    use_fma: bool,
    groups: usize,
) {
    let sl = groups * LANES;
    let mut ym1 = [V::splat(0.0); MAX_GROUPS];
    let mut y0 = [V::splat(0.0); MAX_GROUPS];
    for gr in 0..groups {
        ym1[gr] = V::load(out.as_ptr().add(gr * LANES));
        y0[gr] = V::load(out.as_ptr().add(sl + gr * LANES));
    }
    for (i, &h2i) in h2row.iter().enumerate() {
        let nh2 = V::splat(-h2i);
        let h2v = V::splat(h2i);
        let (nh1, h1v) = if reduced {
            (V::splat(0.0), V::splat(0.0))
        } else {
            (V::splat(-h1row[i]), V::splat(h1row[i]))
        };
        for gr in 0..groups {
            let gi = V::load(g.as_ptr().add(i * sl + gr * LANES));
            let y = if reduced {
                if use_fma {
                    nh2.mul_add(ym1[gr], gi)
                } else {
                    gi.sub(h2v.mul(ym1[gr]))
                }
            } else if use_fma {
                nh2.mul_add(ym1[gr], nh1.mul_add(y0[gr], gi))
            } else {
                gi.sub(h1v.mul(y0[gr])).sub(h2v.mul(ym1[gr]))
            };
            y.store(out.as_mut_ptr().add((i + 2) * sl + gr * LANES));
            ym1[gr] = y0[gr];
            y0[gr] = y;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2,fma")]
unsafe fn march_multi_avx2_fma(
    st: &LocalStencil,
    plan: &MarchPlan,
    xpad: &mut [f64],
    psi: &[f64],
    psi_stride: usize,
    psi_gstride: usize,
    g: &mut [f64],
    tail_from: usize,
    groups: usize,
) {
    march_multi_lanes::<pop_simd::Avx2>(
        st,
        plan,
        xpad,
        psi,
        psi_stride,
        psi_gstride,
        g,
        true,
        tail_from,
        groups,
    );
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn march_multi_avx2_nofma(
    st: &LocalStencil,
    plan: &MarchPlan,
    xpad: &mut [f64],
    psi: &[f64],
    psi_stride: usize,
    psi_gstride: usize,
    g: &mut [f64],
    tail_from: usize,
    groups: usize,
) {
    march_multi_lanes::<pop_simd::Avx2>(
        st,
        plan,
        xpad,
        psi,
        psi_stride,
        psi_gstride,
        g,
        false,
        tail_from,
        groups,
    );
}

/// Dispatch wrapper for the batched marching sweep. Scalar mode shares the
/// portable instantiation: portable lanes *are* the per-lane scalar
/// operation sequence, and the single-RHS dispatch arms are pinned bitwise
/// identical, so one instantiation matches every single-RHS mode.
#[allow(clippy::too_many_arguments)]
pub(super) fn march_multi(
    mode: SimdMode,
    st: &LocalStencil,
    plan: &MarchPlan,
    xpad: &mut [f64],
    psi: &[f64],
    psi_stride: usize,
    psi_gstride: usize,
    g: &mut Vec<f64>,
    groups: usize,
) {
    assert!((1..=MAX_GROUPS).contains(&groups));
    debug_assert_eq!(xpad.len(), (st.nx + 2) * (st.ny + 2) * groups * LANES);
    g.clear();
    g.resize(st.nx * groups * LANES, 0.0);
    let use_fma = pop_simd::detected_fma();
    // First column the single-RHS kernel of this mode computes with the
    // scalar term grouping (see `march_multi_lanes`).
    let tail_from = match mode {
        SimdMode::Scalar => 0,
        _ => st.nx - st.nx % LANES,
    };
    match mode {
        SimdMode::Scalar | SimdMode::Portable => {
            // SAFETY: portable lanes need no CPU features; `mul_add` is the
            // (always available) `f64::mul_add`.
            unsafe {
                march_multi_lanes::<Portable4>(
                    st,
                    plan,
                    xpad,
                    psi,
                    psi_stride,
                    psi_gstride,
                    g,
                    use_fma,
                    tail_from,
                    groups,
                )
            }
        }
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection;
            // the fma-enabled arm runs only when FMA was also detected.
            unsafe {
                if use_fma {
                    march_multi_avx2_fma(
                        st,
                        plan,
                        xpad,
                        psi,
                        psi_stride,
                        psi_gstride,
                        g,
                        tail_from,
                        groups,
                    )
                } else {
                    march_multi_avx2_nofma(
                        st,
                        plan,
                        xpad,
                        psi,
                        psi_stride,
                        psi_gstride,
                        g,
                        tail_from,
                        groups,
                    )
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

/// `corr = R·f` for every lane's overshoot vector at once: the matrix is
/// traversed once, each entry splat to all lanes of all groups; per lane
/// every output row is the scalar ascending-column fold from `+0.0`.
#[inline(always)]
unsafe fn influence_multi_lanes<V: LaneF64>(
    r_inv: &DenseMatrix,
    f: &[f64],
    corr: &mut [f64],
    groups: usize,
) {
    let k = r_inv.n();
    let sl = groups * LANES;
    for r in 0..k {
        let mut acc = [V::splat(0.0); MAX_GROUPS];
        for c in 0..k {
            let ev = V::splat(r_inv.get(r, c));
            for (gr, a) in acc.iter_mut().enumerate().take(groups) {
                *a = a.add(ev.mul(V::load(f.as_ptr().add(c * sl + gr * LANES))));
            }
        }
        for (gr, a) in acc.iter().enumerate().take(groups) {
            a.store(corr.as_mut_ptr().add(r * sl + gr * LANES));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn influence_multi_avx2(r_inv: &DenseMatrix, f: &[f64], corr: &mut [f64], groups: usize) {
    influence_multi_lanes::<pop_simd::Avx2>(r_inv, f, corr, groups);
}

/// Batched influence apply: `corr` is resized to ring length × `groups ·
/// LANES`.
pub(super) fn influence_apply_multi(
    mode: SimdMode,
    r_inv: &DenseMatrix,
    f: &[f64],
    corr: &mut Vec<f64>,
    groups: usize,
) {
    assert!((1..=MAX_GROUPS).contains(&groups));
    let k = r_inv.n();
    debug_assert_eq!(f.len(), k * groups * LANES);
    corr.clear();
    corr.resize(k * groups * LANES, 0.0);
    match mode {
        SimdMode::Scalar | SimdMode::Portable => {
            // SAFETY: portable lanes need no CPU features.
            unsafe { influence_multi_lanes::<Portable4>(r_inv, f, corr, groups) }
        }
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection.
            unsafe {
                influence_multi_avx2(r_inv, f, corr, groups)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

/// Lane-parallel band-LU solve, in place: every lane of every group runs the
/// exact scalar [`BandLu::solve_in_place`] recurrence on its own right-hand
/// side, with the shared factorization's entries splat once per coefficient.
/// The substitutions are serial dependency chains per lane — the scalar
/// path pays that latency once *per lane*, this kernel pays it once per
/// batch with up to [`MAX_GROUPS`] independent chains in flight. `x` is `n`
/// points of `groups · LANES` values (superlane-major), `b` on entry.
///
/// # Safety
/// With [`pop_simd::Avx2`] lanes the caller must be executing under the
/// `avx2` target feature. `band` must hold `n · (2w + 1)` entries and `x`
/// `n · groups · LANES`, with `groups ≤ MAX_GROUPS`.
#[inline(always)]
unsafe fn band_solve_multi_lanes<V: LaneF64>(
    n: usize,
    w: usize,
    band: &[f64],
    x: &mut [f64],
    groups: usize,
) {
    let sl = groups * LANES;
    let bw = 2 * w + 1;
    // Forward substitution (unit lower).
    for r in 1..n {
        let mut acc = [V::splat(0.0); MAX_GROUPS];
        for (gr, a) in acc.iter_mut().enumerate().take(groups) {
            *a = V::load(x.as_ptr().add(r * sl + gr * LANES));
        }
        for c in r.saturating_sub(w)..r {
            let lv = V::splat(band[r * bw + c + w - r]);
            for (gr, a) in acc.iter_mut().enumerate().take(groups) {
                *a = a.sub(lv.mul(V::load(x.as_ptr().add(c * sl + gr * LANES))));
            }
        }
        for (gr, a) in acc.iter().enumerate().take(groups) {
            a.store(x.as_mut_ptr().add(r * sl + gr * LANES));
        }
    }
    // Back substitution.
    for r in (0..n).rev() {
        let mut acc = [V::splat(0.0); MAX_GROUPS];
        for (gr, a) in acc.iter_mut().enumerate().take(groups) {
            *a = V::load(x.as_ptr().add(r * sl + gr * LANES));
        }
        for c in r + 1..(r + w + 1).min(n) {
            let uv = V::splat(band[r * bw + c + w - r]);
            for (gr, a) in acc.iter_mut().enumerate().take(groups) {
                *a = a.sub(uv.mul(V::load(x.as_ptr().add(c * sl + gr * LANES))));
            }
        }
        let dv = V::splat(band[r * bw + w]);
        for (gr, a) in acc.iter().enumerate().take(groups) {
            a.div(dv).store(x.as_mut_ptr().add(r * sl + gr * LANES));
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn band_solve_multi_avx2(n: usize, w: usize, band: &[f64], x: &mut [f64], groups: usize) {
    band_solve_multi_lanes::<pop_simd::Avx2>(n, w, band, x, groups);
}

/// Dispatch wrapper for the batched band-LU solve. As with the other
/// batched kernels, scalar mode shares the portable instantiation: the
/// substitution has one possible per-lane operation sequence (plain mul/sub
/// chains, never contracted), so every dispatch mode's single-RHS
/// trajectory is the same and one lane image matches them all.
pub(super) fn band_solve_multi(mode: SimdMode, factors: &BandLu, x: &mut [f64], groups: usize) {
    assert!((1..=MAX_GROUPS).contains(&groups));
    let (n, w, band) = factors.raw_parts();
    assert_eq!(band.len(), n * (2 * w + 1));
    assert_eq!(x.len(), n * groups * LANES);
    match mode {
        SimdMode::Scalar | SimdMode::Portable => {
            // SAFETY: portable lanes need no CPU features; the lengths the
            // raw lane loads rely on were asserted above.
            unsafe { band_solve_multi_lanes::<Portable4>(n, w, band, x, groups) }
        }
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection;
            // lengths asserted above.
            unsafe {
                band_solve_multi_avx2(n, w, band, x, groups)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn copy_out_multi_lanes<V: LaneF64>(
    nx: usize,
    ny: usize,
    xpad: &[f64],
    x: &mut [f64],
    x_stride: usize,
    x_gstride: usize,
    maskbits: &[f64],
    groups: usize,
) {
    let sl = groups * LANES;
    let xs = (nx + 2) * sl;
    for j in 0..ny {
        let src = (j + 1) * xs + sl;
        for i in 0..nx {
            let m = V::splat(maskbits[j * nx + i]);
            for gr in 0..groups {
                V::load(xpad.as_ptr().add(src + i * sl + gr * LANES))
                    .and_bits(m)
                    .store(
                        x.as_mut_ptr()
                            .add(gr * x_gstride + j * x_stride + i * LANES),
                    );
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
#[target_feature(enable = "avx2")]
unsafe fn copy_out_multi_avx2(
    nx: usize,
    ny: usize,
    xpad: &[f64],
    x: &mut [f64],
    x_stride: usize,
    x_gstride: usize,
    maskbits: &[f64],
    groups: usize,
) {
    copy_out_multi_lanes::<pop_simd::Avx2>(nx, ny, xpad, x, x_stride, x_gstride, maskbits, groups);
}

/// Copy the solved superlane-major interior out of the marching pad into
/// the strided lane-major destination tiles (lane group `g` at `g ·
/// x_gstride`), zeroing land via one mask-word splat per point — the lane
/// image of the single-RHS masked copy-out.
#[allow(clippy::too_many_arguments)]
pub(super) fn masked_copy_out_multi(
    mode: SimdMode,
    nx: usize,
    ny: usize,
    xpad: &[f64],
    x: &mut [f64],
    x_stride: usize,
    x_gstride: usize,
    maskbits: &[f64],
    groups: usize,
) {
    assert!((1..=MAX_GROUPS).contains(&groups));
    match mode {
        SimdMode::Scalar | SimdMode::Portable => {
            // SAFETY: portable lanes need no CPU features.
            unsafe {
                copy_out_multi_lanes::<Portable4>(
                    nx, ny, xpad, x, x_stride, x_gstride, maskbits, groups,
                )
            }
        }
        SimdMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: dispatch only selects Avx2 after runtime detection.
            unsafe {
                copy_out_multi_avx2(nx, ny, xpad, x, x_stride, x_gstride, maskbits, groups)
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("AVX2 dispatch off x86-64")
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::precond::{EvpScratch, EvpSubBlock};
    use pop_comm::{BlockVec, MultiBlockVec};
    use pop_simd::{SimdMode, LANES};
    use pop_stencil::LocalStencil;

    fn modes() -> Vec<SimdMode> {
        let mut m = vec![SimdMode::Scalar, SimdMode::Portable];
        if pop_simd::detected_avx2() {
            m.push(SimdMode::Avx2);
        }
        m
    }

    fn lane_rhs(n: usize, lane_salt: usize) -> Vec<f64> {
        (0..n)
            .map(|k| {
                let q = k.wrapping_mul(2654435761).wrapping_add(lane_salt * 977);
                (q % 1000) as f64 / 500.0 - 1.0
            })
            .collect()
    }

    /// The batched tile solve is bitwise identical, per lane, to the
    /// single-RHS solve — marching and band-LU tiles, reduced and
    /// full systems, every group count up to [`super::MAX_GROUPS`], every
    /// dispatch mode this machine supports.
    #[test]
    fn batched_tile_solve_matches_single_rhs_bitwise() {
        let mut land = LocalStencil::reference(8, 8, 90.0, 3.0);
        for (i, j) in [(3, 3), (3, 4), (6, 1)] {
            land.set(i, j, 0.0, 0.0, 0.0, 0.0);
        }
        for (i, j) in [(2, 2), (2, 3), (2, 4), (3, 2), (5, 0), (5, 1), (6, 0)] {
            land.set_ane(i, j, 0.0);
        }
        let clean = LocalStencil::reference(8, 8, 120.0, 5.0);
        for (raw, want_march) in [(&clean, true), (&land, false)] {
            for reduced in [true, false] {
                let sub = EvpSubBlock::new(raw, reduced);
                assert_eq!(sub.uses_marching(), want_march);
                let (nx, ny) = (sub.nx, sub.ny);
                for groups in [1usize, 2, 4] {
                    // Seeded per-lane right-hand sides loaded into a multi
                    // block whose tile starts at the interior origin.
                    let mut rm = MultiBlockVec::zeros(nx, ny, 2, groups);
                    let mut singles = Vec::new();
                    for l in 0..groups * LANES {
                        let psi = lane_rhs(nx * ny, l);
                        let mut b = BlockVec::zeros(nx, ny, 2);
                        for j in 0..ny {
                            for i in 0..nx {
                                b.set(i, j, psi[j * nx + i]);
                            }
                        }
                        rm.load_lane(l / LANES, l % LANES, &b);
                        singles.push(psi);
                    }
                    for mode in modes() {
                        let mut zm = MultiBlockVec::zeros(nx, ny, 2, groups);
                        let rs = rm.stride() * LANES;
                        let gs = rm.rows() * rm.stride() * LANES;
                        let off = rm.offset(0, 0, 0);
                        let mut scratch = super::MultiEvpScratch::default();
                        let (rraw, zraw) = (rm.raw(), zm.raw_mut());
                        sub.solve_strided_multi(
                            mode,
                            &rraw[off..],
                            rs,
                            gs,
                            &mut zraw[off..],
                            rs,
                            gs,
                            groups,
                            &mut scratch,
                        );
                        for (l, psi) in singles.iter().enumerate() {
                            let mut want = vec![0.0; nx * ny];
                            sub.solve_mode(mode, psi, &mut want, &mut EvpScratch::default());
                            for j in 0..ny {
                                for i in 0..nx {
                                    let got = zm.at(l / LANES, l % LANES, i as isize, j as isize);
                                    assert_eq!(
                                        got.to_bits(),
                                        want[j * nx + i].to_bits(),
                                        "mode {mode:?} reduced={reduced} march={want_march} \
                                         groups={groups} lane {l} ({i},{j}): {got:e} vs {:e}",
                                        want[j * nx + i]
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}
