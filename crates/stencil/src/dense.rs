//! A small dense-matrix workhorse: storage, LU with partial pivoting, solves
//! and inverses — plus the no-pivot band LU the block preconditioners solve
//! their nine-point tile matrices with.
//!
//! Index-style loops are deliberate here (triangular ranges, pivoted
//! permutations, band windows); the iterator forms obscure the linear
//! algebra.
//!
//! [`DenseMatrix::lu`] is the reference solver the block preconditioners are
//! validated against, the coarsest-level solve of the multigrid
//! preconditioner, and what inverts the (non-symmetric) EVP
//! influence-coefficient matrix `W` (paper Algorithm 3, step 8). Sizes stay
//! small — at most a few hundred unknowns — so a straightforward O(n³)
//! factorization is the right tool there. [`BandLu`] is the production
//! direct solve for a tile's principal submatrix (block-LU preconditioning,
//! paper §4.1, and the land-touching tiles of block-EVP): symmetric positive
//! definite and banded with half-width `nx + 1`, so it needs no pivoting and
//! only the band is assembled ([`LocalStencil::band_lu_in`], straight from
//! the tile's coefficients), factored and traversed.
//!
//! [`LocalStencil::band_lu_in`]: crate::LocalStencil::band_lu_in
//!
//! [`BandLu::solve_in_place`] is written for latency, not for agreement with
//! [`LuFactors::solve_into`]: each substitution row is one serial chain, so
//! its newest unknown — `x[r−1]` forward, `x[r+1]` backward — enters the
//! chain last, every step is `fma(−f, x, acc)` on CPUs with FMA
//! ([`pop_simd::detected_fma`]) and `acc + (−f)·x` elsewhere, and a back
//! row ends with a multiply by the stored `1/u_rr`. The factors it reads
//! are the dense no-pivot LU's, bit for bit; the solve agrees with
//! [`DenseMatrix::lu`]'s to rounding.

#![allow(clippy::needless_range_loop)]

/// Row-major dense square matrix.
#[derive(Debug, Clone)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

/// An LU factorization (PA = LU) ready to solve.
#[derive(Debug, Clone)]
pub struct LuFactors {
    n: usize,
    lu: Vec<f64>,
    piv: Vec<usize>,
}

impl DenseMatrix {
    pub fn zeros(n: usize) -> Self {
        DenseMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Build from an entry function.
    pub fn from_fn(n: usize, f: impl Fn(usize, usize) -> f64) -> Self {
        let mut m = Self::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.data[r * n + c] = f(r, c);
            }
        }
        m
    }

    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.n + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.n + c] = v;
    }

    /// `y = M x`, each row an ascending-column left fold from `+0.0`
    /// (`Iterator::sum` folds `f64` from `−0.0`, which would make a row of
    /// all-`−0.0` products come out `−0.0`).
    pub fn matvec(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.n);
        assert_eq!(y.len(), self.n);
        for r in 0..self.n {
            let row = &self.data[r * self.n..(r + 1) * self.n];
            y[r] = row.iter().zip(x).fold(0.0, |acc, (a, b)| acc + a * b);
        }
    }

    /// Symmetry check to absolute tolerance `tol` (relative to the largest
    /// entry).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        let scale = self
            .data
            .iter()
            .fold(0.0f64, |m, &v| m.max(v.abs()))
            .max(1e-300);
        for r in 0..self.n {
            for c in r + 1..self.n {
                if (self.get(r, c) - self.get(c, r)).abs() > tol * scale {
                    return false;
                }
            }
        }
        true
    }

    /// LU factorization with partial pivoting. Fails on (numerically)
    /// singular matrices.
    pub fn lu(&self) -> Result<LuFactors, SingularMatrix> {
        let n = self.n;
        let mut lu = self.data.clone();
        let mut piv: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Pivot search.
            let mut p = k;
            let mut pmax = lu[k * n + k].abs();
            for r in k + 1..n {
                let v = lu[r * n + k].abs();
                if v > pmax {
                    pmax = v;
                    p = r;
                }
            }
            if pmax < 1e-300 {
                return Err(SingularMatrix { pivot: k });
            }
            if p != k {
                for c in 0..n {
                    lu.swap(k * n + c, p * n + c);
                }
                piv.swap(k, p);
            }
            // Eliminate below the pivot, each row a slice update against
            // the pivot row's tail (the same operations as an indexed
            // double loop, free of bounds checks, so they vectorise).
            let pivot = lu[k * n + k];
            let (top, below) = lu.split_at_mut((k + 1) * n);
            let prow = &top[k * n + k + 1..];
            for row in below.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                for (a, b) in row[k + 1..].iter_mut().zip(prow) {
                    *a -= factor * b;
                }
            }
        }
        Ok(LuFactors { n, lu, piv })
    }

    /// No-pivot LU of a matrix whose non-zeros all lie within `half_width`
    /// of the diagonal, through the dense matrix: the test reference the
    /// direct route, [`LocalStencil::band_lu_in`](crate::LocalStencil::band_lu_in),
    /// is held to. Panics on a non-zero outside the band; fails as
    /// [`BandLu::factor`] does.
    #[cfg(test)]
    pub(crate) fn band_lu(&self, half_width: usize) -> Result<BandLu, SingularMatrix> {
        let n = self.n;
        let w = half_width.min(n.saturating_sub(1));
        let bw = 2 * w + 1;
        // Row `r` holds columns `r − w ..= r + w` at `r·bw + (c + w − r)`.
        let mut band = vec![0.0; n * bw];
        for r in 0..n {
            for c in 0..n {
                let v = self.data[r * n + c];
                if c + w >= r && c <= r + w {
                    band[r * bw + c + w - r] = v;
                } else {
                    assert!(v == 0.0, "entry ({r},{c}) outside half-width {w}");
                }
            }
        }
        BandLu::factor(n, w, band)
    }

    /// Explicit inverse via LU (used for the EVP influence matrix `R = W⁻¹`):
    /// [`LuFactors::solve_into`] on every column of the identity at once.
    /// Each column's substitutions are that solve's operations in its order
    /// — only the loop nest differs, with the columns innermost, where they
    /// vectorise and overlap — so column `c` is the solve of `e_c` bit for
    /// bit. No operand is skipped for being zero: `acc − l·0` is not an
    /// identity on signed zeros.
    pub fn inverse(&self) -> Result<DenseMatrix, SingularMatrix> {
        let f = self.lu()?;
        let n = self.n;
        // Row `r` of the permuted identity `P·I`: a one in column `piv[r]`.
        let mut x = vec![0.0; n * n];
        for (r, &p) in f.piv.iter().enumerate() {
            x[r * n + p] = 1.0;
        }
        // Forward substitution (unit lower), every column at once.
        for r in 1..n {
            let (done, rest) = x.split_at_mut(r * n);
            let xr = &mut rest[..n];
            for (c, xc) in done.chunks_exact(n).enumerate() {
                let l = f.lu[r * n + c];
                for (a, b) in xr.iter_mut().zip(xc) {
                    *a -= l * b;
                }
            }
        }
        // Back substitution.
        for r in (0..n).rev() {
            let (head, tail) = x.split_at_mut((r + 1) * n);
            let xr = &mut head[r * n..];
            for (c, xc) in (r + 1..n).zip(tail.chunks_exact(n)) {
                let u = f.lu[r * n + c];
                for (a, b) in xr.iter_mut().zip(xc) {
                    *a -= u * b;
                }
            }
            let pivot = f.lu[r * n + r];
            for a in xr.iter_mut() {
                *a /= pivot;
            }
        }
        Ok(DenseMatrix { n, data: x })
    }
}

/// A no-pivot LU factorization (A = LU) in band storage, ready to solve.
#[derive(Debug, Clone)]
pub struct BandLu {
    n: usize,
    /// Half-width: entries `|r − c| > w` are structurally zero.
    w: usize,
    /// Row-major band, `2w + 1` entries per row: the unit-lower `L`'s `−l`
    /// left of the diagonal slot `w`, `1/u_rr` in it, `U`'s `−u` right of
    /// it.
    band: Vec<f64>,
}

/// Error: unusable pivot at the given elimination step (zero for
/// [`DenseMatrix::lu`], not positive and finite for the band LU).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrix {
    pub pivot: usize,
}

impl std::fmt::Display for SingularMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "singular matrix (zero pivot at step {})", self.pivot)
    }
}

impl std::error::Error for SingularMatrix {}

impl LuFactors {
    /// Solve `A x = b` into `x`.
    pub fn solve_into(&self, b: &[f64], x: &mut [f64]) {
        let n = self.n;
        assert_eq!(b.len(), n);
        assert_eq!(x.len(), n);
        // Apply permutation.
        for r in 0..n {
            x[r] = b[self.piv[r]];
        }
        // Forward substitution (unit lower).
        for r in 1..n {
            let mut acc = x[r];
            for c in 0..r {
                acc -= self.lu[r * n + c] * x[c];
            }
            x[r] = acc;
        }
        // Back substitution.
        for r in (0..n).rev() {
            let mut acc = x[r];
            for c in r + 1..n {
                acc -= self.lu[r * n + c] * x[c];
            }
            x[r] = acc / self.lu[r * n + r];
        }
    }

    /// Solve, allocating the result.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        self.solve_into(b, &mut x);
        x
    }
}

impl BandLu {
    /// No-pivot LU of an `n × n` matrix given as its band of half-width `w`
    /// — row `r` holds columns `r − w ..= r + w` at `r·(2w+1) + (c + w − r)`,
    /// `+0.0` in the slots outside the matrix: O(n·w²) work, `(2w+1)·n`
    /// doubles.
    ///
    /// Every in-band operation is the one [`DenseMatrix::lu`] performs when
    /// it never pivots; the operations skipped have an exact zero as a
    /// factor. So wherever the pivoted factorization keeps the diagonal —
    /// every nine-point tile matrix met so far — the factors are the dense
    /// ones bit for bit. They are stored ready for
    /// [`BandLu::solve_in_place`]: `−l` and `−u` off the diagonal, `1/u_rr`
    /// on it. Fails on a pivot that is not positive and finite (the matrix
    /// is not positive definite).
    pub(crate) fn factor(n: usize, w: usize, mut band: Vec<f64>) -> Result<BandLu, SingularMatrix> {
        let bw = 2 * w + 1;
        assert_eq!(
            band.len(),
            n * bw,
            "band storage of {n} rows at half-width {w}"
        );
        for k in 0..n {
            let pivot = band[k * bw + w];
            if !(pivot > 0.0 && pivot.is_finite()) {
                return Err(SingularMatrix { pivot: k });
            }
            let end = (k + w + 1).min(n);
            for r in k + 1..end {
                let factor = band[r * bw + k + w - r] / pivot;
                band[r * bw + k + w - r] = factor;
                for c in k + 1..end {
                    band[r * bw + c + w - r] -= factor * band[k * bw + c + w - k];
                }
            }
        }
        // Signed for the substitution steps `acc + (−f)·x`, the pivot as
        // its reciprocal; slots outside the matrix stay `+0.0`.
        for r in 0..n {
            for c in r.saturating_sub(w)..(r + w + 1).min(n) {
                let f = &mut band[r * bw + c + w - r];
                *f = if c == r { 1.0 / *f } else { -*f };
            }
        }
        Ok(BandLu { n, w, band })
    }

    /// Solve `A x = b` in place (`x` holds `b` on entry): forward then back
    /// substitution over the band columns only. Each row is one chain from
    /// `acc = x[r]`, one step `acc + (−f)·x[c]` per band column — fused to
    /// `fma(−f, x[c], acc)` where [`pop_simd::detected_fma`] holds — with
    /// the newest unknown last: columns ascending forward, descending
    /// backward. A back row ends `acc · (1/u_rr)`. This is the scalar
    /// sequence every lane of the block-EVP band substitution repeats.
    pub fn solve_in_place(&self, x: &mut [f64]) {
        if pop_simd::detected_fma() {
            self.substitute::<true>(x);
        } else {
            self.substitute::<false>(x);
        }
    }

    /// [`BandLu::solve_in_place`] with the FMA choice made.
    fn substitute<const FMA: bool>(&self, x: &mut [f64]) {
        let (n, w) = (self.n, self.w);
        let bw = 2 * w + 1;
        assert_eq!(x.len(), n);
        let step = |acc: f64, (f, xc): (&f64, &f64)| {
            if FMA {
                f.mul_add(*xc, acc)
            } else {
                acc + f * xc
            }
        };
        // Forward substitution (unit lower).
        for r in 1..n {
            let lo = r.saturating_sub(w);
            let row = &self.band[r * bw + lo + w - r..r * bw + w];
            let acc = row.iter().zip(&x[lo..r]).fold(x[r], step);
            x[r] = acc;
        }
        // Back substitution.
        for r in (0..n).rev() {
            let hi = (r + w + 1).min(n);
            let row = &self.band[r * bw + w..r * bw + w + hi - r];
            let acc = row[1..].iter().zip(&x[r + 1..hi]).rev().fold(x[r], step);
            x[r] = acc * row[0];
        }
    }

    /// Solve, allocating the result.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        x
    }

    /// The factorization's raw storage `(n, half-width w, band)` — row `r`
    /// holds columns `r − w ..= r + w` at `r·(2w+1) + (c + w − r)`: `−l`,
    /// then `1/u_rr`, then `−u`; slots outside the matrix are `+0.0` — for
    /// callers that run the [`BandLu::solve_in_place`] recurrences
    /// themselves: the lane-parallel multi-RHS substitution that shares one
    /// factorization across a whole SIMD batch.
    #[inline]
    pub fn raw_parts(&self) -> (usize, usize, &[f64]) {
        (self.n, self.w, &self.band)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LocalStencil;

    /// A nine-point tile with position-dependent coefficients, axis
    /// couplings included, and (when `land`) a few land cells: identity
    /// rows, every coupling that touches one dead.
    fn tile(nx: usize, ny: usize, land: bool) -> LocalStencil {
        let dry = |i: isize, j: isize| land && i >= 0 && j >= 0 && (i * 5 + j * 3) % 7 == 0;
        let mut st = LocalStencil::zeros(nx, ny);
        for j in -1..ny as isize {
            for i in -1..nx as isize {
                let t = ((i * 7 + j * 13).rem_euclid(10)) as f64 / 10.0;
                let w = 12.0 * (1.0 + 0.3 * t);
                let live = |cells: &[(isize, isize)]| {
                    if cells.iter().any(|&(di, dj)| dry(i + di, j + dj)) {
                        0.0
                    } else {
                        1.0
                    }
                };
                let a0 = if i >= 0 && j >= 0 {
                    (17.0 * w + 2.5) * live(&[(0, 0)])
                } else {
                    0.0
                };
                st.set(
                    i,
                    j,
                    a0,
                    -0.05 * w * t * live(&[(0, 0), (0, 1)]),
                    -0.04 * w * (1.0 - t) * live(&[(0, 0), (1, 0)]),
                    -4.0 * w * live(&[(0, 0), (1, 0), (0, 1), (1, 1)]),
                );
            }
        }
        st
    }

    /// `st`'s band LU in natural (row-major) order, at half-width `nx + 1`.
    fn natural_band_lu(st: &LocalStencil) -> BandLu {
        st.band_lu_in(st.nx + 1, |i, j| j * st.nx + i)
            .expect("positive definite")
    }

    /// The tile family the band LU is checked on: full and ragged shapes,
    /// dry and with land, full and reduced systems — each with its band
    /// factorization and the pivoted dense LU, which must not have pivoted.
    fn tile_factorizations() -> Vec<(String, BandLu, LuFactors)> {
        let mut cases = Vec::new();
        for (nx, ny) in [(1, 5), (12, 3), (8, 8), (7, 11)] {
            for land in [false, true] {
                let raw = tile(nx, ny, land);
                for (reduced, st) in [(false, raw.clone()), (true, raw.reduced())] {
                    let a = st.to_dense();
                    let band = natural_band_lu(&st);
                    let dense = a.lu().expect("nonsingular");
                    assert_eq!(dense.piv, (0..a.n()).collect::<Vec<_>>(), "oracle pivoted");
                    cases.push((
                        format!("{nx}x{ny} land={land} reduced={reduced}"),
                        band,
                        dense,
                    ));
                }
            }
        }
        cases
    }

    fn rhs(n: usize) -> Vec<f64> {
        (0..n)
            .map(|k| ((k * 2654435761) % 1000) as f64 / 500.0 - 1.0)
            .collect()
    }

    #[test]
    fn band_lu_stores_the_dense_factors_negated_with_reciprocal_pivots() {
        for (tag, band, dense) in tile_factorizations() {
            let (n, w, stored) = band.raw_parts();
            let bw = 2 * w + 1;
            for r in 0..n {
                for c in 0..n {
                    let d = dense.lu[r * n + c];
                    if c + w < r || c > r + w {
                        assert_eq!(d, 0.0, "{tag}: fill outside the band at ({r},{c})");
                        continue;
                    }
                    let want = if c == r { 1.0 / d } else { -d };
                    let got = stored[r * bw + c + w - r];
                    assert_eq!(got.to_bits(), want.to_bits(), "{tag} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn band_solve_matches_dense_lu_to_rounding() {
        for (tag, band, dense) in tile_factorizations() {
            let b = rhs(dense.n);
            let (got, want) = (band.solve(&b), dense.solve(&b));
            let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            let err = got
                .iter()
                .zip(&want)
                .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()));
            assert!(
                err <= 1e-13 * scale,
                "{tag}: max error {err:e} (scale {scale:e})"
            );
        }
    }

    /// Each substitution row is one chain with its newest unknown last, one
    /// `fma(−f, x, acc)` per step on an FMA CPU and `acc − f·x` elsewhere,
    /// and a back row ends by multiplying with the reciprocal pivot — here
    /// spelled out with `f64::mul_add` over the dense factors and checked
    /// bit for bit.
    #[test]
    fn band_substitution_follows_the_fma_rule() {
        let fma = pop_simd::detected_fma();
        let step = |acc: f64, f: f64, x: f64| {
            if fma {
                (-f).mul_add(x, acc)
            } else {
                acc - f * x
            }
        };
        for (tag, band, dense) in tile_factorizations() {
            let (n, w, _) = band.raw_parts();
            let lu = |r: usize, c: usize| dense.lu[r * n + c];
            let mut want = rhs(n);
            for r in 1..n {
                let mut acc = want[r];
                for c in r.saturating_sub(w)..r {
                    acc = step(acc, lu(r, c), want[c]);
                }
                want[r] = acc;
            }
            for r in (0..n).rev() {
                let mut acc = want[r];
                for c in (r + 1..(r + w + 1).min(n)).rev() {
                    acc = step(acc, lu(r, c), want[c]);
                }
                want[r] = acc * (1.0 / lu(r, r));
            }
            for (k, (g, v)) in band.solve(&rhs(n)).iter().zip(&want).enumerate() {
                assert_eq!(g.to_bits(), v.to_bits(), "{tag} fma={fma} row {k}");
            }
        }
    }

    #[test]
    fn band_lu_storage_is_the_band() {
        let a = tile(8, 8, false).to_dense();
        let f = natural_band_lu(&tile(8, 8, false));
        let (n, w, band) = f.raw_parts();
        assert_eq!((n, w, band.len()), (64, 9, 19 * 64));
        let at = |r: usize, c: usize| band[r * (2 * w + 1) + c + w - r];
        // Row 0 of `U` is row 0 of `A`: its pivot stored as `1/a₀₀`, its
        // couplings negated; row 1's multiplier is `−a₁₀/a₀₀`.
        assert_eq!(at(0, 0).to_bits(), (1.0 / a.get(0, 0)).to_bits());
        for c in 1..=w {
            assert_eq!(at(0, c).to_bits(), (-a.get(0, c)).to_bits(), "(0,{c})");
        }
        assert_eq!(at(1, 0).to_bits(), (-(a.get(1, 0) / a.get(0, 0))).to_bits());
        // Slots outside the matrix hold `+0.0`.
        for k in 0..w {
            assert_eq!(band[k].to_bits(), 0.0f64.to_bits(), "row 0 slot {k}");
            assert_eq!(band[band.len() - 1 - k].to_bits(), 0.0f64.to_bits());
        }
        // A half-width beyond the matrix is clamped, not over-allocated.
        let f = tile(1, 5, false).to_dense().band_lu(40).expect("ok");
        assert_eq!(f.raw_parts().1, 4);
    }

    /// A red-black order of an `nx × ny` tile, `rows[j·nx + i]` the row of
    /// point `(i, j)`: the even points row-major, then the odd ones.
    fn red_black(nx: usize, ny: usize) -> Vec<usize> {
        let mut rows = vec![0; nx * ny];
        let mut next = 0;
        for colour in 0..2 {
            for j in 0..ny {
                for i in (0..nx).filter(|i| (i ^ j) & 1 == colour) {
                    rows[j * nx + i] = next;
                    next += 1;
                }
            }
        }
        rows
    }

    /// The dense route to a band factor: `to_dense`, permuted so point `p`
    /// sits in row `rows[p]`, then the dense-scan [`DenseMatrix::band_lu`]
    /// at the narrowest half-width holding every non-zero.
    fn dense_route(st: &LocalStencil, rows: &[usize]) -> (usize, Result<BandLu, SingularMatrix>) {
        let a = st.to_dense();
        let n = a.n();
        let mut at_row = vec![0; n];
        for (p, &r) in rows.iter().enumerate() {
            at_row[r] = p;
        }
        let pa = DenseMatrix::from_fn(n, |r, c| a.get(at_row[r], at_row[c]));
        let w = (0..n * n)
            .filter(|&q| pa.get(q / n, q % n) != 0.0)
            .map(|q| (q / n).abs_diff(q % n))
            .max()
            .unwrap_or(0);
        (w, pa.band_lu(w))
    }

    /// The band assembled straight from the stencil, in natural and in
    /// red-black order, is factored to the dense route's bits: full and
    /// reduced systems, with and without land, and the one-point-wide edge
    /// tiles.
    #[test]
    fn direct_band_factor_is_the_dense_route() {
        let shapes = [(1, 7), (9, 1), (1, 1), (12, 3), (8, 8), (7, 11), (12, 12)];
        for (nx, ny) in shapes {
            for land in [false, true] {
                let raw = tile(nx, ny, land);
                for (reduced, st) in [(false, raw.clone()), (true, raw.reduced())] {
                    let natural: Vec<usize> = (0..nx * ny).collect();
                    for (order, rows) in [("natural", natural), ("red-black", red_black(nx, ny))] {
                        let tag = format!("{nx}x{ny} land={land} reduced={reduced} {order}");
                        let (w, want) = dense_route(&st, &rows);
                        let want = want.expect("positive definite");
                        let got = st
                            .band_lu_in(w, |i, j| rows[j * nx + i])
                            .expect("positive definite");
                        let ((gn, gw, gb), (wn, ww, wb)) = (got.raw_parts(), want.raw_parts());
                        assert_eq!((gn, gw), (wn, ww), "{tag}");
                        let bits = |b: &[f64]| b.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(gb), bits(wb), "{tag}");
                    }
                }
            }
        }
        // The natural order, at half-width `nx + 1`.
        let st = tile(7, 11, true);
        let (a, b) = (natural_band_lu(&st), st.to_dense().band_lu(8).unwrap());
        assert_eq!(a.raw_parts().2, b.raw_parts().2);
    }

    /// A tile that is not positive definite fails at the same elimination
    /// step through both routes.
    #[test]
    fn indefinite_tile_fails_at_the_same_pivot_both_routes() {
        // Corner couplings as strong as the centre: the first pivot is
        // positive, a later one is not.
        let st = LocalStencil::reference(5, 4, 8.0, -12.0);
        for rows in [(0..20).collect(), red_black(5, 4)] {
            let (w, dense) = dense_route(&st, &rows);
            let direct = st.band_lu_in(w, |i, j| rows[j * 5 + i]);
            let pivot = dense.expect_err("indefinite").pivot;
            assert!(pivot > 0, "the first pivot is positive");
            assert_eq!(direct.expect_err("indefinite").pivot, pivot);
        }
    }

    #[test]
    #[should_panic(expected = "outside half-width")]
    fn direct_band_rejects_a_coupling_outside_the_half_width() {
        let _ = tile(6, 4, false).band_lu_in(6, |i, j| j * 6 + i);
    }

    /// The old inverse, one column at a time through `solve_into`.
    fn inverse_by_columns(a: &DenseMatrix) -> Vec<f64> {
        let (f, n) = (a.lu().expect("nonsingular"), a.n());
        let mut inv = vec![0.0; n * n];
        let (mut e, mut x) = (vec![0.0; n], vec![0.0; n]);
        for c in 0..n {
            e.fill(0.0);
            e[c] = 1.0;
            f.solve_into(&e, &mut x);
            for r in 0..n {
                inv[r * n + c] = x[r];
            }
        }
        inv
    }

    /// All columns at once give every column's solve, bit for bit, on
    /// sizes 1–23 — each with a weak diagonal, so partial pivoting swaps
    /// rows, and with exact zeros among the entries.
    #[test]
    fn inverse_is_the_column_at_a_time_solve_bitwise() {
        let mut swapped = 0;
        for n in 1..=23usize {
            let a = DenseMatrix::from_fn(n, |r, c| {
                let h = ((r * 131 + c * 71 + n * 17) % 97) as f64;
                match (r + 2 * c + n) % 5 {
                    0 => 0.0,
                    _ if r == c => 0.05 + h / 970.0,
                    _ => h / 48.5 - 1.0,
                }
            });
            let f = a.lu().expect("nonsingular");
            swapped += usize::from(f.piv.iter().enumerate().any(|(r, &p)| r != p));
            let got = a.inverse().expect("nonsingular");
            let want = inverse_by_columns(&a);
            for (q, w) in want.iter().enumerate() {
                let g = got.get(q / n, q % n);
                assert_eq!(g.to_bits(), w.to_bits(), "n={n} ({}, {})", q / n, q % n);
            }
        }
        assert!(swapped >= 20, "only {swapped} sizes pivoted");
    }

    #[test]
    fn band_lu_rejects_indefinite_matrix() {
        // Symmetric, nonsingular, but indefinite: the second pivot is
        // 1 − 4 < 0. The pivoted dense LU factors it; the no-pivot band LU
        // must report it at set-up instead of dividing through.
        let a = DenseMatrix::from_fn(3, |r, c| {
            [[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]][r][c]
        });
        assert!(a.lu().is_ok());
        assert_eq!(a.band_lu(1).unwrap_err(), SingularMatrix { pivot: 1 });
        // Non-finite data is a set-up failure as well, not a NaN factor.
        let mut b = tile(4, 4, false).to_dense();
        b.set(5, 5, f64::NAN);
        assert_eq!(b.band_lu(5).unwrap_err().pivot, 5);
    }

    #[test]
    fn matvec_folds_from_positive_zero() {
        let a = DenseMatrix::from_fn(3, |r, c| (1 + r + c) as f64);
        let mut y = [1.0; 3];
        a.matvec(&[-0.0; 3], &mut y);
        for v in y {
            assert_eq!(
                v.to_bits(),
                0.0f64.to_bits(),
                "−0.0 products must sum to +0.0"
            );
        }
    }

    #[test]
    fn solves_small_system() {
        // A = [[4,1],[1,3]], b = [1,2] → x = [1/11, 7/11]
        let a = DenseMatrix::from_fn(2, |r, c| [[4.0, 1.0], [1.0, 3.0]][r][c]);
        let f = a.lu().expect("nonsingular");
        let x = f.solve(&[1.0, 2.0]);
        assert!((x[0] - 1.0 / 11.0).abs() < 1e-14);
        assert!((x[1] - 7.0 / 11.0).abs() < 1e-14);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = DenseMatrix::from_fn(2, |r, c| [[0.0, 1.0], [1.0, 0.0]][r][c]);
        let f = a.lu().expect("nonsingular with pivoting");
        let x = f.solve(&[5.0, 7.0]);
        assert!((x[0] - 7.0).abs() < 1e-14);
        assert!((x[1] - 5.0).abs() < 1e-14);
    }

    #[test]
    fn singular_detected() {
        let a = DenseMatrix::from_fn(3, |r, c| ((r + 1) * (c + 1)) as f64); // rank 1
        assert!(a.lu().is_err());
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let n = 12;
        // Diagonally dominant random-ish symmetric matrix.
        let a = DenseMatrix::from_fn(n, |r, c| {
            if r == c {
                20.0 + r as f64
            } else {
                (((r * 31 + c * 17) % 13) as f64 - 6.0) / 13.0
            }
        });
        let inv = a.inverse().expect("invertible");
        for r in 0..n {
            for c in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += inv.get(r, k) * a.get(k, c);
                }
                let expect = if r == c { 1.0 } else { 0.0 };
                assert!((acc - expect).abs() < 1e-10, "({r},{c}): {acc}");
            }
        }
    }

    #[test]
    fn solve_matches_matvec_roundtrip() {
        let n = 20;
        let a = DenseMatrix::from_fn(n, |r, c| {
            if r == c {
                10.0
            } else {
                1.0 / (1.0 + (r as f64 - c as f64).abs())
            }
        });
        let x_true: Vec<f64> = (0..n).map(|k| (k as f64 * 0.7).sin()).collect();
        let mut b = vec![0.0; n];
        a.matvec(&x_true, &mut b);
        let x = a.lu().expect("ok").solve(&b);
        for (xi, ti) in x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-11);
        }
    }
}
