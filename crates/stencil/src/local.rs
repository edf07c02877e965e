//! A self-contained copy of the stencil coefficients on a small sub-domain,
//! used by the block preconditioners (EVP marching and block-LU).

use crate::dense::{BandLu, DenseMatrix, SingularMatrix};

/// Nine-point coefficients for an `nx × ny` sub-domain, stored with a
/// one-cell pad on the south and west sides so the symmetric couplings
/// `AN(i,j−1)`, `AE(i−1,j)`, `ANE(i−1,j)`, `ANE(i,j−1)`, `ANE(i−1,j−1)` are
/// available at the sub-domain edge. Points outside the sub-domain are
/// treated as Dirichlet zero by the preconditioners.
#[derive(Debug, Clone)]
pub struct LocalStencil {
    pub nx: usize,
    pub ny: usize,
    a0: Vec<f64>,
    an: Vec<f64>,
    ae: Vec<f64>,
    ane: Vec<f64>,
}

impl LocalStencil {
    /// All-zero coefficients (an empty/land sub-domain).
    pub fn zeros(nx: usize, ny: usize) -> Self {
        assert!(nx > 0 && ny > 0);
        let n = (nx + 1) * (ny + 1);
        LocalStencil {
            nx,
            ny,
            a0: vec![0.0; n],
            an: vec![0.0; n],
            ae: vec![0.0; n],
            ane: vec![0.0; n],
        }
    }

    #[inline]
    fn k(&self, i: isize, j: isize) -> usize {
        debug_assert!(i >= -1 && i < self.nx as isize, "i={i}");
        debug_assert!(j >= -1 && j < self.ny as isize, "j={j}");
        ((j + 1) as usize) * (self.nx + 1) + (i + 1) as usize
    }

    /// Store all four coefficients for padded position `(i, j)`
    /// (`-1 ≤ i < nx`, `-1 ≤ j < ny`).
    pub fn set(&mut self, i: isize, j: isize, a0: f64, an: f64, ae: f64, ane: f64) {
        let k = self.k(i, j);
        self.a0[k] = a0;
        self.an[k] = an;
        self.ae[k] = ae;
        self.ane[k] = ane;
    }

    #[inline]
    pub fn a0(&self, i: isize, j: isize) -> f64 {
        self.a0[self.k(i, j)]
    }
    #[inline]
    pub fn an(&self, i: isize, j: isize) -> f64 {
        self.an[self.k(i, j)]
    }
    #[inline]
    pub fn ae(&self, i: isize, j: isize) -> f64 {
        self.ae[self.k(i, j)]
    }
    #[inline]
    pub fn ane(&self, i: isize, j: isize) -> f64 {
        self.ane[self.k(i, j)]
    }

    /// Raw coefficient storage for flat kernels: `(stride, a0, an, ae, ane)`,
    /// where padded position `(i, j)` (`-1 ≤ i < nx`, `-1 ≤ j < ny`) lives at
    /// linear index `(j + 1) * stride + (i + 1)`.
    #[inline]
    pub fn raw_parts(&self) -> (usize, &[f64], &[f64], &[f64], &[f64]) {
        (self.nx + 1, &self.a0, &self.an, &self.ae, &self.ane)
    }

    /// Overwrite the corner (NE) coefficient at `(i, j)`.
    pub fn set_ane(&mut self, i: isize, j: isize, v: f64) {
        let k = self.k(i, j);
        self.ane[k] = v;
    }

    /// Is `(i, j)` an active (ocean) unknown of the sub-domain?
    #[inline]
    pub fn is_active(&self, i: isize, j: isize) -> bool {
        i >= 0 && j >= 0 && self.a0[self.k(i, j)] > 0.0
    }

    /// Evaluate the operator row at `(i, j)` against a value function `x`
    /// (which must return 0 outside the intended domain).
    pub fn apply_at(&self, i: isize, j: isize, x: impl Fn(isize, isize) -> f64) -> f64 {
        self.a0(i, j) * x(i, j)
            + self.an(i, j) * x(i, j + 1)
            + self.an(i, j - 1) * x(i, j - 1)
            + self.ae(i, j) * x(i + 1, j)
            + self.ae(i - 1, j) * x(i - 1, j)
            + self.ane(i, j) * x(i + 1, j + 1)
            + self.ane(i, j - 1) * x(i + 1, j - 1)
            + self.ane(i - 1, j) * x(i - 1, j + 1)
            + self.ane(i - 1, j - 1) * x(i - 1, j - 1)
    }

    /// Drop the N/S/E/W couplings, keeping only center and diagonal terms.
    ///
    /// The paper observes the axis couplings are an order of magnitude
    /// smaller than the others and that removing them halves the cost of EVP
    /// preconditioning "without any significant impact on the convergence
    /// rate"; this produces that reduced stencil.
    pub fn reduced(&self) -> LocalStencil {
        let mut r = self.clone();
        r.an.iter_mut().for_each(|v| *v = 0.0);
        r.ae.iter_mut().for_each(|v| *v = 0.0);
        r
    }

    /// The couplings of active point `(i, j)`'s row inside the sub-domain:
    /// `f(ii, jj, v)` for each of its nine neighbours `(ii, jj)` within
    /// the tile whose coefficient `v` is non-zero, each neighbour once.
    fn row_couplings(&self, i: isize, j: isize, mut f: impl FnMut(usize, usize, f64)) {
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        let mut add = |ii: isize, jj: isize, v: f64| {
            if v != 0.0 && ii >= 0 && jj >= 0 && ii < nx && jj < ny {
                f(ii as usize, jj as usize, v);
            }
        };
        add(i, j, self.a0(i, j));
        add(i, j + 1, self.an(i, j));
        add(i, j - 1, self.an(i, j - 1));
        add(i + 1, j, self.ae(i, j));
        add(i - 1, j, self.ae(i - 1, j));
        add(i + 1, j + 1, self.ane(i, j));
        add(i + 1, j - 1, self.ane(i, j - 1));
        add(i - 1, j + 1, self.ane(i - 1, j));
        add(i - 1, j - 1, self.ane(i - 1, j - 1));
    }

    /// Materialize the sub-domain operator as a dense matrix over all
    /// `nx*ny` points (row-major, Dirichlet-0 exterior). Inactive (land)
    /// points get identity rows so the matrix stays invertible; the
    /// preconditioners zero those entries afterwards.
    pub fn to_dense(&self) -> DenseMatrix {
        let n = self.nx * self.ny;
        let mut m = DenseMatrix::zeros(n);
        for j in 0..self.ny {
            for i in 0..self.nx {
                let row = j * self.nx + i;
                if !self.is_active(i as isize, j as isize) {
                    m.set(row, row, 1.0);
                    continue;
                }
                self.row_couplings(i as isize, j as isize, |ii, jj, v| {
                    m.set(row, jj * self.nx + ii, v);
                });
            }
        }
        m
    }

    /// Factor the sub-domain operator of [`LocalStencil::to_dense`] for a
    /// direct solve, with point `(i, j)` held in row `row(i, j)` (a
    /// permutation of `0..nx·ny`) at half-width `half_width`: the band of
    /// `P·B̃·Pᵀ` is assembled straight from the coefficients — the entries
    /// of [`LocalStencil::to_dense`], permuted — and factored in band
    /// storage, with no dense matrix in between. In the row-major
    /// numbering a nine-point row reaches at most `nx + 1` columns either
    /// side of the diagonal — the north-east / south-west corners — and
    /// the matrix is symmetric positive definite, so it needs no pivoting.
    /// Fails on a pivot that is not positive and finite (the tile is not
    /// positive definite); panics on a coupling outside the half-width,
    /// which is a wrong `half_width` for the order, not a property of the
    /// data.
    pub fn band_lu_in(
        &self,
        half_width: usize,
        row: impl Fn(usize, usize) -> usize,
    ) -> Result<BandLu, SingularMatrix> {
        let n = self.nx * self.ny;
        let w = half_width.min(n - 1);
        let bw = 2 * w + 1;
        // Row `r` holds columns `r − w ..= r + w` at `r·bw + (c + w − r)`.
        let mut band = vec![0.0; n * bw];
        for j in 0..self.ny {
            for i in 0..self.nx {
                let r = row(i, j);
                if !self.is_active(i as isize, j as isize) {
                    band[r * bw + w] = 1.0;
                    continue;
                }
                self.row_couplings(i as isize, j as isize, |ii, jj, v| {
                    let c = row(ii, jj);
                    assert!(
                        c + w >= r && c <= r + w,
                        "entry ({r},{c}) outside half-width {w}"
                    );
                    band[r * bw + c + w - r] = v;
                });
            }
        }
        BandLu::factor(n, w, band)
    }

    /// A synthetic all-ocean SPD stencil on an `nx × ny` sub-domain with unit
    /// spacing and depth `h`, plus diagonal shift `phi`, for tests.
    pub fn reference(nx: usize, ny: usize, h: f64, phi: f64) -> LocalStencil {
        let mut ls = LocalStencil::zeros(nx, ny);
        // Energy weights of an isotropic grid: wx = wy = h/8. Every cell is
        // treated as touched by four full corners (4·2(wx+wy) = 16w on the
        // diagonal); edge cells thereby get *extra* dominance relative to a
        // true Dirichlet assembly, which keeps the template safely SPD.
        let w = h / 8.0;
        for j in -1..ny as isize {
            for i in -1..nx as isize {
                let a0 = if i >= 0 && j >= 0 {
                    16.0 * w + phi
                } else {
                    0.0
                };
                ls.set(i, j, a0, 0.0, 0.0, -2.0 * (2.0 * w));
            }
        }
        ls
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LocalStencil {
        let mut ls = LocalStencil::zeros(4, 3);
        for j in -1..3 {
            for i in -1..4 {
                let base = (10 * (j + 1) + (i + 1)) as f64;
                ls.set(i, j, 100.0 + base, 0.1 + base, 0.2 + base, -(1.0 + base));
            }
        }
        ls
    }

    #[test]
    fn padded_indexing() {
        let ls = sample();
        assert_eq!(ls.a0(-1, -1), 100.0);
        assert_eq!(ls.an(3, 2), 0.1 + 34.0);
        assert_eq!(ls.ane(0, -1), -(1.0 + 1.0));
    }

    #[test]
    fn apply_at_uses_all_nine_neighbors() {
        let ls = sample();
        // x nonzero at exactly one neighbor at a time: apply_at must pick up
        // exactly the corresponding coefficient.
        let cases: Vec<((isize, isize), f64)> = vec![
            ((1, 1), ls.a0(1, 1)),
            ((1, 2), ls.an(1, 1)),
            ((1, 0), ls.an(1, 0)),
            ((2, 1), ls.ae(1, 1)),
            ((0, 1), ls.ae(0, 1)),
            ((2, 2), ls.ane(1, 1)),
            ((2, 0), ls.ane(1, 0)),
            ((0, 2), ls.ane(0, 1)),
            ((0, 0), ls.ane(0, 0)),
        ];
        for ((pi, pj), coeff) in cases {
            let v = ls.apply_at(1, 1, |i, j| if (i, j) == (pi, pj) { 1.0 } else { 0.0 });
            assert_eq!(v, coeff, "neighbor ({pi},{pj})");
        }
    }

    #[test]
    fn reduced_drops_axis_couplings() {
        let ls = sample().reduced();
        for j in -1..3 {
            for i in -1..4 {
                assert_eq!(ls.an(i, j), 0.0);
                assert_eq!(ls.ae(i, j), 0.0);
                assert_ne!(ls.ane(i, j), 0.0);
            }
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn reference_stencil_dense_is_symmetric_positive() {
        let ls = LocalStencil::reference(5, 5, 100.0, 3.0);
        let m = ls.to_dense();
        assert!(m.is_symmetric(1e-12));
        // Positive definiteness via dense Cholesky-free check: x'Mx > 0 for a
        // few vectors.
        let n = 25;
        // Include the constant vector: the lowest-energy mode, and the one a
        // too-weak diagonal fails on.
        let ones = vec![1.0; n];
        let mut vectors: Vec<Vec<f64>> = vec![ones];
        for s in 0..4u64 {
            vectors.push(
                (0..n)
                    .map(|k| {
                        (((k as u64 + 1).wrapping_mul(0x9E3779B9 + s)) % 97) as f64 / 48.5 - 1.0
                    })
                    .collect(),
            );
        }
        for x in &vectors {
            let mut q = 0.0;
            for r in 0..n {
                let mut mx = 0.0;
                for c in 0..n {
                    mx += m.get(r, c) * x[c];
                }
                q += x[r] * mx;
            }
            assert!(q > 0.0, "x'Mx = {q}");
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn to_dense_matches_apply_at() {
        let ls = LocalStencil::reference(4, 4, 50.0, 2.0);
        let m = ls.to_dense();
        let n = 16;
        let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
        for j in 0..4isize {
            for i in 0..4isize {
                let row = (j * 4 + i) as usize;
                let via_dense: f64 = (0..n).map(|c| m.get(row, c) * x[c]).sum();
                let via_stencil = ls.apply_at(i, j, |ii, jj| {
                    if ii >= 0 && jj >= 0 && ii < 4 && jj < 4 {
                        x[(jj * 4 + ii) as usize]
                    } else {
                        0.0
                    }
                });
                assert!((via_dense - via_stencil).abs() < 1e-12);
            }
        }
    }
}
