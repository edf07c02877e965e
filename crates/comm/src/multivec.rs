//! Lane-major multi-RHS field tiles: `k` independent right-hand sides
//! carried through one fused sweep.
//!
//! A [`MultiBlockVec`] stores `groups` interleaved images of a
//! [`BlockVec`]: each *lane group* holds [`LANES`]
//! right-hand sides side by side, so the flat index of point `(i, j)` in
//! group `g` is
//!
//! ```text
//! ((g * rows + (j + halo)) * stride + (i + halo)) * LANES + lane
//! ```
//!
//! with the *same* row `stride` as the single-RHS tile. One SIMD load at a
//! point therefore fetches the values of four independent RHS vectors, and
//! a batched stencil or EVP kernel loads each operator coefficient **once**
//! (splatted across lanes) per point instead of once per RHS — the
//! amortization that makes batched solves cheaper than `k` single solves.
//!
//! Lane `l` of group `g` carries RHS index `g * LANES + l`. Lanes never
//! interact: every batched kernel performs, in each lane, exactly the
//! scalar operation sequence of the single-RHS path, which is what keeps a
//! batched trajectory bitwise identical to `k` independent solves
//! (`tests/batch_equivalence.rs`).

use crate::blockvec::{zero_ring, BlockVec};
use crate::tile::extent;
use pop_simd::{AlignedVec, LANES};

/// The most lane groups a [`MultiBlockVec`] holds, and so the widest batch
/// (`MAX_GROUPS · LANES` right-hand sides). The batched lane kernels keep
/// one register per lane group along each serial chain and take the group
/// count as a const generic `G ∈ 1..=MAX_GROUPS`, so this bound is also the
/// number of instances each kernel is compiled in.
pub const MAX_GROUPS: usize = 4;

/// One block's worth of `groups * LANES` right-hand sides, halo-padded,
/// lane-major (see the [module docs](self) for the layout).
#[derive(Debug, Clone, PartialEq)]
pub struct MultiBlockVec {
    /// Interior zonal extent.
    pub nx: usize,
    /// Interior meridional extent.
    pub ny: usize,
    /// Halo width on each side.
    pub halo: usize,
    groups: usize,
    stride: usize,
    data: AlignedVec,
}

impl MultiBlockVec {
    /// A zero-filled multi-tile. Each image follows the single-RHS tile's
    /// rule ([`tile::extent`](crate::tile::extent)), so single↔multi lane
    /// copies walk the same rows. Panics unless `groups ∈ 1..=MAX_GROUPS`.
    pub fn zeros(nx: usize, ny: usize, halo: usize, groups: usize) -> Self {
        assert!(nx > 0 && ny > 0, "empty block");
        assert!(
            (1..=MAX_GROUPS).contains(&groups),
            "batched tile holds 1..={MAX_GROUPS} lane groups, got {groups}"
        );
        let (stride, rows) = extent(nx, ny, halo);
        MultiBlockVec {
            nx,
            ny,
            halo,
            groups,
            stride,
            data: AlignedVec::zeros(groups * rows * stride * LANES),
        }
    }

    /// Number of lane groups (`k = groups * LANES` RHS slots).
    #[inline]
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Row stride in *points*, `nx + 2·halo` (the matching
    /// [`BlockVec::stride`]); the flat storage advances `stride * LANES`
    /// floats per row.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Rows per lane-group image, `ny + 2·halo`.
    #[inline]
    pub fn rows(&self) -> usize {
        extent(self.nx, self.ny, self.halo).1
    }

    /// Flat index of the first lane of point `(i, j)` in group `g`
    /// (halo coordinates allowed). Lane `l`'s value sits at `+ l`.
    #[inline]
    pub fn offset(&self, g: usize, i: isize, j: isize) -> usize {
        let h = self.halo as isize;
        debug_assert!(g < self.groups, "group {g} out of range");
        debug_assert!(i >= -h && i < self.nx as isize + h, "i={i} out of range");
        debug_assert!(j >= -h && j < self.ny as isize + h, "j={j} out of range");
        ((g * self.rows() + (j + h) as usize) * self.stride + (i + h) as usize) * LANES
    }

    /// Read lane `lane` of point `(i, j)` in group `g`.
    #[inline]
    pub fn at(&self, g: usize, lane: usize, i: isize, j: isize) -> f64 {
        debug_assert!(lane < LANES);
        self.data[self.offset(g, i, j) + lane]
    }

    /// Write lane `lane` of point `(i, j)` in group `g`.
    #[inline]
    pub fn set(&mut self, g: usize, lane: usize, i: isize, j: isize, v: f64) {
        debug_assert!(lane < LANES);
        let k = self.offset(g, i, j) + lane;
        self.data[k] = v;
    }

    /// The raw lane-major storage (all groups, halo ring included), 32-byte
    /// aligned.
    #[inline]
    pub fn raw(&self) -> &[f64] {
        self.data.as_slice()
    }

    /// Mutable raw lane-major storage.
    #[inline]
    pub fn raw_mut(&mut self) -> &mut [f64] {
        self.data.as_mut_slice()
    }

    /// Interior row `j` of lane group `g`: `nx` points of `LANES` values,
    /// `nx · LANES` floats — what a pointwise lane kernel walks with
    /// `chunks_exact(LANES)`.
    #[inline]
    pub fn interior_lane_row(&self, g: usize, j: usize) -> &[f64] {
        let at = self.offset(g, 0, j as isize);
        &self.data[at..at + self.nx * LANES]
    }

    /// Mutable [`MultiBlockVec::interior_lane_row`].
    #[inline]
    pub fn interior_lane_row_mut(&mut self, g: usize, j: usize) -> &mut [f64] {
        let at = self.offset(g, 0, j as isize);
        &mut self.data[at..at + self.nx * LANES]
    }

    /// Set every cell of every group and lane to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.as_mut_slice().fill(v);
    }

    /// Zero the halo ring of every group (all lanes), leaving interiors
    /// untouched — the multi image of [`BlockVec::zero_halo`], the same
    /// body.
    pub fn zero_halo(&mut self) {
        zero_ring(&mut self.data, self.nx, self.ny, self.halo, LANES);
    }

    /// Load one lane (group `g`, lane `lane`) from a single-RHS tile of the
    /// same shape, copying the full padded storage (interior **and** halo)
    /// so the lane starts bit-identical to the source vector.
    pub fn load_lane(&mut self, g: usize, lane: usize, src: &BlockVec) {
        self.check_lane_shape(g, lane, src);
        let s = self.stride;
        let rows = self.rows();
        let sr = src.raw();
        let dr = self.data.as_mut_slice();
        for jj in 0..rows {
            let srow = &sr[jj * s..(jj + 1) * s];
            let base = ((g * rows + jj) * s) * LANES + lane;
            for (i, &v) in srow.iter().enumerate() {
                dr[base + i * LANES] = v;
            }
        }
    }

    /// Store one lane into a single-RHS tile of the same shape (full padded
    /// storage, the inverse of [`MultiBlockVec::load_lane`]).
    pub fn store_lane(&self, g: usize, lane: usize, dst: &mut BlockVec) {
        self.check_lane_shape(g, lane, dst);
        let s = self.stride;
        let rows = self.rows();
        let sr = self.data.as_slice();
        for jj in 0..rows {
            let base = ((g * rows + jj) * s) * LANES + lane;
            let drow = &mut dst.raw_mut()[jj * s..(jj + 1) * s];
            for (i, v) in drow.iter_mut().enumerate() {
                *v = sr[base + i * LANES];
            }
        }
    }

    fn check_lane_shape(&self, g: usize, lane: usize, other: &BlockVec) {
        assert!(g < self.groups && lane < LANES, "lane slot out of range");
        assert!(
            self.nx == other.nx
                && self.ny == other.ny
                && self.halo == other.halo
                && self.stride == other.stride(),
            "lane copy requires identical tile shapes"
        );
    }
}

/// Per-RHS masked partial dot products over one block's interior: slot
/// `g * LANES + lane` of `out` accumulates lane `(g, lane)`'s product sum
/// in row-major ocean-point order — each slot bitwise equal to
/// [`masked_block_dot`](crate::blockvec::masked_block_dot) over that lane's
/// single-RHS image.
///
/// The accumulation is branch-free: land contributes `and_bits(a*b, 0) =
/// +0.0`. Adding `+0.0` is bitwise neutral here — the accumulator starts at
/// `+0.0` and can never become `-0.0` (round-to-nearest gives `x + (-x) =
/// +0.0` and `(+0.0) + (±0.0) = +0.0`), and for any other value `acc +
/// (+0.0) == acc` exactly — so skipping land (the scalar loop) and adding
/// masked zeros (this loop) produce identical bits.
pub fn masked_dot_multi(a: &MultiBlockVec, b: &MultiBlockVec, mask: &[u8], out: &mut [f64]) {
    assert_eq!(a.nx, b.nx);
    assert_eq!(a.ny, b.ny);
    assert_eq!(a.groups, b.groups);
    assert!(out.len() >= a.groups * LANES, "output slice too short");
    debug_assert_eq!(mask.len(), a.nx * a.ny);
    let (nx, ny) = (a.nx, a.ny);
    for g in 0..a.groups {
        let acc = &mut out[g * LANES..(g + 1) * LANES];
        acc.fill(0.0);
        for j in 0..ny {
            let ra = a.interior_lane_row(g, j);
            let rb = b.interior_lane_row(g, j);
            let mrow = &mask[j * nx..(j + 1) * nx];
            for i in 0..nx {
                if mrow[i] != 0 {
                    for l in 0..LANES {
                        acc[l] += ra[i * LANES + l] * rb[i * LANES + l];
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blockvec::masked_block_dot;

    fn seeded_block(nx: usize, ny: usize, halo: usize, seed: u64) -> BlockVec {
        let mut b = BlockVec::zeros(nx, ny, halo);
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        for v in b.raw_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0;
        }
        b
    }

    #[test]
    fn lane_roundtrip_is_bit_exact() {
        let src: Vec<BlockVec> = (0..8).map(|k| seeded_block(7, 5, 2, k)).collect();
        let mut mv = MultiBlockVec::zeros(src[0].nx, src[0].ny, src[0].halo, 2);
        for (k, b) in src.iter().enumerate() {
            mv.load_lane(k / LANES, k % LANES, b);
        }
        let mut out = BlockVec::zeros(7, 5, 2);
        for (k, b) in src.iter().enumerate() {
            mv.store_lane(k / LANES, k % LANES, &mut out);
            assert_eq!(out.raw(), b.raw(), "lane {k} roundtrip");
        }
    }

    #[test]
    #[should_panic(expected = "batched tile holds 1..=4 lane groups, got 5")]
    fn more_than_max_groups_is_rejected() {
        MultiBlockVec::zeros(4, 3, 1, MAX_GROUPS + 1);
    }

    #[test]
    fn indexing_matches_lane_copies() {
        let b = seeded_block(4, 3, 1, 9);
        let mut mv = MultiBlockVec::zeros(b.nx, b.ny, b.halo, 1);
        mv.load_lane(0, 2, &b);
        assert_eq!(mv.at(0, 2, 1, 2).to_bits(), b.at(1, 2).to_bits());
        assert_eq!(mv.at(0, 2, -1, -1).to_bits(), b.at(-1, -1).to_bits());
        mv.set(0, 2, 3, 0, 42.0);
        assert_eq!(mv.at(0, 2, 3, 0), 42.0);
    }

    #[test]
    fn zero_halo_touches_only_halo() {
        let b = seeded_block(4, 4, 2, 3);
        let mut mv = MultiBlockVec::zeros(b.nx, b.ny, b.halo, 2);
        for g in 0..2 {
            for l in 0..LANES {
                mv.load_lane(g, l, &b);
            }
        }
        mv.zero_halo();
        for g in 0..2 {
            for l in 0..LANES {
                for j in 0..4usize {
                    for i in 0..4usize {
                        assert_eq!(
                            mv.at(g, l, i as isize, j as isize).to_bits(),
                            b.at(i as isize, j as isize).to_bits()
                        );
                    }
                }
                assert_eq!(mv.at(g, l, -1, 0), 0.0);
                assert_eq!(mv.at(g, l, 4, 5), 0.0);
            }
        }
    }

    #[test]
    fn masked_dot_multi_matches_per_lane_scalar() {
        let n = 6;
        let mask: Vec<u8> = (0..n * n).map(|k| (k % 3 != 0) as u8).collect();
        let xs: Vec<BlockVec> = (0..8).map(|k| seeded_block(n, n, 1, 50 + k)).collect();
        let ys: Vec<BlockVec> = (0..8).map(|k| seeded_block(n, n, 1, 90 + k)).collect();
        let mut mx = MultiBlockVec::zeros(xs[0].nx, xs[0].ny, xs[0].halo, 2);
        let mut my = MultiBlockVec::zeros(ys[0].nx, ys[0].ny, ys[0].halo, 2);
        for k in 0..8 {
            mx.load_lane(k / LANES, k % LANES, &xs[k]);
            my.load_lane(k / LANES, k % LANES, &ys[k]);
        }
        let mut out = [0.0; 8];
        masked_dot_multi(&mx, &my, &mask, &mut out);
        for k in 0..8 {
            let want = masked_block_dot(&xs[k], &ys[k], &mask);
            assert_eq!(out[k].to_bits(), want.to_bits(), "rhs {k}");
        }
    }
}
