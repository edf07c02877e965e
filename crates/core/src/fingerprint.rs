//! Operator identity fingerprints.
//!
//! `pop-serve`'s request coalescing and its operator-state cache both need
//! an answer to "are these two assembled operators *the same* operator?" —
//! same meaning bitwise-identical stencil coefficients on the same block
//! structure, which is exactly the condition under which solves may share
//! a fused batch or reuse cached setup state
//! (EVP influence matrices, Lanczos eigenbounds, band-LU land-tile
//! factors) without perturbing a single bit of the result.
//!
//! The answer is not cheap: [`operator_fingerprint`] reads every interior
//! coefficient and folds it in a byte at a time, a median 0.42 ms on the
//! 96×80 serve operator and 7.5 ms on gx1 (320×384) on one core of a 2-vCPU
//! x86-64 Xeon host. Hot paths memoise it per operator rather than hashing
//! per request: `pop-serve` fingerprints each operator allocation once, at
//! admission, and stores it in the request's coalescing key (DESIGN.md
//! §13).
//!
//! # Hash construction
//!
//! [`operator_fingerprint`] is 64-bit FNV-1a over, in order:
//!
//! 1. the raw IEEE-754 bits of `phi` (the Helmholtz shift),
//! 2. for every block `b` in layout order: the block index, its interior
//!    dimensions `nx`, `ny`, and
//! 3. the raw bits of every interior coefficient of `a0`, `an`, `ae`, `ane`
//!    (row-major, the four arrays the symmetric nine-point operator stores).
//!
//! Framing each block with `(index, nx, ny)` prevents *aliasing* collisions
//! between operators whose flattened coefficient streams coincide but whose
//! shapes differ — e.g. a 3×4 block and its 4×3 transpose hash differently
//! even when the payload bytes agree (test `transposed_dims_fingerprint_differently`).
//!
//! # Collision semantics
//!
//! Equal fingerprints are treated as equal operators. FNV-1a is *not*
//! cryptographic: collisions exist and can be constructed deliberately, and
//! random collisions occur with probability ≈ n²/2⁶⁵ for n distinct live
//! operators (birthday bound) — negligible for any realistic operator
//! population (n = 10⁶ gives ≈ 10⁻⁸). Consumers that cannot tolerate an
//! adversarially crafted collision (a multi-tenant cache shared across
//! mutually untrusting tenants) must partition by tenant or verify a full
//! coefficient comparison on hit; the in-tree consumers (batch coalescing,
//! the serve operator cache) trust their request sources and accept the
//! birthday bound.
//!
//! NaN coefficient payloads participate as raw bits: two NaNs with
//! different payloads fingerprint differently. `-0.0` and `+0.0` likewise
//! differ — bitwise identity, not numeric equality, is the contract.

use pop_stencil::NinePoint;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a over little-endian `u64` words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Fnv1a {
        Fnv1a(FNV_OFFSET)
    }

    /// Absorb one word, byte-at-a-time per FNV-1a.
    fn eat(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a float's raw IEEE-754 bits (bitwise identity, not `==`).
    fn eat_f64(&mut self, v: f64) {
        self.eat(v.to_bits());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a over the operator's dimensions and raw coefficient bits (plus
/// `phi`): two operators fingerprint equal iff every stencil coefficient
/// is bitwise identical on the same block structure, which is exactly the
/// batching- and cache-safety condition. See the module docs for the hash
/// layout and collision semantics.
pub fn operator_fingerprint(op: &NinePoint) -> u64 {
    let mut h = Fnv1a::new();
    h.eat_f64(op.phi);
    for (b, info) in op.layout.decomp.blocks.iter().enumerate() {
        h.eat(b as u64);
        h.eat(info.nx as u64);
        h.eat(info.ny as u64);
        for coeff in [&op.a0, &op.an, &op.ae, &op.ane] {
            let tile = &coeff.blocks[b];
            for j in 0..info.ny {
                for &v in tile.interior_row(j) {
                    h.eat_f64(v);
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solvers::testutil::fixture;
    use pop_grid::Grid;

    fn test_op() -> crate::solvers::testutil::Fixture {
        let grid = Grid::gx1_scaled(17, 40, 32);
        fixture(&grid, 10, 8, 4000.0)
    }

    #[test]
    fn identical_operators_fingerprint_equal() {
        let f = test_op();
        let a = operator_fingerprint(&f.op);
        let b = operator_fingerprint(&f.op);
        assert_eq!(a, b);
        // Re-assembling the same operator from the same inputs is also equal.
        let f2 = test_op();
        assert_eq!(a, operator_fingerprint(&f2.op));
    }

    #[test]
    fn fingerprint_distinguishes_operators() {
        let grid = Grid::gx1_scaled(6, 60, 48);
        let f = fixture(&grid, 16, 13, 1800.0);
        let f2 = fixture(&grid, 16, 13, 3600.0);
        assert_eq!(operator_fingerprint(&f.op), operator_fingerprint(&f.op));
        assert_ne!(operator_fingerprint(&f.op), operator_fingerprint(&f2.op));
    }

    /// Near-miss: flipping the lowest mantissa bit of ONE interior
    /// coefficient must change the fingerprint — the cache key has to see
    /// single-ULP operator drift.
    #[test]
    fn one_coefficient_bit_flip_changes_fingerprint() {
        let f = test_op();
        let base = operator_fingerprint(&f.op);
        let mut op = f.op.clone();
        // Find an interior ocean coefficient to perturb.
        'outer: for blk in &mut op.a0.blocks {
            for j in 0..blk.ny {
                for v in blk.interior_row_mut(j) {
                    if *v != 0.0 {
                        *v = f64::from_bits(v.to_bits() ^ 1);
                        break 'outer;
                    }
                }
            }
        }
        assert_ne!(
            base,
            operator_fingerprint(&op),
            "single-ULP coefficient change must re-key the operator"
        );
    }

    /// Near-miss: phi participates, so a shifted Helmholtz term re-keys.
    #[test]
    fn phi_change_changes_fingerprint() {
        let f = test_op();
        let base = operator_fingerprint(&f.op);
        let mut op = f.op.clone();
        op.phi = f64::from_bits(op.phi.to_bits() ^ 1);
        assert_ne!(base, operator_fingerprint(&op));
    }

    /// Near-miss at the framing level: the same payload words framed as a
    /// 3×4 block vs. its 4×3 transpose hash differently, because the block
    /// dims are absorbed before the payload.
    #[test]
    fn transposed_dims_fingerprint_differently() {
        let payload: Vec<u64> = (0..12u64).map(|i| 0x4000_0000_0000_0000 | i).collect();
        let mut a = Fnv1a::new();
        a.eat(3);
        a.eat(4);
        payload.iter().for_each(|&w| a.eat(w));
        let mut b = Fnv1a::new();
        b.eat(4);
        b.eat(3);
        payload.iter().for_each(|&w| b.eat(w));
        assert_ne!(a.finish(), b.finish());
    }

    /// -0.0 vs +0.0 and distinct NaN payloads are distinct operators: the
    /// contract is bitwise identity, not numeric equality.
    #[test]
    fn bitwise_not_numeric_identity() {
        let mut a = Fnv1a::new();
        a.eat_f64(0.0);
        let mut b = Fnv1a::new();
        b.eat_f64(-0.0);
        assert_ne!(a.finish(), b.finish());

        let mut c = Fnv1a::new();
        c.eat_f64(f64::from_bits(0x7ff8_0000_0000_0001));
        let mut d = Fnv1a::new();
        d.eat_f64(f64::from_bits(0x7ff8_0000_0000_0002));
        assert_ne!(c.finish(), d.finish());
    }
}
