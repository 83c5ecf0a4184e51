//! Bitset and bit-matrix kernels.
//!
//! CDG parsing (Helzerman & Harper 1992, after Maruyama 1990) stores, for
//! every pair of roles in the constraint network, an *arc matrix* whose
//! `(i, j)` entry records whether role value `i` of one role may coexist with
//! role value `j` of the other. The parser's inner loops are dominated by
//! whole-row/column tests and zeroings of these matrices, so they are kept as
//! packed `u64` words and operated on a word at a time.
//!
//! [`BitVec`] is a fixed-length bitset; [`BitMatrix`] is a row-major packed
//! boolean matrix with the row/column primitives the parser needs:
//! `zero_row`, `zero_col`, `row_any`, the masked row AND `row_and_count`,
//! and `col_occupancy`, the OR of all rows.

mod bitvec;
mod matrix;

pub use bitvec::BitVec;
pub use matrix::BitMatrix;

/// Number of `u64` words needed to hold `bits` bits.
#[inline]
pub(crate) fn words_for(bits: usize) -> usize {
    bits.div_ceil(64)
}

/// Mask selecting the valid bits of the final word of a `bits`-bit vector.
#[inline]
pub(crate) fn tail_mask(bits: usize) -> u64 {
    let rem = bits % 64;
    if rem == 0 {
        !0
    } else {
        (1u64 << rem) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_for_boundaries() {
        assert_eq!(words_for(0), 0);
        assert_eq!(words_for(1), 1);
        assert_eq!(words_for(64), 1);
        assert_eq!(words_for(65), 2);
        assert_eq!(words_for(128), 2);
        assert_eq!(words_for(129), 3);
    }

    #[test]
    fn tail_mask_boundaries() {
        assert_eq!(tail_mask(64), !0);
        assert_eq!(tail_mask(1), 1);
        assert_eq!(tail_mask(3), 0b111);
        assert_eq!(tail_mask(63), (1u64 << 63) - 1);
    }
}
