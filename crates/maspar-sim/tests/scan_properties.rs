//! Property tests: the machine's segmented scans — the packed scans the
//! MasPar engine issues and the `Plural<bool>` references they are built
//! against — plus the router's gather and the sum reduction, checked
//! against straightforward host-side references under arbitrary segment
//! geometry and activity sets.

use maspar_sim::{Machine, SegmentMap};
use proptest::prelude::*;

/// Arbitrary segment lengths, short (inside one 64-PE word) or up to 150
/// PEs (across one or two word boundaries), totalling up to ~2,200 PEs:
/// many host words, so the packed scan's two-word window and its long
/// masked path both run.
fn arb_segments() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(prop_oneof![1usize..8, 1usize..151], 1..16)
}

/// A deterministic pseudo-random stream from `seed`.
fn stream(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        state >> 33
    }
}

/// Run one segmented scan — `scanAnd` if `identity`, else `scanOr` —
/// through the `Plural<bool>` reference under `with_activity` and the
/// packed scan under `with_activity_bits`, and check both against the
/// host reference: a segment's boundary PE holds the identity flipped
/// iff some active PE of the segment differs from it, and every other
/// slot holds the identity. About one PE in `rarity` differs, so long
/// segments are decided by a lone PE as often as by many.
fn check_scan(
    lengths: &[usize],
    seed: u64,
    rarity: u64,
    identity: bool,
) -> Result<(), TestCaseError> {
    let total: usize = lengths.iter().sum();
    let segs = SegmentMap::from_lengths(lengths);
    let mut next = stream(seed);
    let data: Vec<bool> = (0..total)
        .map(|_| identity ^ (next() % rarity == 0))
        .collect();
    let active: Vec<bool> = (0..total).map(|_| next() % 4 != 0).collect();

    let mut m = Machine::mp1(total);
    let p = m.par_init(false, |pe| data[pe]);
    let mask = m.par_init(false, |pe| active[pe]);
    let plain = m.with_activity(&mask, |m| {
        if identity {
            m.scan_and(&p, &segs)
        } else {
            m.scan_or(&p, &segs)
        }
    });

    let mut pm = Machine::mp1(total);
    let pp = pm.par_init_bits(false, |pe| data[pe]);
    let pmask = pm.par_init_bits(false, |pe| active[pe]);
    let packed = pm.with_activity_bits(&pmask, |m| {
        if identity {
            m.scan_and_bits(&pp, &segs)
        } else {
            m.scan_or_bits(&pp, &segs)
        }
    });

    for s in 0..segs.num_segments() {
        let range = segs.range_of(s);
        let decided = range.clone().any(|pe| active[pe] && data[pe] != identity);
        let boundary = segs.start_of(s);
        prop_assert_eq!(
            *plain.get(boundary),
            identity ^ decided,
            "reference, segment {}",
            s
        );
        prop_assert_eq!(
            packed.get(boundary),
            identity ^ decided,
            "packed, segment {}",
            s
        );
        for pe in range.skip(1) {
            prop_assert_eq!(*plain.get(pe), identity, "reference, PE {}", pe);
            prop_assert_eq!(packed.get(pe), identity, "packed, PE {}", pe);
        }
    }
    prop_assert_eq!(m.stats, pm.stats);
    Ok(())
}

proptest! {
    #[test]
    fn scan_or_matches_reference(
        lengths in arb_segments(),
        seed in any::<u64>(),
        rarity in 1u64..200,
    ) {
        check_scan(&lengths, seed, rarity, false)?;
    }

    #[test]
    fn scan_and_matches_reference(
        lengths in arb_segments(),
        seed in any::<u64>(),
        rarity in 1u64..200,
    ) {
        check_scan(&lengths, seed, rarity, true)?;
    }

    #[test]
    fn gather_matches_reference(
        n in 1usize..50,
        seed in any::<u64>(),
    ) {
        let mut m = Machine::mp1(n);
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state
        };
        let src_vals: Vec<u64> = (0..n).map(|_| next()).collect();
        let idx_vals: Vec<usize> = (0..n).map(|_| next() as usize % n).collect();
        let src = {
            let v = src_vals.clone();
            m.par_init(0u64, move |pe| v[pe])
        };
        let idx = {
            let v = idx_vals.clone();
            m.par_init(0usize, move |pe| v[pe])
        };
        let mut dst = m.alloc(0u64);
        m.gather(&src, &idx, &mut dst);
        for pe in 0..n {
            prop_assert_eq!(*dst.get(pe), src_vals[idx_vals[pe]]);
        }
    }

    #[test]
    fn reduce_sum_matches_reference(
        n in 1usize..60,
    ) {
        let mut m = Machine::mp1(n);
        let sums = m.par_init(0u64, |pe| pe as u64);
        prop_assert_eq!(m.reduce_sum(&sums), (0..n as u64).sum::<u64>());
    }
}
