//! The X-Net: the MP-1's nearest-neighbour mesh network.
//!
//! Besides the global router, the MP-1 connected its PEs in a 2-D torus
//! with 8-neighbour ("X") links; MPL exposed this as `xnet` shifts. The
//! paper's algorithm only needs the router's scans, but the X-Net is part
//! of the machine, so the simulator provides it: shift operations along
//! the PE ordering (with configurable wraparound), plus a tree reduction
//! built from shifts — an alternative O(log n) reduction path whose
//! equivalence with the router scans is property-tested.
//!
//! Costs: one X-Net shift is far cheaper than a router pass on the real
//! machine; it is charged as a plural operation plus an `xnet_shifts`
//! count (reported separately in [`crate::MachineStats`]).

use crate::machine::Machine;
use crate::plural::Plural;

/// Edge behaviour of a shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edge {
    /// Wrap around (torus links).
    Wrap,
    /// PEs shifting in from outside receive `fill` (the value stays put).
    Fill,
}

impl Machine {
    /// Shift a plural by `offset` PEs (positive = toward higher ids):
    /// `dst[pe] = src[pe - offset]`, with edges per `edge`. Active PEs
    /// receive; inactive PEs keep their old `dst`.
    pub fn xnet_shift<T: Copy + Send + Sync + crate::fault::FaultWord>(
        &mut self,
        src: &Plural<T>,
        offset: isize,
        edge: Edge,
        fill: T,
        dst: &mut Plural<T>,
    ) {
        assert_eq!(src.len(), self.n_virt(), "plural size mismatch");
        assert_eq!(dst.len(), self.n_virt(), "plural size mismatch");
        let op = self.charge_xnet(offset.unsigned_abs());
        self.count_dead_skips();
        let n = self.n_virt() as isize;
        let s = src.as_slice();
        // Dead PEs neither receive (their memory is frozen) nor matter as
        // senders here: a dead sender's stale word travels like any other.
        let live: Vec<bool> = (0..self.n_virt()).map(|pe| self.is_live(pe)).collect();
        use rayon::prelude::*;
        dst.as_mut_slice()
            .par_iter_mut()
            .enumerate()
            .for_each(|(pe, slot)| {
                if !live[pe] {
                    return;
                }
                let from = pe as isize - offset;
                *slot = if (0..n).contains(&from) {
                    s[from as usize]
                } else {
                    match edge {
                        Edge::Wrap => s[from.rem_euclid(n) as usize],
                        Edge::Fill => fill,
                    }
                };
            });
        self.apply_router_corruption(op, dst.as_mut_slice());
    }

    /// [`Machine::xnet_shift`] for packed boolean plurals: identical
    /// charging and fault behaviour, but the payload travels as bits.
    pub fn xnet_shift_bits(
        &mut self,
        src: &crate::bits::PluralBits,
        offset: isize,
        edge: Edge,
        fill: bool,
        dst: &mut crate::bits::PluralBits,
    ) {
        assert_eq!(src.len(), self.n_virt(), "plural size mismatch");
        assert_eq!(dst.len(), self.n_virt(), "plural size mismatch");
        let op = self.charge_xnet(offset.unsigned_abs());
        self.count_dead_skips();
        let n = self.n_virt() as isize;
        for pe in 0..self.n_virt() {
            if !self.is_live(pe) {
                continue;
            }
            let from = pe as isize - offset;
            let v = if (0..n).contains(&from) {
                src.get(from as usize)
            } else {
                match edge {
                    Edge::Wrap => src.get(from.rem_euclid(n) as usize),
                    Edge::Fill => fill,
                }
            };
            dst.set(pe, v);
        }
        self.apply_router_corruption_bits(op, dst);
    }

    /// Global OR implemented as a shift-and-fold tree over the X-Net —
    /// ⌈log₂ n⌉ shift rounds, no router involvement. Semantically equal
    /// to [`Machine::reduce_or`] over fully active arrays (equivalence is
    /// property-tested); provided to let programs trade router passes for
    /// X-Net hops.
    pub fn xnet_reduce_or(&mut self, p: &Plural<bool>) -> bool {
        assert_eq!(p.len(), self.n_virt(), "plural size mismatch");
        let mut acc = self.alloc(false);
        self.par_zip(&mut acc, p, |_, a, &v| *a = v);
        let mut shifted = self.alloc(false);
        let mut stride = 1usize;
        while stride < self.n_virt() {
            self.xnet_shift(&acc, -(stride as isize), Edge::Fill, false, &mut shifted);
            self.par_zip(&mut acc, &shifted, |_, a, &s| *a |= s);
            stride *= 2;
        }
        let result = *acc.get(0);
        self.free(acc);
        self.free(shifted);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shift_fill_and_wrap() {
        let mut m = Machine::mp1(5);
        let src = m.par_init(0u32, |pe| pe as u32 + 1); // 1 2 3 4 5
        let mut dst = m.alloc(0u32);
        m.xnet_shift(&src, 2, Edge::Fill, 99, &mut dst);
        assert_eq!(dst.as_slice(), &[99, 99, 1, 2, 3]);
        m.xnet_shift(&src, 2, Edge::Wrap, 0, &mut dst);
        assert_eq!(dst.as_slice(), &[4, 5, 1, 2, 3]);
        m.xnet_shift(&src, -1, Edge::Wrap, 0, &mut dst);
        assert_eq!(dst.as_slice(), &[2, 3, 4, 5, 1]);
        m.xnet_shift(&src, 0, Edge::Fill, 0, &mut dst);
        assert_eq!(dst.as_slice(), src.as_slice());
    }

    #[test]
    fn shift_respects_activity() {
        let mut m = Machine::mp1(4);
        let src = m.par_init(0u32, |pe| pe as u32 + 1);
        let mut dst = m.alloc(7u32);
        let mask = m.par_init(false, |pe| pe % 2 == 0);
        m.with_activity(&mask, |m| {
            m.xnet_shift(&src, 1, Edge::Fill, 0, &mut dst);
        });
        // Only PEs 0 and 2 received; 1 and 3 keep the old value.
        assert_eq!(dst.as_slice(), &[0, 7, 2, 7]);
    }

    #[test]
    fn xnet_reduction_matches_router_reduction() {
        for n in [1usize, 2, 3, 7, 16, 33] {
            for hot in 0..n.min(5) {
                let mut m = Machine::mp1(n);
                let p = m.par_init(false, |pe| pe == hot * 7 % n);
                let via_router = m.reduce_or(&p);
                let via_xnet = m.xnet_reduce_or(&p);
                assert_eq!(via_router, via_xnet, "n={n} hot={hot}");
            }
            let mut m = Machine::mp1(n);
            let p = m.alloc(false);
            assert!(!m.xnet_reduce_or(&p));
        }
    }

    #[test]
    fn packed_shift_matches_scalar() {
        for n in [1usize, 5, 64, 65, 130] {
            for (offset, edge) in [
                (0isize, Edge::Fill),
                (3, Edge::Fill),
                (-2, Edge::Fill),
                (3, Edge::Wrap),
                (-7, Edge::Wrap),
            ] {
                let mut sm = Machine::mp1(n);
                let mut pm = Machine::mp1(n);
                let src_s = sm.par_init(false, |pe| pe % 3 == 0);
                let mut dst_s = sm.alloc(true);
                sm.xnet_shift(&src_s, offset, edge, false, &mut dst_s);
                let src_p = pm.par_init_bits(false, |pe| pe % 3 == 0);
                let mut dst_p = pm.alloc_bits(true);
                pm.xnet_shift_bits(&src_p, offset, edge, false, &mut dst_p);
                assert_eq!(
                    dst_p.to_bools(),
                    dst_s.as_slice().to_vec(),
                    "n={n} offset={offset} edge={edge:?}"
                );
                assert_eq!(sm.stats, pm.stats);
            }
        }
    }

    #[test]
    fn xnet_cost_is_counted() {
        let mut m = Machine::mp1(8);
        let src = m.alloc(false);
        let mut dst = m.alloc(false);
        let before = m.stats.xnet_shifts;
        m.xnet_shift(&src, 3, Edge::Fill, false, &mut dst);
        assert_eq!(m.stats.xnet_shifts - before, 3);
        m.xnet_shift(&src, -2, Edge::Wrap, false, &mut dst);
        assert_eq!(m.stats.xnet_shifts - before, 5);
    }
}
