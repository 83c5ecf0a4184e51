//! Segment geometry for the scanOr/scanAnd primitives.

/// A partition of the virtual PE array into contiguous segments.
///
/// The MP-1's scan primitives operate within *segments*: runs of
/// consecutive PEs delimited by segment-boundary flags. PARSEC lays arc
/// elements out so that the bits to be ORed share a segment (Figure 12);
/// the scan deposits each segment's reduction at its boundary (first) PE.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentMap {
    /// Total PEs covered.
    len: usize,
    starts: Starts,
}

/// Where the segments start. Equal-length segments — every map PARSEC
/// builds per sentence — are stored as their length alone, so a map costs
/// no memory per segment.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Starts {
    /// Segment `s` spans `s·len .. (s+1)·len`.
    Uniform(usize),
    /// Start PE of each segment, ascending; segment `s` spans
    /// `starts[s] .. starts[s+1]` (or to the map's end for the last).
    Explicit(Vec<usize>),
}

impl SegmentMap {
    /// Build from explicit segment lengths (must all be nonzero).
    pub fn from_lengths(lengths: &[usize]) -> Self {
        assert!(
            !lengths.is_empty(),
            "a segment map needs at least one segment"
        );
        assert!(lengths.iter().all(|&l| l > 0), "zero-length segment");
        let len = lengths.iter().sum();
        if lengths.iter().all(|&l| l == lengths[0]) {
            return SegmentMap::uniform(len, lengths[0]);
        }
        let starts = lengths
            .iter()
            .scan(0, |at, &l| {
                let start = *at;
                *at += l;
                Some(start)
            })
            .collect();
        SegmentMap {
            len,
            starts: Starts::Explicit(starts),
        }
    }

    /// Uniform segments of `seg_len` covering `total` PEs exactly.
    pub fn uniform(total: usize, seg_len: usize) -> Self {
        assert!(
            seg_len > 0 && total % seg_len == 0,
            "uniform segments must tile exactly: {total} / {seg_len}"
        );
        SegmentMap {
            len: total,
            starts: Starts::Uniform(seg_len),
        }
    }

    /// One segment spanning everything (a global reduction).
    pub fn global(total: usize) -> Self {
        assert!(total > 0);
        SegmentMap::uniform(total, total)
    }

    pub fn num_segments(&self) -> usize {
        match &self.starts {
            Starts::Uniform(seg_len) => self.len / seg_len,
            Starts::Explicit(starts) => starts.len(),
        }
    }

    /// Total PEs covered.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Start PE (boundary) of segment `s`.
    pub fn start_of(&self, s: usize) -> usize {
        match &self.starts {
            Starts::Uniform(seg_len) => {
                assert!(s * seg_len < self.len, "segment {s} out of range");
                s * seg_len
            }
            Starts::Explicit(starts) => starts[s],
        }
    }

    /// Half-open PE range of segment `s`.
    pub fn range_of(&self, s: usize) -> std::ops::Range<usize> {
        let start = self.start_of(s);
        let end = match &self.starts {
            Starts::Uniform(seg_len) => start + seg_len,
            Starts::Explicit(starts) => starts.get(s + 1).copied().unwrap_or(self.len),
        };
        start..end
    }

    /// The segment containing `pe`.
    pub fn segment_of(&self, pe: usize) -> usize {
        assert!(
            pe < self.len,
            "PE {pe} outside segment map of {} PEs",
            self.len
        );
        match &self.starts {
            Starts::Uniform(seg_len) => pe / seg_len,
            Starts::Explicit(starts) => match starts.binary_search(&pe) {
                Ok(s) => s,
                Err(next) => next - 1,
            },
        }
    }

    /// The PE range of the segment holding `pe`: where a packed scan finds
    /// the boundary a deciding PE flips, and how far its walk may skip.
    pub(crate) fn holding(&self, pe: usize) -> std::ops::Range<usize> {
        debug_assert!(
            pe < self.len,
            "PE {pe} outside segment map of {} PEs",
            self.len
        );
        match &self.starts {
            Starts::Uniform(seg_len) => {
                let start = pe - pe % seg_len;
                start..start + seg_len
            }
            Starts::Explicit(starts) => {
                let s = match starts.binary_search(&pe) {
                    Ok(s) => s,
                    Err(next) => next - 1,
                };
                starts[s]..starts.get(s + 1).copied().unwrap_or(self.len)
            }
        }
    }

    /// [`SegmentMap::holding`] for a walk that only moves forward: `from`
    /// is a segment boundary at or before `pe` (where the walk's last
    /// decided segment ended). A uniform map steps from `from` when `pe`
    /// lies in the segment starting there or the next one, and divides
    /// only for a longer jump.
    pub(crate) fn holding_after(&self, from: usize, pe: usize) -> std::ops::Range<usize> {
        debug_assert!(from <= pe, "the walk moved back: {pe} < {from}");
        match &self.starts {
            &Starts::Uniform(seg_len) => {
                let start = match pe - from {
                    d if d < seg_len => from,
                    d if d < 2 * seg_len => from + seg_len,
                    _ => pe - pe % seg_len,
                };
                debug_assert_eq!(start % seg_len, 0, "{from} is not a boundary");
                start..start + seg_len
            }
            Starts::Explicit(_) => self.holding(pe),
        }
    }

    /// Longest segment length (drives the scan's local pass count).
    pub fn max_segment_len(&self) -> usize {
        (0..self.num_segments())
            .map(|s| self.range_of(s).len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_lengths_geometry() {
        let m = SegmentMap::from_lengths(&[3, 2, 4]);
        assert_eq!(m.num_segments(), 3);
        assert_eq!(m.len(), 9);
        assert_eq!(m.start_of(0), 0);
        assert_eq!(m.start_of(1), 3);
        assert_eq!(m.start_of(2), 5);
        assert_eq!(m.range_of(1), 3..5);
        assert_eq!(m.range_of(2), 5..9);
        assert_eq!(m.max_segment_len(), 4);
    }

    #[test]
    fn uniform_tiles() {
        let m = SegmentMap::uniform(12, 3);
        assert_eq!(m.num_segments(), 4);
        assert_eq!(m.range_of(3), 9..12);
    }

    #[test]
    #[should_panic(expected = "tile exactly")]
    fn uniform_must_divide() {
        SegmentMap::uniform(10, 3);
    }

    #[test]
    fn segment_of_lookup() {
        let m = SegmentMap::from_lengths(&[3, 2, 4]);
        assert_eq!(m.segment_of(0), 0);
        assert_eq!(m.segment_of(2), 0);
        assert_eq!(m.segment_of(3), 1);
        assert_eq!(m.segment_of(4), 1);
        assert_eq!(m.segment_of(5), 2);
        assert_eq!(m.segment_of(8), 2);
    }

    #[test]
    #[should_panic(expected = "outside segment map")]
    fn segment_of_out_of_range() {
        SegmentMap::from_lengths(&[2]).segment_of(2);
    }

    #[test]
    fn global_is_one_segment() {
        let m = SegmentMap::global(7);
        assert_eq!(m.num_segments(), 1);
        assert_eq!(m.range_of(0), 0..7);
        assert_eq!(m.segment_of(6), 0);
    }

    #[test]
    fn holding_finds_the_segment_of_every_pe() {
        for map in [
            SegmentMap::from_lengths(&[3, 60, 5, 130]),
            SegmentMap::uniform(192, 64),
            SegmentMap::uniform(90, 10),
            SegmentMap::global(7),
        ] {
            for pe in 0..map.len() {
                assert_eq!(map.holding(pe), map.range_of(map.segment_of(pe)), "PE {pe}");
            }
        }
    }

    #[test]
    fn holding_after_matches_holding_from_every_earlier_boundary() {
        for map in [
            SegmentMap::from_lengths(&[3, 60, 5, 130]),
            SegmentMap::uniform(192, 64),
            SegmentMap::uniform(90, 10),
            SegmentMap::global(7),
        ] {
            for s in 0..map.num_segments() {
                let from = map.start_of(s);
                for pe in from..map.len() {
                    assert_eq!(
                        map.holding_after(from, pe),
                        map.holding(pe),
                        "{from} -> {pe}"
                    );
                }
            }
        }
    }
}
