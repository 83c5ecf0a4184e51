//! Plural values: one `T` per virtual PE.

/// A *plural* value in MPL terms — an array with one element per virtual
/// PE, conceptually living in PE-local memory. Allocate through
/// [`crate::Machine::alloc`] so the 16 KB-per-PE budget is tracked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plural<T> {
    data: Vec<T>,
}

impl<T> Plural<T> {
    pub(crate) fn from_vec(data: Vec<T>) -> Self {
        Plural { data }
    }

    /// Number of virtual PEs.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read one PE's slot (host-side readback; free in the cost model,
    /// matching the ACU's ability to read PE registers).
    pub fn get(&self, pe: usize) -> &T {
        &self.data[pe]
    }

    /// Host-side raw view (readback of the whole array).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    pub(crate) fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Host-side readback that takes the array instead of copying it.
    /// Like dropping a plural, it does not release the simulated memory;
    /// call it after the program's last instruction.
    pub fn into_vec(self) -> Vec<T> {
        self.data
    }
}

/// A `u64` plural that carries a host-side occupancy mask: one bit per
/// PE, packed like [`crate::PluralBits`] (bit `pe % 64` of word
/// `pe / 64`). A PE's bit is set whenever its word may be nonzero, so the
/// mask is always a superset of the nonzero PEs, never a subset. The
/// clear-only instructions ([`crate::Machine::par_and_grid`],
/// [`crate::Machine::par_and_zip`], [`crate::Machine::par_clear_grid`],
/// [`crate::Machine::par_any_bits`]) walk only the live PEs whose bit is
/// set; every write keeps the mask a superset. The mask is host
/// bookkeeping: it changes no charge and no result. Allocate through
/// [`crate::Machine::alloc_occ`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccPlural {
    values: Vec<u64>,
    occupied: Vec<u64>,
}

impl OccPlural {
    /// All PEs zero and unoccupied, in the host buffers `values` and
    /// `occupied` (their contents are discarded).
    pub(crate) fn zeroed_in(mut values: Vec<u64>, mut occupied: Vec<u64>, len: usize) -> Self {
        values.clear();
        values.resize(len, 0);
        occupied.clear();
        occupied.resize(crate::bits::word_count(len), 0);
        OccPlural { values, occupied }
    }

    /// Number of virtual PEs.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Host-side raw view (readback of the whole array).
    pub fn as_slice(&self) -> &[u64] {
        &self.values
    }

    /// The occupancy mask, packed 64 PEs to a word.
    pub(crate) fn occupied(&self) -> &[u64] {
        &self.occupied
    }

    /// PEs whose occupancy bit is set.
    pub fn occupied_count(&self) -> usize {
        self.occupied.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Does the mask cover every PE whose word is nonzero?
    #[cfg(test)]
    pub(crate) fn covers_nonzero(&self) -> bool {
        self.values
            .iter()
            .enumerate()
            .all(|(pe, &v)| v == 0 || self.occupied[pe / 64] >> (pe % 64) & 1 == 1)
    }

    pub(crate) fn parts_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        (&mut self.values, &mut self.occupied)
    }

    /// The two host buffers, values first.
    pub(crate) fn into_parts(self) -> (Vec<u64>, Vec<u64>) {
        (self.values, self.occupied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accessors() {
        let p = Plural::from_vec(vec![1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert_eq!(*p.get(1), 2);
        assert_eq!(p.as_slice(), &[1, 2, 3]);
        let q: Plural<u8> = Plural::from_vec(vec![]);
        assert!(q.is_empty());
    }
}
