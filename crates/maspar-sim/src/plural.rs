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
