//! Word-granular physical memory.

use std::collections::BTreeMap;

use vrm_memmodel::ir::{Addr, Val};

/// MurmurHash3's 64-bit finalizer: a fixed bijection on `u64` with full
/// avalanche. Pinned here (not `std`'s unspecified hasher) so digests
/// built from it never move with the toolchain.
pub fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^ (k >> 33)
}

/// Pinned 128-bit mix of one `(key, value)` word pair: two lanes with
/// fixed seeds, each injective in `value` for a fixed `key`. Summing
/// the mixes of a set's members (wrapping) gives an order-independent
/// set digest that a writer can update in O(1).
pub fn mix128(key: u64, val: u64) -> u128 {
    let a = fmix64(fmix64(key ^ 0x9e37_79b9_7f4a_7c15) ^ val);
    let b = fmix64(fmix64(key.rotate_left(32) ^ 0xc2b2_ae3d_27d4_eb4f).wrapping_add(val));
    (u128::from(a) << 64) | u128::from(b)
}

/// Sparse physical memory; unwritten cells read as zero.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct PhysMem {
    cells: BTreeMap<Addr, Val>,
    /// Wrapping sum of [`mix128`] over the non-zero cells, kept current
    /// by every writer so [`PhysMem::digest`] never scans memory.
    digest: u128,
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("cells", &self.cells)
            .finish()
    }
}

impl PhysMem {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Order-independent 128-bit digest of the contents, O(1). Equal
    /// contents give equal digests whatever writes produced them.
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// Reads one word.
    pub fn read(&self, addr: Addr) -> Val {
        self.cells.get(&addr).copied().unwrap_or(0)
    }

    /// Writes one word.
    pub fn write(&mut self, addr: Addr, val: Val) {
        let old = if val == 0 {
            self.cells.remove(&addr)
        } else {
            self.cells.insert(addr, val)
        };
        if let Some(old) = old {
            self.digest = self.digest.wrapping_sub(mix128(addr, old));
        }
        if val != 0 {
            self.digest = self.digest.wrapping_add(mix128(addr, val));
        }
    }

    /// Zeroes `len` words starting at `base`.
    pub fn zero_range(&mut self, base: Addr, len: u64) {
        for a in base..base + len {
            if let Some(old) = self.cells.remove(&a) {
                self.digest = self.digest.wrapping_sub(mix128(a, old));
            }
        }
    }

    /// Copies `len` words from `src` to `dst`.
    pub fn copy_range(&mut self, src: Addr, dst: Addr, len: u64) {
        let vals: Vec<Val> = (0..len).map(|i| self.read(src + i)).collect();
        for (i, v) in vals.into_iter().enumerate() {
            self.write(dst + i as u64, v);
        }
    }

    /// Number of non-zero cells (for tests and statistics).
    pub fn population(&self) -> usize {
        self.cells.len()
    }

    /// Iterates over the non-zero cells.
    pub fn iter(&self) -> impl Iterator<Item = (&Addr, &Val)> {
        self.cells.iter()
    }

    /// Returns the snapshot as a map (for condition-4 checking).
    pub fn snapshot(&self) -> BTreeMap<Addr, Val> {
        self.cells.clone()
    }

    /// Clones only the cells inside the given half-open ranges (cheap
    /// partial snapshot, e.g. just the page-table pools).
    pub fn clone_ranges(&self, ranges: &[(Addr, Addr)]) -> PhysMem {
        let mut out = PhysMem::new();
        for &(lo, hi) in ranges {
            for (&a, &v) in self.cells.range(lo..hi) {
                out.write(a, v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_zero_default() {
        let mut m = PhysMem::new();
        assert_eq!(m.read(5), 0);
        m.write(5, 7);
        assert_eq!(m.read(5), 7);
        m.write(5, 0);
        assert_eq!(m.read(5), 0);
        assert_eq!(m.population(), 0);
    }

    #[test]
    fn digest_tracks_contents_not_history() {
        let mut a = PhysMem::new();
        let mut b = PhysMem::new();
        a.write(1, 5);
        a.write(2, 6);
        b.write(2, 9);
        b.write(2, 6);
        b.write(3, 1);
        b.write(1, 5);
        assert_ne!(a.digest(), b.digest());
        b.zero_range(3, 1);
        assert_eq!(a.digest(), b.digest());
        a.write(1, 0);
        a.write(2, 0);
        assert_eq!(a.digest(), 0);
        assert_eq!(b.clone_ranges(&[(0, 2)]).digest(), mix128(1, 5));
        // Pinned: a toolchain bump must not move the mix.
        assert_eq!(mix128(1, 5), 0xac91_78a1_e178_3a18_48b4_8439_929f_cb78);
    }

    #[test]
    fn copy_and_zero_ranges() {
        let mut m = PhysMem::new();
        for i in 0..4 {
            m.write(0x10 + i, i + 1);
        }
        m.copy_range(0x10, 0x20, 4);
        assert_eq!(m.read(0x23), 4);
        m.zero_range(0x10, 4);
        assert_eq!(m.read(0x12), 0);
        assert_eq!(m.read(0x21), 2);
    }

    #[test]
    fn copy_overlapping_forward() {
        let mut m = PhysMem::new();
        m.write(0x10, 1);
        m.write(0x11, 2);
        m.copy_range(0x10, 0x11, 2);
        assert_eq!(m.read(0x11), 1);
        assert_eq!(m.read(0x12), 2);
    }
}
