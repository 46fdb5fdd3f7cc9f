//! Per-page ownership tracking (the `s2page` array, §5.3).
//!
//! "KCore tracks the owner of each 4 KB physical page of memory in an
//! s2page data structure. A page can only have one owner at any given
//! time, which can be KCore, KServ, or a VM. KCore will always check that
//! it is not the owner of a physical page before mapping it to a stage 2
//! or SMMU page table."

use vrm_mmu::mem::mix128;

use crate::layout::{self, MAX_PFN};

/// The owner of one physical page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Owner {
    /// KCore private (never mappable into stage-2/SMMU tables).
    KCore,
    /// The untrusted host.
    KServ,
    /// A guest VM.
    Vm(u32),
}

/// Per-page metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct S2Page {
    /// Current owner.
    pub owner: Owner,
    /// Shared with KServ (grant/revoke for paravirtual I/O).
    pub shared: bool,
    /// Mapping count (how many stage-2/SMMU leaf entries reference it).
    pub map_count: u32,
}

/// Errors from ownership transitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OwnershipError {
    /// Page number out of range.
    BadPfn,
    /// The page's current owner does not match the expected owner.
    WrongOwner {
        /// Observed owner.
        actual: Owner,
    },
    /// The page is still mapped somewhere.
    StillMapped,
    /// The page is KCore-private and may never be given away.
    KCorePrivate,
}

impl std::fmt::Display for OwnershipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OwnershipError::BadPfn => write!(f, "page frame number out of range"),
            OwnershipError::WrongOwner { actual } => {
                write!(f, "unexpected page owner {actual:?}")
            }
            OwnershipError::StillMapped => write!(f, "page is still mapped"),
            OwnershipError::KCorePrivate => write!(f, "KCore-private pages are not transferable"),
        }
    }
}

impl std::error::Error for OwnershipError {}

/// The ownership array.
#[derive(Clone)]
pub struct S2PageArray {
    pages: Vec<S2Page>,
    /// Wrapping sum of [`live_mix`] over the pages that differ from the
    /// boot layout, kept current by every mutator so
    /// [`S2PageArray::digest`] never scans the 16K pages.
    digest: u128,
}

impl std::fmt::Debug for S2PageArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("S2PageArray")
            .field("pages", &self.pages)
            .finish()
    }
}

/// A page's boot-time metadata.
fn boot_page(pfn: u64) -> S2Page {
    S2Page {
        owner: if layout::is_kcore_private(pfn) {
            Owner::KCore
        } else {
            Owner::KServ
        },
        shared: false,
        map_count: 0,
    }
}

/// A page's contribution to the array digest: zero while it still has
/// its boot metadata, otherwise a pinned mix of every field.
fn live_mix(pfn: u64, p: S2Page) -> u128 {
    if p == boot_page(pfn) {
        return 0;
    }
    let (tag, vm) = match p.owner {
        Owner::KCore => (0, 0),
        Owner::KServ => (1, 0),
        Owner::Vm(v) => (2, u64::from(v)),
    };
    mix128(
        pfn | u64::from(p.shared) << 32 | tag << 33,
        vm << 32 | u64::from(p.map_count),
    )
}

impl Default for S2PageArray {
    fn default() -> Self {
        Self::new()
    }
}

impl S2PageArray {
    /// Creates the array with the boot-time layout: KCore private regions
    /// owned by KCore, everything else by KServ.
    pub fn new() -> Self {
        S2PageArray {
            pages: (0..MAX_PFN).map(boot_page).collect(),
            digest: 0,
        }
    }

    /// Order-independent 128-bit digest of the pages that differ from
    /// the boot layout, O(1): equal arrays give equal digests whatever
    /// transitions produced them, and the boot array's digest is 0.
    pub fn digest(&self) -> u128 {
        self.digest
    }

    /// Applies `f` to one (in-range) page, keeping the digest current.
    fn update(&mut self, pfn: u64, f: impl FnOnce(&mut S2Page)) {
        let p = &mut self.pages[pfn as usize];
        let before = live_mix(pfn, *p);
        f(p);
        let after = live_mix(pfn, *p);
        self.digest = self.digest.wrapping_sub(before).wrapping_add(after);
    }

    /// Reads a page's metadata.
    pub fn get(&self, pfn: u64) -> Result<S2Page, OwnershipError> {
        self.pages
            .get(pfn as usize)
            .copied()
            .ok_or(OwnershipError::BadPfn)
    }

    /// The owner of a page.
    pub fn owner(&self, pfn: u64) -> Result<Owner, OwnershipError> {
        Ok(self.get(pfn)?.owner)
    }

    /// Transfers ownership, checking the expected current owner.
    pub fn transfer(&mut self, pfn: u64, expect: Owner, to: Owner) -> Result<(), OwnershipError> {
        let page = self.get(pfn)?;
        if page.owner == Owner::KCore && to != Owner::KCore {
            return Err(OwnershipError::KCorePrivate);
        }
        if page.owner != expect {
            return Err(OwnershipError::WrongOwner { actual: page.owner });
        }
        if page.map_count > 0 {
            return Err(OwnershipError::StillMapped);
        }
        self.update(pfn, |p| {
            p.owner = to;
            p.shared = false;
        });
        Ok(())
    }

    /// Marks a page shared (or unshared) with KServ.
    pub fn set_shared(&mut self, pfn: u64, shared: bool) -> Result<(), OwnershipError> {
        self.get(pfn)?;
        self.update(pfn, |p| p.shared = shared);
        Ok(())
    }

    /// Notes one more stage-2/SMMU mapping of this page.
    pub fn inc_map(&mut self, pfn: u64) -> Result<(), OwnershipError> {
        self.get(pfn)?;
        self.update(pfn, |p| p.map_count += 1);
        Ok(())
    }

    /// Notes one fewer mapping.
    pub fn dec_map(&mut self, pfn: u64) -> Result<(), OwnershipError> {
        let p = self.get(pfn)?;
        if p.map_count == 0 {
            return Err(OwnershipError::StillMapped);
        }
        self.update(pfn, |p| p.map_count -= 1);
        Ok(())
    }

    /// All pages owned by a given principal.
    pub fn owned_by(&self, owner: Owner) -> Vec<u64> {
        self.pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.owner == owner)
            .map(|(i, _)| i as u64)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_layout_ownership() {
        let a = S2PageArray::new();
        assert_eq!(a.owner(0).unwrap(), Owner::KCore);
        assert_eq!(a.owner(layout::S2_POOL_PFN.0).unwrap(), Owner::KCore);
        assert_eq!(a.owner(layout::KSERV_PFN.0).unwrap(), Owner::KServ);
        assert_eq!(a.owner(layout::VM_POOL_PFN.0).unwrap(), Owner::KServ);
    }

    #[test]
    fn transfer_checks_expected_owner() {
        let mut a = S2PageArray::new();
        let pfn = layout::VM_POOL_PFN.0;
        assert_eq!(
            a.transfer(pfn, Owner::Vm(1), Owner::Vm(2)),
            Err(OwnershipError::WrongOwner {
                actual: Owner::KServ
            })
        );
        a.transfer(pfn, Owner::KServ, Owner::Vm(1)).unwrap();
        assert_eq!(a.owner(pfn).unwrap(), Owner::Vm(1));
    }

    #[test]
    fn kcore_pages_are_never_transferable() {
        let mut a = S2PageArray::new();
        assert_eq!(
            a.transfer(0, Owner::KCore, Owner::KServ),
            Err(OwnershipError::KCorePrivate)
        );
    }

    #[test]
    fn mapped_pages_cannot_change_owner() {
        let mut a = S2PageArray::new();
        let pfn = layout::VM_POOL_PFN.0;
        a.inc_map(pfn).unwrap();
        assert_eq!(
            a.transfer(pfn, Owner::KServ, Owner::Vm(1)),
            Err(OwnershipError::StillMapped)
        );
        a.dec_map(pfn).unwrap();
        a.transfer(pfn, Owner::KServ, Owner::Vm(1)).unwrap();
    }

    #[test]
    fn digest_covers_only_pages_off_the_boot_layout() {
        let mut a = S2PageArray::new();
        assert_eq!(a.digest(), 0);
        let pfn = layout::VM_POOL_PFN.0;
        a.transfer(pfn, Owner::KServ, Owner::Vm(1)).unwrap();
        a.inc_map(pfn).unwrap();
        let mapped = a.digest();
        assert_ne!(mapped, 0);
        a.set_shared(pfn, true).unwrap();
        assert_ne!(a.digest(), mapped);
        a.set_shared(pfn, false).unwrap();
        assert_eq!(a.digest(), mapped);
        // Back to the boot metadata: the page drops out of the digest.
        a.dec_map(pfn).unwrap();
        a.transfer(pfn, Owner::Vm(1), Owner::KServ).unwrap();
        assert_eq!(a.digest(), 0);
    }

    #[test]
    fn bad_pfn_rejected() {
        let a = S2PageArray::new();
        assert_eq!(a.owner(MAX_PFN), Err(OwnershipError::BadPfn));
    }
}
