//! A virtual interrupt controller (vGIC) per VM.
//!
//! Table 2's "I/O Kernel" microbenchmark traps to the emulated interrupt
//! controller in the hypervisor, and "Virtual IPI" sends an SGI from one
//! vCPU to another. This module provides the functional counterpart: a
//! per-VM pending matrix updated by SGI sends (MMIO traps on the
//! distributor) and drained by acknowledgements. The performance side of
//! the same operations lives in `vrm-hwsim`.

/// Interrupt ids: SGIs are 0..16 like the GIC architecture.
pub const MAX_IRQS: usize = 32;

// `VGic::pending_masks` packs a vCPU's pending set into one `u32`.
const _: () = assert!(MAX_IRQS <= 32);

/// Errors from vGIC operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VgicError {
    /// Interrupt id out of range.
    BadIrq,
    /// Unknown target vCPU.
    BadVcpu,
    /// Acknowledged an interrupt that was not pending.
    NotPending,
}

impl std::fmt::Display for VgicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VgicError::BadIrq => write!(f, "interrupt id out of range"),
            VgicError::BadVcpu => write!(f, "unknown target vCPU"),
            VgicError::NotPending => write!(f, "interrupt was not pending"),
        }
    }
}

impl std::error::Error for VgicError {}

/// Per-VM virtual interrupt controller state.
#[derive(Debug, Clone, Default)]
pub struct VGic {
    /// `pending[vcpu][irq]`.
    pending: Vec<[bool; MAX_IRQS]>,
}

impl VGic {
    /// Creates the controller with no vCPUs.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers one more vCPU interface.
    pub fn add_vcpu(&mut self) {
        self.pending.push([false; MAX_IRQS]);
    }

    /// Raises `irq` on `to` (an SGI send or a device interrupt).
    ///
    /// Idempotent while pending, like a level in the GIC's pending state.
    pub fn raise(&mut self, to: u32, irq: u8) -> Result<(), VgicError> {
        if irq as usize >= MAX_IRQS {
            return Err(VgicError::BadIrq);
        }
        let row = self
            .pending
            .get_mut(to as usize)
            .ok_or(VgicError::BadVcpu)?;
        row[irq as usize] = true;
        Ok(())
    }

    /// Acknowledges (clears) a pending interrupt.
    pub fn ack(&mut self, vcpu: u32, irq: u8) -> Result<(), VgicError> {
        if irq as usize >= MAX_IRQS {
            return Err(VgicError::BadIrq);
        }
        let row = self
            .pending
            .get_mut(vcpu as usize)
            .ok_or(VgicError::BadVcpu)?;
        if !row[irq as usize] {
            return Err(VgicError::NotPending);
        }
        row[irq as usize] = false;
        Ok(())
    }

    /// The pending interrupt ids for a vCPU, ascending.
    pub fn pending(&self, vcpu: u32) -> Result<Vec<u8>, VgicError> {
        let row = self.pending.get(vcpu as usize).ok_or(VgicError::BadVcpu)?;
        Ok((0..MAX_IRQS as u8).filter(|&i| row[i as usize]).collect())
    }

    /// Each vCPU's pending set as a bitmask (bit `i` = irq `i`), in vCPU
    /// order.
    pub fn pending_masks(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.pending.iter().map(|row| {
            row.iter()
                .enumerate()
                .fold(0, |m, (i, &p)| m | u32::from(p) << i)
        })
    }

    /// Does the vCPU have anything pending?
    pub fn has_pending(&self, vcpu: u32) -> bool {
        self.pending
            .get(vcpu as usize)
            .is_some_and(|row| row.iter().any(|&b| b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_pending_ack_lifecycle() {
        let mut g = VGic::new();
        g.add_vcpu();
        g.add_vcpu();
        g.raise(1, 3).unwrap();
        g.raise(1, 7).unwrap();
        assert_eq!(g.pending(1).unwrap(), vec![3, 7]);
        assert!(!g.has_pending(0));
        g.ack(1, 3).unwrap();
        assert_eq!(g.pending(1).unwrap(), vec![7]);
        assert_eq!(g.ack(1, 3), Err(VgicError::NotPending));
    }

    #[test]
    fn raise_is_idempotent_while_pending() {
        let mut g = VGic::new();
        g.add_vcpu();
        g.raise(0, 1).unwrap();
        g.raise(0, 1).unwrap();
        g.ack(0, 1).unwrap();
        assert_eq!(g.ack(0, 1), Err(VgicError::NotPending));
    }

    #[test]
    fn bounds_checked() {
        let mut g = VGic::new();
        g.add_vcpu();
        assert_eq!(g.raise(0, MAX_IRQS as u8), Err(VgicError::BadIrq));
        assert_eq!(g.raise(1, 0), Err(VgicError::BadVcpu));
        assert_eq!(g.pending(2), Err(VgicError::BadVcpu));
    }
}
