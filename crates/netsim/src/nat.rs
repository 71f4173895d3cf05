//! Home-gateway NAT.
//!
//! Most customers of the studied ISP sit behind a home gateway that
//! multiplexes every device in the household onto a single public address
//! (§5, citing Maier et al.). The analysis side therefore separates devices
//! by the ⟨IP, User-Agent⟩ pair. This module provides the forward mapping:
//! each household owns one public address; its devices keep their identity
//! only in the User-Agent string.

/// The NAT gateway of one household.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NatGateway {
    /// The household's public (pre-anonymization) address.
    pub public_addr: u32,
}

impl NatGateway {
    /// Create a gateway with the given public address.
    pub fn new(public_addr: u32) -> NatGateway {
        NatGateway { public_addr }
    }
}

/// Allocate distinct public addresses for `n` households, starting from a
/// base. (The ISP assigns addresses dynamically; within one short trace the
/// paper treats the mapping as stable, and so do we.)
pub fn allocate_households(n: usize, base: u32) -> Vec<NatGateway> {
    (0..n as u32).map(|i| NatGateway::new(base + i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn households_get_distinct_addresses() {
        let gws = allocate_households(100, 10_000);
        let mut addrs: Vec<u32> = gws.iter().map(|g| g.public_addr).collect();
        addrs.sort_unstable();
        addrs.dedup();
        assert_eq!(addrs.len(), 100);
    }
}
