//! Hardware and network descriptions for the fmperf performance model.
//!
//! This crate is the catalog of *system characteristics* the paper's
//! performance model is parameterized by (paper Table A3): per-GPU compute
//! rates (tensor-core and vector FP16), HBM bandwidth and capacity, and the
//! two-tier network — a fast NVSwitch (NVS) domain and a slower InfiniBand
//! (IB) fabric whose effective bandwidth scales with the number of NICs a
//! collective can drive.
//!
//! Everything here is plain data; the time formulas live in the
//! `collectives` and `perfmodel` crates, and the `netsim` discrete-event
//! simulator lowers the same [`NetworkSpec`] numbers into link
//! topologies. Keeping the data separate makes the co-design sweeps of
//! Figs. A5/A6 (scaling FLOP rate, capacity and bandwidth independently)
//! trivial: they are ordinary struct updates via [`SystemBuilder`].

mod builder;
mod catalog;
mod gpu;
mod network;
mod reliability;

pub use builder::SystemBuilder;
pub use catalog::{perlmutter, system, GpuGeneration, NvsSize, ALL_GENERATIONS, ALL_NVS_SIZES};
pub use gpu::GpuSpec;
pub use network::NetworkSpec;
pub use reliability::ReliabilitySpec;

use serde::{Deserialize, Serialize};

/// A complete system description: the accelerator, the two-tier network and
/// the NVS domain geometry.
///
/// `nvs_size` is the number of GPUs that share one fast (NVSwitch) domain —
/// the paper's `n_NVS`. `nics_per_node` bounds how many IB rings a single
/// collective can drive out of one domain; the paper assumes one NIC per
/// GPU, so it defaults to `nvs_size`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemSpec {
    /// Human-readable name, e.g. `"B200-NVS8"`.
    pub name: String,
    /// Accelerator characteristics.
    pub gpu: GpuSpec,
    /// Two-tier network characteristics.
    pub network: NetworkSpec,
    /// GPUs per NVSwitch domain (`n_NVS`).
    pub nvs_size: u64,
    /// NICs available per NVS domain for inter-node traffic.
    pub nics_per_node: u64,
    /// Failure regime (MTBFs, link flaps, stragglers). Catalog systems
    /// carry [`ReliabilitySpec::datacenter`]; the failure-free code
    /// paths never read it.
    pub reliability: ReliabilitySpec,
}

impl SystemSpec {
    /// Number of NVS domains needed to host `n` GPUs (at least 1).
    pub fn domains_for(&self, n: u64) -> u64 {
        n.div_ceil(self.nvs_size).max(1)
    }

    /// True if a group of `n` GPUs fits inside a single NVS domain.
    pub fn fits_in_domain(&self, n: u64) -> bool {
        n <= self.nvs_size
    }

    /// Renames the system (builder-style convenience).
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Replaces the failure regime (builder-style convenience).
    pub fn with_reliability(mut self, reliability: ReliabilitySpec) -> Self {
        self.reliability = reliability;
        self
    }

    /// Total NICs available to a job spanning `n` GPUs: the per-domain
    /// NIC count times the number of (fully or partially) occupied NVS
    /// domains. Used by the reliability model to scale NIC failure
    /// rates with machine size.
    pub fn nics_for(&self, n: u64) -> u64 {
        self.domains_for(n) * self.nics_per_node
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn domains_for_rounds_up() {
        let s = system(GpuGeneration::B200, NvsSize::Nvs8);
        assert_eq!(s.domains_for(1), 1);
        assert_eq!(s.domains_for(8), 1);
        assert_eq!(s.domains_for(9), 2);
        assert_eq!(s.domains_for(16), 2);
        assert_eq!(s.domains_for(17), 3);
    }

    #[test]
    fn fits_in_domain_boundary() {
        let s = system(GpuGeneration::A100, NvsSize::Nvs4);
        assert!(s.fits_in_domain(4));
        assert!(!s.fits_in_domain(5));
    }

    #[test]
    fn serde_roundtrip() {
        let s = system(GpuGeneration::H200, NvsSize::Nvs64);
        let json = serde_json::to_string(&s).unwrap();
        let back: SystemSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
