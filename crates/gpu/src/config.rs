//! Baseline GPU parameters (paper Table I) and the L1D/shared split.

use sms_mem::{GlobalMemoryConfig, L1Config, SharedMemConfig};
use std::fmt;

/// Full GPU configuration.
///
/// Defaults transcribe the paper's Table I (the original Vulkan-Sim mobile
/// SoC configuration). The unified 64 KB L1/shared array is split by
/// [`GpuConfig::with_shared_carveout`]: dedicating bytes to shared-memory
/// SH stacks shrinks the L1D, exactly as in the paper's §IV-B.
///
/// # Example
///
/// ```
/// use sms_gpu::GpuConfig;
/// let base = GpuConfig::default();
/// assert_eq!(base.num_sms, 8);
/// assert_eq!(base.l1.size_bytes, 64 * 1024);
/// // SMS default: 8KB of SH stacks leaves a 56KB L1D.
/// let sms = base.with_shared_carveout(8 * 1024);
/// assert_eq!(sms.l1.size_bytes, 56 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors (Table I: 8).
    pub num_sms: usize,
    /// Registers per SM (Table I: 32768; used for occupancy accounting).
    pub registers_per_sm: u32,
    /// RT units per SM (Table I: 1).
    pub rt_units_per_sm: usize,
    /// Maximum warps resident in one RT unit (Table I: 4).
    pub max_warps_per_rt_unit: usize,
    /// Warps resident per SM for the compute side (latency hiding).
    pub resident_warps_per_sm: usize,
    /// Warp compute instructions issued per SM per cycle (sub-cores).
    pub issue_width: usize,
    /// Unified-array capacity in bytes (L1D + shared = 64 KB).
    pub unified_bytes: u64,
    /// L1D slice of the unified array.
    pub l1: L1Config,
    /// Shared-memory timing/geometry.
    pub shared: SharedMemConfig,
    /// L2 + DRAM configuration.
    pub global: GlobalMemoryConfig,
    /// Ray-box operation unit latency (cycles per node visit).
    pub box_latency: u64,
    /// Ray-triangle operation unit latency (cycles per leaf visit).
    pub tri_latency: u64,
}

impl Default for GpuConfig {
    fn default() -> Self {
        GpuConfig {
            num_sms: 8,
            registers_per_sm: 32_768,
            rt_units_per_sm: 1,
            max_warps_per_rt_unit: 4,
            resident_warps_per_sm: 8,
            issue_width: 4,
            unified_bytes: 64 * 1024,
            l1: L1Config::default(),
            shared: SharedMemConfig::default(),
            global: GlobalMemoryConfig::default(),
            box_latency: 10,
            tri_latency: 20,
        }
    }
}

impl GpuConfig {
    /// Whether carving `shared_bytes` out of the unified array leaves at
    /// least one 128-byte L1 line.
    pub fn fits_shared_carveout(&self, shared_bytes: u64) -> bool {
        shared_bytes.checked_add(128).is_some_and(|needed| needed <= self.unified_bytes)
    }

    /// Returns a copy whose L1D gives up `shared_bytes` of the unified
    /// array to shared memory (the SMS trade).
    ///
    /// # Panics
    ///
    /// Panics unless [`GpuConfig::fits_shared_carveout`].
    pub fn with_shared_carveout(mut self, shared_bytes: u64) -> Self {
        assert!(
            self.fits_shared_carveout(shared_bytes),
            "carving {shared_bytes}B out of a {}B unified array leaves no L1D",
            self.unified_bytes
        );
        self.l1.size_bytes = self.unified_bytes - shared_bytes;
        self
    }

    /// Returns a copy with the given L1D size (Fig. 6b sweep): models a
    /// physically different unified array, so later shared-memory carveouts
    /// subtract from this size.
    pub fn with_l1_size(mut self, bytes: u64) -> Self {
        assert!(bytes >= 128, "L1D must hold at least one line");
        self.l1.size_bytes = bytes;
        self.unified_bytes = bytes;
        self
    }

    /// Total threads resident in all RT units at once.
    pub fn rt_threads(&self) -> usize {
        self.num_sms * self.rt_units_per_sm * self.max_warps_per_rt_unit * crate::WARP_SIZE
    }
}

impl fmt::Display for GpuConfig {
    /// Renders the Table I parameter block.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "# SMs                 {}", self.num_sms)?;
        writeln!(f, "warp size             {}", crate::WARP_SIZE)?;
        writeln!(f, "warp scheduler        GTO")?;
        writeln!(f, "# registers per SM    {}", self.registers_per_sm)?;
        writeln!(f, "# RT units per SM     {}", self.rt_units_per_sm)?;
        writeln!(f, "max # warps per RT    {}", self.max_warps_per_rt_unit)?;
        writeln!(
            f,
            "L1D/shared memory     {}KB, fully associative, LRU, {} cycles",
            self.l1.size_bytes / 1024,
            self.l1.latency
        )?;
        write!(
            f,
            "L2 unified cache      {}MB, {}-way associative, LRU, {} cycles",
            self.global.l2.size_bytes / (1024 * 1024),
            self.global.l2.assoc,
            self.global.l2_latency
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = GpuConfig::default();
        assert_eq!(c.num_sms, 8);
        assert_eq!(c.registers_per_sm, 32_768);
        assert_eq!(c.rt_units_per_sm, 1);
        assert_eq!(c.max_warps_per_rt_unit, 4);
        assert_eq!(c.l1.size_bytes, 64 * 1024);
        assert_eq!(c.l1.latency, 20);
        assert_eq!(c.global.l2.size_bytes, 3 * 1024 * 1024);
        assert_eq!(c.global.l2.assoc, 16);
        assert_eq!(c.global.l2_latency, 160);
    }

    #[test]
    fn carveout_shrinks_l1() {
        let c = GpuConfig::default().with_shared_carveout(8 * 1024);
        assert_eq!(c.l1.size_bytes, 56 * 1024);
        assert_eq!(c.unified_bytes, 64 * 1024);
        // One 128-byte L1 line must stay; an absurd carve-out must not wrap.
        assert!(c.fits_shared_carveout(64 * 1024 - 128));
        assert!(!c.fits_shared_carveout(64 * 1024 - 127));
        assert!(!c.fits_shared_carveout(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "leaves no L1D")]
    fn full_carveout_rejected() {
        let _ = GpuConfig::default().with_shared_carveout(64 * 1024);
    }

    #[test]
    fn table1_render_mentions_key_values() {
        let s = GpuConfig::default().to_string();
        assert!(s.contains("GTO"));
        assert!(s.contains("64KB"));
        assert!(s.contains("3MB"));
        assert!(s.contains("160 cycles"));
    }

    #[test]
    fn rt_thread_capacity() {
        assert_eq!(GpuConfig::default().rt_threads(), 8 * 4 * 32);
    }
}
