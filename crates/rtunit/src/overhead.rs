//! Hardware-overhead accounting (paper §VI-C).
//!
//! The SMS stack manager adds per-thread fields to the ray buffer:
//! `Top`/`Bottom`/`Overflow` for independent SH-stack management and
//! `Next TID`/`Idle`/`Priority`/`Flush` for dynamic intra-warp
//! reallocation. This module reproduces the paper's storage arithmetic and
//! compares it against the cost of simply enlarging the RB stack.

use crate::stack::StackConfig;
use sms_gpu::WARP_SIZE;

/// Per-SM storage overhead of a stack configuration's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OverheadReport {
    /// Bits per thread for the `Top` field.
    pub top_bits: u32,
    /// Bits per thread for the `Bottom` field.
    pub bottom_bits: u32,
    /// Bits per thread for `Overflow` (1) — zero for non-SMS configs.
    pub overflow_bits: u32,
    /// Bits per thread for reallocation fields
    /// (`Next TID` 5 + `Idle` 1 + `Priority` 2 + `Flush` 2), zero without RA.
    pub realloc_bits: u32,
    /// Threads per RT unit (warps × 32).
    pub threads: u32,
    /// Total bookkeeping bytes per RT unit / SM.
    pub total_bytes: u32,
}

impl OverheadReport {
    /// Computes the report for a stack configuration on an RT unit holding
    /// `max_warps` warps (Table I: 4).
    pub fn for_config(config: &StackConfig, max_warps: usize) -> Self {
        let threads = (max_warps * WARP_SIZE) as u32;
        match config.sh_level() {
            Some(p) => {
                // ceil(log2(N)) bits index an N-entry circular stack.
                let n = u32::try_from(p.sh_entries.max(2)).expect("sh_level bounds N by u32");
                let idx_bits = ceil_log2(n);
                let realloc_bits = if p.realloc {
                    let next_tid = 5; // one of 32 threads
                    let idle = 1;
                    // Priority distinguishes the allocation order of the
                    // concurrent stacks (paper: 4 -> 2 bits); Flush counts
                    // the paper's 0..=3 consecutive flushes in 2 bits.
                    let priority = ceil_log2(p.borrow_limit.max(2) as u32);
                    let flush = 2;
                    next_tid + idle + priority + flush
                } else {
                    0
                };
                let per_thread = idx_bits * 2 + 1 + realloc_bits;
                OverheadReport {
                    top_bits: idx_bits,
                    bottom_bits: idx_bits,
                    overflow_bits: 1,
                    realloc_bits,
                    threads,
                    total_bytes: (per_thread * threads).div_ceil(8),
                }
            }
            None => OverheadReport {
                top_bits: 0,
                bottom_bits: 0,
                overflow_bits: 0,
                realloc_bits: 0,
                threads,
                total_bytes: 0,
            },
        }
    }

    /// Bytes needed to instead grow every thread's RB stack by
    /// `extra_entries` 8-byte entries — the alternative the paper rejects.
    pub fn rb_growth_bytes(&self, extra_entries: u32) -> u32 {
        self.threads * extra_entries * 8
    }
}

fn ceil_log2(states: u32) -> u32 {
    // Bits needed to distinguish `states` distinct values.
    32 - (states - 1).leading_zeros()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::SmsParams;

    #[test]
    fn paper_section_6c_arithmetic() {
        // 8-entry SH stack (2^3): Top and Bottom take 3 bits each.
        let r = OverheadReport::for_config(&StackConfig::sms_default(), 4);
        assert_eq!(r.top_bits, 3);
        assert_eq!(r.bottom_bits, 3);
        assert_eq!(r.overflow_bits, 1);
        // Paper: Top+Bottom = 96 bytes across 128 threads.
        assert_eq!((r.top_bits + r.bottom_bits) * r.threads / 8, 96);
        // Paper: the 11 reallocation+overflow bits cost 176 bytes.
        assert_eq!((r.realloc_bits + r.overflow_bits) * r.threads / 8, 176);
        // Paper total: 272 bytes per RT unit.
        assert_eq!(r.total_bytes, 272);
    }

    #[test]
    fn overhead_dwarfed_by_rb_growth() {
        // Paper: +8 RB entries would cost 8KB per RT unit vs 272 bytes.
        let r = OverheadReport::for_config(&StackConfig::sms_default(), 4);
        assert_eq!(r.rb_growth_bytes(8), 8 * 1024);
        assert!(r.total_bytes * 30 < r.rb_growth_bytes(8));
    }

    #[test]
    fn non_sms_configs_cost_nothing() {
        let r = OverheadReport::for_config(&StackConfig::baseline8(), 4);
        assert_eq!(r.total_bytes, 0);
        let r = OverheadReport::for_config(&StackConfig::FullOnChip, 4);
        assert_eq!(r.total_bytes, 0);
    }

    #[test]
    fn sms_without_ra_drops_realloc_fields() {
        let r = OverheadReport::for_config(&StackConfig::Sms(SmsParams::default()), 4);
        assert_eq!(r.realloc_bits, 0);
        // Top(3) + Bottom(3) + Overflow(1) = 7 bits x 128 threads = 112B.
        assert_eq!(r.total_bytes, 112);
    }

    #[test]
    fn sixteen_entry_stacks_need_four_bits() {
        let p = SmsParams { sh_entries: 16, ..SmsParams::default() };
        let r = OverheadReport::for_config(&StackConfig::Sms(p), 4);
        assert_eq!(r.top_bits, 4);
    }
}
