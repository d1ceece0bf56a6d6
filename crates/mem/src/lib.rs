//! The simulated GPU memory system.
//!
//! Implements the storage hierarchy of the paper's baseline GPU (Table I):
//!
//! * a per-SM **unified L1 data cache / shared memory** array — the L1D part
//!   is modelled in [`l1::SmL1`] (fully associative, LRU, 20-cycle latency by
//!   default), the shared-memory part in [`shared::SharedMem`] (32 banks ×
//!   4 B words with conflict serialization — the resource the SMS secondary
//!   stack lives in);
//! * a shared **L2 cache** (3 MB, 16-way, LRU, 160 cycles) and a
//!   bandwidth-limited **DRAM** behind it, in [`global::GlobalMemory`];
//! * warp-level **coalescing** of per-thread global accesses into 128 B line
//!   transactions ([`coalesce`]) — thread-private stack spills do not
//!   coalesce, which is exactly the paper's §II-C bottleneck.
//!
//! The timing model is a *latency calculator*: every stage has a bandwidth
//! (`cycles per transaction`) and a latency; a request's completion cycle is
//! computed when it is submitted, with port back-pressure folded in via
//! next-free counters and misses merged through MSHRs. This reproduces
//! queueing and bandwidth contention without a per-cycle event wheel.

pub mod cache;
pub mod coalesce;
pub mod global;
pub mod l1;
mod linemap;
pub mod record;
pub mod shared;
pub mod space;
pub mod stats;

pub use cache::{Cache, CacheConfig};
pub use coalesce::{coalesce_lines, coalesce_lines_into};
pub use global::{GlobalMemory, GlobalMemoryConfig};
pub use l1::{L1Config, SmL1};
pub use shared::{SharedMem, SharedMemConfig};
pub use space::{
    AccessKind, Addr, Cycle, LINE_SIZE, SHADE_BASE_ADDR, SPILL_BASE_ADDR, SPILL_REGION_BYTES,
};
pub use stats::MemStats;
