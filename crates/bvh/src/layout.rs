//! Flattened memory image of a wide BVH.
//!
//! The cycle-level simulator does not fetch Rust objects — it fetches *byte
//! addresses* through the L1D/L2/DRAM hierarchy. This module assigns every
//! BVH node and primitive record an address in the simulated global address
//! space, with strides chosen to mirror a realistic BVH6 memory format:
//!
//! * an internal node is 128 B — one cache line — using the compressed
//!   wide-node encoding hardware RT units employ (quantized child AABBs,
//!   as in Ylitie et al.'s compressed wide BVHs, which Vulkan-Sim's RT
//!   cores are modelled after);
//! * a leaf node's primitive records are 64 B each (triangle vertices plus
//!   material/primitive ids).
//!
//! Traversal-stack entries store node addresses (8 B each, as in the paper).

use crate::flat::{FlatBvh, NodeId};

/// Base address of the BVH node region.
pub const NODE_BASE_ADDR: u64 = 0x1000_0000;
/// Byte stride between consecutive BVH nodes (one compressed node = one
/// 128 B cache line).
pub const NODE_STRIDE: u64 = 128;
/// Base address of the primitive-record region.
pub const PRIM_BASE_ADDR: u64 = 0x4000_0000;
/// Byte stride of one primitive record.
pub const PRIM_STRIDE: u64 = 64;

/// Address helpers tying a [`FlatBvh`] to the simulated address space.
///
/// # Example
///
/// ```
/// use sms_bvh::layout::{BvhLayout, NODE_BASE_ADDR, NODE_STRIDE};
/// let addr = BvhLayout::node_addr(3);
/// assert_eq!(addr, NODE_BASE_ADDR + 3 * NODE_STRIDE);
/// assert_eq!(BvhLayout::node_of_addr(addr), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BvhLayout;

impl BvhLayout {
    /// The global-memory address of node `id`.
    #[inline]
    pub fn node_addr(id: NodeId) -> u64 {
        NODE_BASE_ADDR + id as u64 * NODE_STRIDE
    }

    /// Inverse of [`BvhLayout::node_addr`].
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a node address.
    #[inline]
    pub fn node_of_addr(addr: u64) -> NodeId {
        assert!(
            addr >= NODE_BASE_ADDR && (addr - NODE_BASE_ADDR).is_multiple_of(NODE_STRIDE),
            "0x{addr:x} is not a BVH node address"
        );
        ((addr - NODE_BASE_ADDR) / NODE_STRIDE) as NodeId
    }

    /// The address of the `slot`-th primitive record (slots index the BVH's
    /// permuted primitive order so leaf ranges are contiguous in memory).
    #[inline]
    pub fn prim_addr(slot: u32) -> u64 {
        PRIM_BASE_ADDR + slot as u64 * PRIM_STRIDE
    }

    /// Addresses covered when fetching node `id` (one node = `NODE_STRIDE`
    /// bytes starting at the node address).
    #[inline]
    pub fn node_fetch(id: NodeId) -> (u64, u32) {
        (Self::node_addr(id), NODE_STRIDE as u32)
    }

    /// Addresses covered when fetching the primitive records of a leaf.
    #[inline]
    pub fn leaf_fetch(first: u32, count: u32) -> (u64, u32) {
        (Self::prim_addr(first), count * PRIM_STRIDE as u32)
    }

    /// Total memory footprint of a BVH image in bytes (nodes + primitive
    /// records), the quantity reported as "BVH (MB)" in Table II.
    pub fn size_bytes(bvh: &FlatBvh) -> u64 {
        let prim_slots: u64 =
            bvh.nodes.iter().filter(|n| n.is_leaf()).map(|n| n.count() as u64).sum();
        bvh.nodes.len() as u64 * NODE_STRIDE + prim_slots * PRIM_STRIDE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_addr_round_trip() {
        for id in [0u32, 1, 17, 100_000] {
            assert_eq!(BvhLayout::node_of_addr(BvhLayout::node_addr(id)), id);
        }
    }

    #[test]
    #[should_panic(expected = "not a BVH node address")]
    fn bad_node_addr_panics() {
        let _ = BvhLayout::node_of_addr(NODE_BASE_ADDR + 1);
    }

    #[test]
    fn regions_do_not_overlap() {
        // 3M nodes (larger than any generated scene) stay below PRIM_BASE.
        assert!(BvhLayout::node_addr(3_000_000) < PRIM_BASE_ADDR);
    }

    #[test]
    fn leaf_fetch_spans_all_records() {
        let (addr, len) = BvhLayout::leaf_fetch(10, 4);
        assert_eq!(addr, PRIM_BASE_ADDR + 10 * PRIM_STRIDE);
        assert_eq!(len as u64, 4 * PRIM_STRIDE);
    }
}
