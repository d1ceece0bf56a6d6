//! Layout golden: an FNV-1a digest of every `FlatBvh` array for every
//! Table 2 scene under both builders.
//!
//! The constants were recorded by running the retired two-pass path
//! (`BinaryBvh` → enum-node wide tree → flatten) at the commit before
//! `FlatBvh::from_binary` started emitting the arrays directly, so they
//! pin the one-pass build to what the two-pass build produced: node
//! numbering, child-pool order, every `f32` plane bit, the primitive
//! permutation and the escape links. A deliberate layout change re-records
//! them from the table this test prints on mismatch.

use sms_bvh::{BuildParams, FlatBvh};
use sms_sim::config::RenderConfig;
use sms_sim::render::PreparedScene;
use sms_sim::scene::SceneId;

/// `(scene, digest under BuildParams::default(), digest under hlbvh(1))`.
const GOLDEN: [(&str, u64, u64); 16] = [
    ("WKND", 0x8e22bb2c649b9d71, 0xc9c4bc53d66b46b9),
    ("SPRNG", 0x3ecd7ac74ca0b8b7, 0x81824170786f49ff),
    ("FOX", 0xf307781d6448650f, 0xd0cbeb8bfb337075),
    ("LANDS", 0xd685e1096fc4ae60, 0x451083db9a951889),
    ("CRNVL", 0x419f9ce9dca1e50c, 0x58624ae6d22001fa),
    ("SPNZA", 0xa0c58101a93c9fdd, 0xee904f3eecebe6c4),
    ("BATH", 0xe23b6449f333ddf3, 0x5cb44b966d1a397c),
    ("ROBOT", 0x72deb8b30680dcfd, 0x26ea1fdfc5de46a3),
    ("CAR", 0x0439b79af984913f, 0x377a198126372496),
    ("PARTY", 0x36030624061c23aa, 0x65f296f8998286a2),
    ("FRST", 0xc134c4bb50f3ed67, 0x87b48112cb12a6c9),
    ("BUNNY", 0x7ea06b7909861650, 0x9358cd28a91cc54c),
    ("SHIP", 0x650f69aff148f97c, 0x97db571726a4f37b),
    ("REF", 0x17386932d1c5627e, 0xed0a12b487f5f472),
    ("CHSNT", 0x098fd9ab39a59004, 0xce0a2a9c143f6af6),
    ("PARK", 0xcd11b1b7996da62a, 0x110e32ef5f577418),
];

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// A length-prefixed array, so moving a word between arrays changes
    /// the digest.
    fn words(&mut self, ws: impl ExactSizeIterator<Item = u32>) {
        self.word(ws.len() as u32);
        ws.for_each(|w| self.word(w));
    }

    fn floats(&mut self, fs: &[f32]) {
        self.words(fs.iter().map(|f| f.to_bits()));
    }
}

fn digest(bvh: &FlatBvh) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.word(bvh.nodes.len() as u32);
    for n in &bvh.nodes {
        n.min.iter().chain(&n.max).for_each(|f| h.word(f.to_bits()));
        h.word(n.first);
        h.word(n.count_kind);
    }
    h.words(bvh.child_node.iter().copied());
    for plane in [
        &bvh.child_min_x,
        &bvh.child_min_y,
        &bvh.child_min_z,
        &bvh.child_max_x,
        &bvh.child_max_y,
        &bvh.child_max_z,
    ] {
        h.floats(plane);
    }
    h.words(bvh.prim_order.iter().copied());
    let (lo, hi) = (bvh.root_aabb.min, bvh.root_aabb.max);
    h.floats(&[lo.x, lo.y, lo.z, hi.x, hi.y, hi.z]);
    h.words(bvh.escape.iter().copied());
    h.0
}

#[test]
fn flat_layout_digests_match_recorded_two_pass_build() {
    let render = RenderConfig::tiny();
    let got: Vec<(&str, u64, u64)> = SceneId::ALL
        .iter()
        .map(|&id| {
            let default = PreparedScene::build(id, &render);
            let hlbvh = PreparedScene::build_with(id, &render, &BuildParams::hlbvh(1));
            (id.name(), digest(&default.bvh), digest(&hlbvh.bvh))
        })
        .collect();
    let table: String = got
        .iter()
        .map(|(name, d, h)| format!("    (\"{name}\", {d:#018x}, {h:#018x}),\n"))
        .collect();
    assert!(got == GOLDEN, "FlatBvh layout digests changed; recorded table is now:\n{table}");
}
