//! Exact simulated statistics, pinned in tier-1.
//!
//! A host-side speed-up of the cycle model must leave every simulated
//! counter untouched. Each row below is an FNV-1a digest over
//! `SimStats::values()` followed by `MemStats::values()` (the
//! `counter_record!` field lists, so a new counter joins the digest by
//! being declared) for one `RenderConfig::tiny()` cell. The literals were
//! recorded at the commit before the RT unit's event index and the flat
//! cache model landed; a row that moves means the *model* changed, not
//! just the bookkeeping, and needs a re-bless with an explanation.

use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;
use sms_sim::sim::RunLimits;
use sms_sim::{experiments, RenderConfig};

fn digest(stats: &SimStats) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in stats.values().into_iter().chain(stats.mem.values()) {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// SMS with one borrow and one flush allowed: reallocation runs into both
/// limits, so forced flushes and their multi-entry micro-ops are timed.
fn limited_sms() -> StackConfig {
    StackConfig::Sms(SmsParams {
        rb_entries: 2,
        sh_entries: 4,
        skewed: true,
        realloc: true,
        borrow_limit: 1,
        flush_limit: 1,
    })
}

fn configs() -> [StackConfig; 6] {
    [
        StackConfig::baseline8(),
        StackConfig::sms_default(),
        limited_sms(),
        StackConfig::FullOnChip,
        StackConfig::stackless(),
        StackConfig::predictor_default(),
    ]
}

fn run(prepared: &PreparedScene, stack: StackConfig, limits: &RunLimits) -> SimStats {
    let render = RenderConfig::tiny();
    experiments::try_run_prepared(prepared, stack, GpuConfig::default(), &render, limits)
        .unwrap_or_else(|fault| panic!("{}: {fault}", stack.label()))
        .stats
}

/// One row per scene, one digest per entry of [`configs`]. FOX rides along
/// because it is the tiny workload on which `PRED_12` both hits and
/// mispredicts (on SHIP, WKND and ROBOT the table never fires and the
/// `PRED_12` digest equals `RB_8`'s).
const GOLDEN: [(SceneId, [u64; 6]); 4] = [
    (
        SceneId::Ship,
        [
            0xaf9d_25ab_57fc_b962,
            0x6686_375c_3627_c1d9,
            0x9f93_3bfe_e517_e4e9,
            0x492a_549d_65bb_60f4,
            0x5bd9_1683_91d9_9c36,
            0xaf9d_25ab_57fc_b962,
        ],
    ),
    (
        SceneId::Wknd,
        [
            0x3862_32b6_5173_3815,
            0xa1f5_8d1e_57fb_5ba9,
            0x266e_a563_1619_d6ac,
            0x6ade_4fa9_7c15_0ab7,
            0x9d2c_9e19_c47c_f98b,
            0x3862_32b6_5173_3815,
        ],
    ),
    (
        SceneId::Robot,
        [
            0xd506_e816_d656_ded6,
            0x6867_33bc_9486_2a94,
            0xe169_8afc_0be6_00d3,
            0xf548_910c_1925_ec33,
            0xecef_2ded_0411_0f9a,
            0xd506_e816_d656_ded6,
        ],
    ),
    (
        SceneId::Fox,
        [
            0x568a_85b8_1bea_aac3,
            0x2763_39ad_bbdf_80bc,
            0xcc43_73ef_27b7_9684,
            0x4032_fd1d_8ebf_0dc6,
            0xd1d4_e200_eea9_d8c2,
            0xe80c_c641_fdab_58b9,
        ],
    ),
];

#[test]
fn stats_digests_match_the_recorded_cells() {
    let render = RenderConfig::tiny();
    let mut seen = Vec::new();
    for (scene, _) in GOLDEN {
        let prepared = PreparedScene::build(scene, &render);
        let row = configs().map(|stack| digest(&run(&prepared, stack, &RunLimits::none())));
        seen.push((scene, row));
    }
    let observed: String =
        seen.iter().map(|(s, row)| format!("    ({s:?}, {row:#018x?}),\n")).collect();
    assert!(seen == GOLDEN, "simulated statistics moved; observed rows:\n{observed}");
}

#[test]
fn armed_observers_leave_the_digest_alone() {
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Ship, &render);
    let armed = RunLimits { validate: true, breakdown: true, metrics: true, ..RunLimits::none() };
    for stack in [StackConfig::sms_default(), limited_sms()] {
        let plain = run(&prepared, stack, &RunLimits::none());
        assert_eq!(
            digest(&run(&prepared, stack, &armed)),
            digest(&plain),
            "{}: validator + attribution + metrics must not move a counter",
            stack.label()
        );
        assert!(plain.ra_borrows > 0 && plain.ra_flushes > 0, "{}: {plain:?}", stack.label());
    }
}
