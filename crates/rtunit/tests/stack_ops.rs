//! The exact micro-op stream of `WarpStacks`, pinned per stack hierarchy.
//!
//! `sim_golden` pins whole simulated cells, but only for the configs it
//! runs. This suite drives `WarpStacks` directly with seeded streams of
//! pushes, pops, `mark_done` and `clear_lane` over all 32 lanes, for the
//! hierarchies no cell reaches: plain SH, skew only, reallocation only,
//! `SH_0`, a non-power-of-two SH size and a tight borrow limit.
//! Each `stack_ops.<config>` row of `goldens.txt` is an FNV-1a digest over
//! every popped value, every emitted `MicroOp` (space, kind, level and
//! each `(addr, size)`) and the final `SimStats::values()`. A row that
//! moves means the stack manager emits different work for the RT unit to
//! time, not just that its bookkeeping changed.

use sms_geom::golden::{self, fnv1a64_extend, FNV_OFFSET};
use sms_geom::SplitMix64;
use sms_gpu::{SimStats, WARP_SIZE};
use sms_mem::AccessKind;
use sms_rtunit::{MicroOp, SmsParams, Space, StackConfig, StackLevel, WarpStacks};

/// Operations applied per stream (over all of its episodes).
const OPS: usize = 12_000;

/// One seed for every config: the stream depends only on logical stack
/// depths, so hierarchies that behave alike (`RB_8`, `PRED_12`, `SH_0`)
/// see the same stream and share a digest.
const SEED: u64 = 0x057A_C0B5;

/// Operations one warp's stacks see before the next episode starts afresh.
const EPISODE_OPS: usize = 1_500;

fn parsed(label: &str) -> (String, StackConfig) {
    (label.to_owned(), label.parse().expect(label))
}

/// The pinned hierarchies, keyed by their golden case name.
fn configs() -> Vec<(String, StackConfig)> {
    let mut configs: Vec<_> = ["RB_1", "RB_8", "RB_FULL", "PRED_12"].map(parsed).into();
    // `SH_0` is refused by the label grammar, so it is built in code.
    let sh0 = StackConfig::Sms(SmsParams { sh_entries: 0, ..SmsParams::default() });
    configs.push(("RB_8+SH_0".to_owned(), sh0));
    configs.extend(
        ["RB_8+SH_8", "RB_8+SH_8+SK", "RB_8+SH_8+RA", "RB_8+SH_8+SK+RA", "RB_2+SH_5+SK+RA"]
            .map(parsed),
    );
    // Reallocation at its tightest: one borrow.
    let tight = SmsParams {
        rb_entries: 1,
        sh_entries: 1,
        realloc: true,
        borrow_limit: 1,
        ..SmsParams::default()
    };
    configs.push(("RB_1+SH_1+RA.borrow1".to_owned(), StackConfig::Sms(tight)));
    configs
}

fn fold_op(h: u64, op: &MicroOp) -> u64 {
    let space = match op.space {
        Space::Shared => 0u8,
        Space::Global => 1,
    };
    let kind = match op.kind {
        AccessKind::Load => 0u8,
        AccessKind::Store => 1,
    };
    let level = match op.level {
        StackLevel::RbSh => 0u8,
        StackLevel::ShGlobal => 1,
        StackLevel::Flush => 2,
    };
    let h = fnv1a64_extend(h, &[space, kind, level]);
    let h = fnv1a64_extend(h, &(op.addrs.len() as u32).to_le_bytes());
    op.addrs.iter().fold(h, |h, &(addr, size)| {
        fnv1a64_extend(fnv1a64_extend(h, &addr.to_le_bytes()), &size.to_le_bytes())
    })
}

/// Drives one seeded stream through `config`'s stacks and digests it.
///
/// A stream is a run of episodes, each a fresh warp's stacks in one of
/// four RT-unit slots. An episode retires a few lanes up front (feeding
/// reallocation's idle pool), confines itself to a window of adjacent
/// lanes and draws its own push share, so some episodes go deep into the
/// global level and others keep every lane shallow. A lane that runs
/// empty may finish (`mark_done`); any lane may be cleared, as an any-hit
/// query does. Both are terminal for the lane within its episode.
fn digest(config: &StackConfig, seed: u64, validate: bool) -> u64 {
    let mut rng = SplitMix64::new(seed);
    let mut stats = SimStats::default();
    let mut ops = Vec::new();
    let mut h = FNV_OFFSET;
    let (mut done_ops, mut episode, mut next) = (0usize, 0u32, 0u32);
    while done_ops < OPS {
        let slot = u64::from(episode % 4);
        let mut stacks = WarpStacks::new(
            config,
            slot * config.shared_bytes_per_warp(),
            episode * WARP_SIZE as u32,
        );
        if validate {
            stacks.enable_validator();
        }
        let mut live = [true; WARP_SIZE];
        for _ in 0..rng.below(12) {
            let lane = rng.below(WARP_SIZE as u64) as usize;
            if std::mem::take(&mut live[lane]) {
                stacks.mark_done(lane);
                h = fnv1a64_extend(h, &[b'D', lane as u8]);
            }
        }
        let first = rng.below(WARP_SIZE as u64) as usize;
        let width = 1 + rng.below(WARP_SIZE as u64) as usize;
        let push_share = rng.range_f32(0.35, 0.8);
        for _ in 0..EPISODE_OPS {
            let window = (first..first + width).map(|l| l % WARP_SIZE);
            let pool: Vec<usize> = window.filter(|&l| live[l]).collect();
            if pool.is_empty() {
                break;
            }
            let lane = pool[rng.below(pool.len() as u64) as usize];
            done_ops += 1;
            let empty = stacks.is_empty(lane);
            let roll = rng.next_f32();
            if roll < 0.003 {
                stacks.clear_lane(lane);
                live[lane] = false;
                h = fnv1a64_extend(h, &[b'C', lane as u8]);
            } else if empty && roll < 0.2 {
                stacks.mark_done(lane);
                live[lane] = false;
                h = fnv1a64_extend(h, &[b'D', lane as u8]);
            } else if empty || rng.next_f32() < push_share {
                stacks.push(lane, next, &mut stats, &mut ops);
                next += 1;
                h = fnv1a64_extend(h, &[b'P', lane as u8]);
            } else {
                let v = stacks.pop(lane, &mut stats, &mut ops);
                h = fnv1a64_extend(fnv1a64_extend(h, &[b'O', lane as u8]), &v.to_le_bytes());
            }
            h = ops.drain(..).fold(h, |h, op| fold_op(h, &op));
        }
        let violation = stacks.take_violation();
        assert!(violation.is_none(), "{config} episode {episode}: {violation:?}");
        episode += 1;
    }
    stats.values().into_iter().fold(h, |h, v| fnv1a64_extend(h, &v.to_le_bytes()))
}

#[test]
fn micro_op_streams_match_the_recorded_digests() {
    let mut rows = Vec::new();
    for (name, config) in configs() {
        let plain = digest(&config, SEED, false);
        assert_eq!(plain, digest(&config, SEED, true), "{name}: the validator changed the stream");
        rows.push((name, format!("{plain:#018x}")));
    }
    golden::check("stack_ops", &rows);
}
