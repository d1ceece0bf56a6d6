//! Properties: every stack configuration is an exact LIFO for every lane
//! under arbitrary operation interleavings, plain SMS emits only the
//! §VI-A micro-op sequences, and reallocation keeps its chain bounds and
//! the `StackValidator`'s invariants while lanes finish around it.

mod common;

use common::sms_params;
use sms_geom::check::{for_cases, Gen};
use sms_gpu::SimStats;
use sms_mem::AccessKind::{Load, Store};
use sms_rtunit::Space::{Global, Shared};
use sms_rtunit::{MicroOp, SmsParams, StackConfig, WarpStacks};

const CASES: u64 = 10_000;

fn config(g: &mut Gen) -> StackConfig {
    match g.int(0, 7) {
        0 => StackConfig::Baseline { rb_entries: g.int(1, 16) },
        1 => StackConfig::FullOnChip,
        _ => {
            let realloc = g.chance(0.5);
            StackConfig::Sms(sms_params(g, 0, realloc))
        }
    }
}

/// `(lane, push?)` — a pop on an empty lane is turned into a push. Each
/// stream confines itself to 1..=32 adjacent lanes and draws its own push
/// share, so some reach the global level and some interleave all lanes.
fn ops(g: &mut Gen) -> Vec<(usize, bool)> {
    let (first, lanes, push) = (g.int(0, 31), g.int(1, 32), g.rng.range_f32(0.4, 0.9));
    g.vec(1, 600, |g| ((first + g.int(0, lanes - 1)) % 32, g.chance(push)))
}

fn assert_exact_lifo(config: &StackConfig, ops: &[(usize, bool)]) {
    let mut stacks = WarpStacks::new(config, 0, 0);
    let mut reference: Vec<Vec<u32>> = vec![Vec::new(); 32];
    let (mut stats, mut micro, mut next) = (SimStats::default(), Vec::<MicroOp>::new(), 0u32);
    for &(lane, push) in ops {
        if push || reference[lane].is_empty() {
            stacks.push(lane, next, &mut stats, &mut micro);
            reference[lane].push(next);
            next += 1;
        } else {
            let got = stacks.pop(lane, &mut stats, &mut micro);
            assert_eq!(Some(got), reference[lane].pop(), "{config} lane {lane}");
        }
        assert_eq!(stacks.depth(lane), reference[lane].len(), "{config} lane {lane}");
    }
    // Full content equality, then drain everything.
    for (lane, expected) in reference.iter_mut().enumerate() {
        assert_eq!(&stacks.logical_contents(lane), expected, "{config} lane {lane}");
        while let Some(v) = expected.pop() {
            assert_eq!(stacks.pop(lane, &mut stats, &mut micro), v, "{config} lane {lane}");
        }
        assert!(stacks.is_empty(lane));
    }
}

#[test]
fn lifo_exactness_under_interleaving() {
    for_cases(CASES, 0x57AC, |g| assert_exact_lifo(&config(g), &ops(g)));
}

/// The one shrunk failure the old registry-backed suite ever recorded
/// (`RB_1+SH_1+RA`, one borrow), kept as a literal. It was found with a
/// flush limit of 0, which no stack ever read.
#[test]
fn lifo_regression_rb1_sh1_ra_borrow1_flush0() {
    const T: bool = true;
    const F: bool = false;
    let config = StackConfig::Sms(SmsParams {
        rb_entries: 1,
        sh_entries: 1,
        skewed: false,
        realloc: true,
        borrow_limit: 1,
    });
    #[rustfmt::skip]
    let ops = [
        (0, F), (5, T), (23, F), (27, T), (15, T), (1, F), (21, T), (28, F), (21, F), (11, F),
        (7, T), (16, F), (22, F), (10, T), (8, T), (7, T), (10, T), (11, T), (21, T), (24, F),
        (25, F), (8, F), (15, F), (28, T), (21, T), (5, T), (16, T), (11, F), (10, T), (14, T),
        (12, T), (7, F), (19, T), (4, F), (19, T), (25, F), (2, F), (25, F), (23, F), (2, T),
        (30, T), (8, T), (30, F), (12, T), (20, T), (17, T), (14, F), (4, F), (7, T), (21, F),
        (25, T), (5, T), (22, F), (10, T), (0, T), (10, T), (7, F), (16, F), (7, T), (13, T),
        (13, T), (30, T), (18, F), (4, T), (0, T), (1, T), (6, T), (9, F), (25, T), (1, F),
        (8, T), (31, T), (14, T),
    ];
    assert_eq!(ops.len(), 73);
    assert_exact_lifo(&config, &ops);
}

#[test]
fn micro_ops_follow_paper_sequences() {
    for_cases(CASES, 0x6A, |g| {
        let config = StackConfig::Sms(sms_params(g, 1, false));
        let mut stacks = WarpStacks::new(&config, 0, 0);
        let mut depth = [0usize; 32];
        let (mut stats, mut next) = (SimStats::default(), 0u32);
        for (lane, push) in ops(g) {
            let mut micro: Vec<MicroOp> = Vec::new();
            let legal: [&[_]; 3] = if push || depth[lane] == 0 {
                stacks.push(lane, next, &mut stats, &mut micro);
                next += 1;
                depth[lane] += 1;
                // RB had room / spill to SH / both full.
                [&[], &[(Shared, Store)], &[(Shared, Load), (Global, Store), (Shared, Store)]]
            } else {
                stacks.pop(lane, &mut stats, &mut micro);
                depth[lane] -= 1;
                // RB only / refill from SH / cascade from global.
                [&[], &[(Shared, Load)], &[(Shared, Load), (Global, Load), (Shared, Store)]]
            };
            let pattern: Vec<_> = micro.iter().map(|o| (o.space, o.kind)).collect();
            assert!(legal.contains(&pattern.as_slice()), "{config}: {pattern:?}");
        }
    });
}

#[test]
fn ra_capacity_invariants() {
    for_cases(CASES, 0x4A, |g| {
        let p = sms_params(g, 1, true);
        let config = StackConfig::Sms(p);
        let mut stacks = WarpStacks::new(&config, 0, 0);
        stacks.enable_validator();
        // Some lanes are done before the first push, others finish when
        // they run empty mid-stream: both feed the idle pool.
        let mut live = [true; 32];
        for _ in 0..g.int(0, 15) {
            let lane = g.int(0, 31);
            if std::mem::take(&mut live[lane]) {
                stacks.mark_done(lane);
            }
        }
        let mut reference: Vec<Vec<u32>> = vec![Vec::new(); 32];
        let (mut stats, mut micro, mut next) = (SimStats::default(), Vec::new(), 0u32);
        for (lane, push) in ops(g) {
            if !live[lane] {
                continue;
            }
            if push || reference[lane].is_empty() {
                stacks.push(lane, next, &mut stats, &mut micro);
                reference[lane].push(next);
                next += 1;
            } else {
                let got = stacks.pop(lane, &mut stats, &mut micro);
                assert_eq!(Some(got), reference[lane].pop(), "{config} lane {lane}");
                if reference[lane].is_empty() && g.chance(0.25) {
                    stacks.mark_done(lane);
                    live[lane] = false;
                }
            }
            let chain = stacks.chain_len(lane);
            assert!(chain <= 1 + p.borrow_limit, "{config}: chain {chain} exceeds the limit");
            assert_eq!(stacks.depth(lane), reference[lane].len(), "{config} lane {lane}");
        }
        let violation = stacks.take_violation();
        assert!(violation.is_none(), "{config} (borrow {}): {violation:?}", p.borrow_limit);
    });
}

/// `FromStr` is the inverse of `label()` for every config at the default
/// borrow/flush limits — the label carries neither, so a parsed SMS config
/// always has the paper's 4 / 3.
#[test]
fn label_parse_round_trip() {
    for_cases(CASES, 0x1ABE1, |g| {
        let c = match g.int(0, 5) {
            0 => StackConfig::Baseline { rb_entries: g.int(1, 64) },
            1 => StackConfig::FullOnChip,
            2 => StackConfig::Stackless,
            3 => StackConfig::Predictor { table_bits: g.int(1, 20) as u32 },
            _ => {
                let realloc = g.chance(0.5);
                let SmsParams { borrow_limit, .. } = SmsParams::default();
                StackConfig::Sms(SmsParams { borrow_limit, ..sms_params(g, 1, realloc) })
            }
        };
        assert_eq!(c.label().parse(), Ok(c), "{c}");
    });
}

/// Sizes past `u32::MAX` are refused, not truncated: the last literal
/// once parsed and then simulated exactly as `RB_8+SH_8`.
#[test]
fn malformed_labels_do_not_parse() {
    for bad in [
        "",
        "RB_0",
        "RB_8+SK",
        "RB_8+SH_0",
        "PRED_0",
        "PRED_21",
        "RB_8+",
        "RB_8+SH_8+SK+",
        "RB_4294967296",
        "RB_8+SH_4294967296",
        "RB_8+SH_2305843009213693960",
    ] {
        let err = bad.parse::<StackConfig>().expect_err(bad);
        assert!(err.starts_with(&format!("unknown stack config `{bad}` (expected e.g. ")), "{err}");
    }
}
