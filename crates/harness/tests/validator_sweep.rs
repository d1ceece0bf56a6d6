//! The stack invariant validator over a full Fig. 13-style sweep: every
//! configuration class (baseline register stacks, SMS with and without
//! skewing/reallocation, full on-chip, the competitors with no SH level,
//! and the borrow/flush limits `ablation_ra_limits` runs) runs under
//! validation with zero violations — and because the validator is pure
//! observation, the stats are bit-identical to the same sweep with
//! validation off.

use sms_harness::{Harness, HarnessConfig, RunLimits, RunRequest};
use sms_sim::config::RenderConfig;
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;

fn fig13_configs() -> Vec<StackConfig> {
    vec![
        StackConfig::baseline8(),
        StackConfig::Sms(SmsParams::default()),
        StackConfig::Sms(SmsParams::default().with_skewed(true)),
        StackConfig::sms_default(),
        StackConfig::FullOnChip,
        StackConfig::stackless(),
        StackConfig::predictor_default(),
        StackConfig::Sms(SmsParams { borrow_limit: 1, ..full_sms() }),
    ]
}

/// `RB_8+SH_8+SK+RA`'s parameters.
fn full_sms() -> SmsParams {
    SmsParams::default().with_skewed(true).with_realloc(true)
}

#[test]
fn full_sweep_validates_clean_and_stats_match_unvalidated() {
    let scenes = [SceneId::Wknd, SceneId::Ship, SceneId::Bunny];
    let configs = fig13_configs();
    let render = RenderConfig::tiny();

    let plain = Harness::new(HarnessConfig {
        workers: 4,
        cache_dir: None,
        journal_path: None,
        ..HarnessConfig::default()
    });
    let watched = Harness::new(HarnessConfig {
        workers: 4,
        cache_dir: None,
        journal_path: None,
        limits: RunLimits {
            max_cycles: None,
            stall_cycles: None,
            validate: true,
            breakdown: false,
            metrics: false,
        },
        ..HarnessConfig::default()
    });

    let (baseline, _) = plain.try_run_suite(&scenes, &configs, &render);
    let (validated, summary) = watched.try_run_suite(&scenes, &configs, &render);

    assert_eq!(summary.failed, 0, "a violation would surface as a failed run");
    for (s, (b_row, v_row)) in baseline.iter().zip(&validated).enumerate() {
        for (b, v) in b_row.iter().zip(v_row) {
            let b = b.as_ref().expect("unvalidated run completes");
            let v = v
                .as_ref()
                .unwrap_or_else(|e| panic!("validator flagged {} / {}: {e}", scenes[s], b.stack));
            assert_eq!(
                b.stats, v.stats,
                "validator must be pure observation ({} / {})",
                scenes[s], b.stack
            );
        }
    }
}

#[test]
fn per_request_validation_composes_with_harness_limits() {
    // Validation via the per-request override instead of harness-wide
    // limits: same clean result.
    let harness = Harness::new(HarnessConfig {
        workers: 2,
        cache_dir: None,
        journal_path: None,
        ..HarnessConfig::default()
    });
    let limits = RunLimits {
        max_cycles: None,
        stall_cycles: None,
        validate: true,
        breakdown: false,
        metrics: false,
    };
    let req = RunRequest::new(SceneId::Wknd, StackConfig::sms_default(), RenderConfig::tiny())
        .with_limits(limits);
    let plain = RunRequest::new(SceneId::Wknd, StackConfig::sms_default(), RenderConfig::tiny());

    let (results, summary) = harness.try_run_batch(&[req, plain]);
    assert_eq!(summary.failed, 0);
    assert_eq!(
        results[0].as_ref().unwrap().stats,
        results[1].as_ref().unwrap().stats,
        "validated and unvalidated runs of the same request agree bit for bit"
    );
}
