//! Telemetry never moves the science: over a Fig. 13 sweep slice, arming
//! `SMS_METRICS` leaves every serialized `SimStats` payload — the bytes
//! the cache stores and the journal replays — identical to the unarmed
//! sweep, and the cache keys themselves stay on `SIM_VERSION_SALT` 1 (the
//! metrics layer is pure observation, so no salt bump is warranted).

use sms_harness::{cache, Harness, HarnessConfig, RunLimits, RunRequest, SIM_VERSION_SALT};
use sms_sim::config::RenderConfig;
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;

/// The Fig. 13 configuration matrix.
fn fig13_configs() -> Vec<StackConfig> {
    vec![
        StackConfig::baseline8(),
        StackConfig::Sms(SmsParams::default()),
        StackConfig::Sms(SmsParams::default().with_skewed(true)),
        StackConfig::sms_default(),
        StackConfig::FullOnChip,
    ]
}

#[test]
fn armed_sweep_stats_are_byte_identical_and_salt_is_stable() {
    assert_eq!(SIM_VERSION_SALT, 1, "pure observation must not bump the simulator version");

    let scenes = [SceneId::Ship, SceneId::Bunny, SceneId::Ref, SceneId::Chsnt];
    let configs = fig13_configs();
    let render = RenderConfig::tiny();
    let requests: Vec<RunRequest> = scenes
        .iter()
        .flat_map(|&id| configs.iter().map(move |&stack| RunRequest::new(id, stack, render)))
        .collect();
    assert!(requests.len() >= 16, "the slice must cover at least 16 sweep entries");

    let quiet =
        || Harness::new(HarnessConfig { workers: 4, cache_dir: None, ..HarnessConfig::default() });
    let (off, off_summary) = quiet().run_batch(&requests);
    let armed: Vec<RunRequest> = requests
        .iter()
        .map(|r| r.with_limits(RunLimits { metrics: true, ..RunLimits::none() }))
        .collect();
    let (on, on_summary) = quiet().run_batch(&armed);

    assert!(off_summary.metrics.is_none(), "unarmed batch must not aggregate metrics");
    let batch = on_summary.metrics.expect("armed batch must aggregate metrics");
    assert!(batch.stack_depth.count > 0 && batch.ray_latency.count > 0);

    for (a, b) in off.iter().zip(&on) {
        // Byte-for-byte over the serialized payload: this is exactly what
        // a cache entry or journal line stores, so equality here means
        // armed and unarmed sweeps are interchangeable on disk.
        let off_bytes = cache::stats_json(&a.stats);
        let on_bytes = cache::stats_json(&b.stats);
        assert_eq!(off_bytes, on_bytes, "{} / {}", a.scene, a.stack.label());
        assert_eq!(cache::fnv1a64(off_bytes.as_bytes()), cache::fnv1a64(on_bytes.as_bytes()));
        assert!(a.metrics.is_none());
        assert!(b.metrics.is_some(), "{} / {}", b.scene, b.stack.label());
    }
}
