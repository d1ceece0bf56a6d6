//! Every tier's `from_env` over one snapshot: the same pairs must mean the
//! same thing to the CLI harness, the server, the fleet and the client.
//! Snapshots are built from pairs — no test touches the process
//! environment.

use sms_harness::{HarnessConfig, RunLimits};
use sms_serve::client::ClientConfig;
use sms_serve::fleet::FleetConfig;
use sms_serve::server::ServeConfig;
use sms_sim::config::RenderConfig;
use sms_sim::Env;
use std::path::PathBuf;
use std::time::Duration;

/// One path grammar: a blank location (what `SMS_CACHE_DIR="$UNSET"`
/// expands to) is unset for all three tiers — it used to become the
/// cache directory `""`, i.e. the current directory.
#[test]
fn blank_storage_paths_leave_every_tier_at_its_default() {
    for blank in ["", "   "] {
        let env = Env::from_pairs(&[
            ("SMS_CACHE_DIR", blank),
            ("SMS_JOURNAL", blank),
            ("SMS_SERVE_JOURNAL", blank),
            ("SMS_FLEET_JOURNAL", blank),
        ]);
        assert!(env.warnings.is_empty(), "{:?}", env.warnings);
        let (harness, serve, fleet) = (
            HarnessConfig::from_env(&env),
            ServeConfig::from_env(&env),
            FleetConfig::from_env(&env),
        );
        assert_eq!(harness.cache_dir, HarnessConfig::default().cache_dir);
        assert_eq!(serve.cache_dir, ServeConfig::default().cache_dir);
        assert_eq!(fleet.cache_dir, None);
        assert_eq!(
            (harness.journal_path, serve.journal_path, fleet.journal_path),
            (None, None, None)
        );
    }
    // Set, the same function relocates all three; a tier's own journal
    // variable wins over the shared one.
    let env = Env::from_pairs(&[
        ("SMS_CACHE_DIR", " /c "),
        ("SMS_JOURNAL", "/j"),
        ("SMS_FLEET_JOURNAL", "/fj"),
    ]);
    let dir = Some(PathBuf::from("/c"));
    assert_eq!(HarnessConfig::from_env(&env).cache_dir, dir);
    assert_eq!(ServeConfig::from_env(&env).cache_dir, dir);
    assert_eq!(FleetConfig::from_env(&env).cache_dir, dir);
    assert_eq!(ServeConfig::from_env(&env).journal_path, Some(PathBuf::from("/j")));
    assert_eq!(FleetConfig::from_env(&env).journal_path, Some(PathBuf::from("/fj")));
}

/// One flag grammar, at the consumers: `=true` arms what `=1` arms (the
/// journal a deployer believes is fsynced now is), on every tier.
#[test]
fn true_arms_every_flag_on_every_tier() {
    for on in ["1", "true"] {
        let env = Env::from_pairs(&[
            ("SMS_JOURNAL_SYNC", on),
            ("SMS_NO_CACHE", on),
            ("SMS_HLBVH", on),
            ("SMS_PAPER", on),
            ("SMS_VALIDATE", on),
            ("SMS_BREAKDOWN", on),
        ]);
        let (harness, serve, fleet) = (
            HarnessConfig::from_env(&env),
            ServeConfig::from_env(&env),
            FleetConfig::from_env(&env),
        );
        assert!(harness.journal_sync && serve.journal_sync && fleet.journal_sync, "={on}");
        assert_eq!((harness.cache_dir, serve.cache_dir, fleet.cache_dir), (None, None, None));
        assert!(harness.hlbvh && harness.limits.validate && harness.limits.breakdown);
        // Served streams carry `SimStats` only: observation stays off.
        assert_eq!(serve.run_limits, RunLimits { validate: true, ..RunLimits::none() });
        assert_eq!(RenderConfig::from_env(&env), RenderConfig::paper());
    }
    let off = Env::default();
    assert!(!HarnessConfig::from_env(&off).journal_sync);
    assert_eq!(RenderConfig::from_env(&off), RenderConfig::fast());
}

/// The surviving numeric and text rows reach their fields; the deleted
/// `SMS_SERVE_*` bounds are reported as unknown and move nothing.
#[test]
fn numeric_and_text_rows_reach_their_fields() {
    let env = Env::from_pairs(&[
        ("SMS_JOBS", "3"),
        ("SMS_RETRIES", "0"),
        ("SMS_MAX_CYCLES", "5000"),
        ("SMS_SERVE_ADDR", "127.0.0.1:9"),
        ("SMS_FAULT", "kill:jobs=1"),
        ("SMS_FLEET_BACKENDS", "a:1, b:2"),
        ("SMS_FLEET_ATTEMPTS", "7"),
        ("SMS_FLEET_HEDGE_MS", "15"),
        ("SMS_GIT_HASH", "abc123"),
        ("SMS_CLIENT_RETRIES", "0"),
        ("SMS_CLIENT_TIMEOUT_MS", "250"),
        ("SMS_TRACE_CTX", "00000000c0ffee42-0000000000000001"),
        ("SMS_SERVE_MAX_CONNS", "1"),
        ("SMS_FLEET_WORKERS", "1"),
    ]);
    let unknown: Vec<&str> = env.warnings.iter().map(|w| w.split(':').next().unwrap()).collect();
    assert_eq!(unknown, ["SMS_SERVE_MAX_CONNS", "SMS_FLEET_WORKERS"]);

    let harness = HarnessConfig::from_env(&env);
    assert_eq!((harness.workers, harness.retries), (3, 0));
    assert_eq!(harness.limits.max_cycles, Some(5000));

    let serve = ServeConfig::from_env(&env);
    assert_eq!(serve.addr, "127.0.0.1:9");
    assert_eq!(serve.run_limits.max_cycles, Some(5000));
    assert!(serve.faults.is_some());
    assert_eq!(serve.max_conns, ServeConfig::default().max_conns);
    assert_eq!(ServeConfig::from_env(&Env::default()).addr, "127.0.0.1:7745");

    let fleet = FleetConfig::from_env(&env);
    assert_eq!(fleet.backends, ["a:1", "b:2"]);
    assert_eq!((fleet.cell_attempts, fleet.workers), (7, FleetConfig::default().workers));
    assert_eq!(fleet.hedge_after, Some(Duration::from_millis(15)));
    assert_eq!(fleet.git_hash, "abc123");
    assert_eq!(FleetConfig::from_env(&Env::default()).addr, "127.0.0.1:7746");

    let client = ClientConfig::from_env(&env);
    assert_eq!((client.addr.as_str(), client.retries), ("127.0.0.1:9", 0));
    assert_eq!(client.limits.read_timeout, Duration::from_millis(250));
    assert_eq!(client.trace.map(|t| t.trace_hex()).as_deref(), Some("00000000c0ffee42"));
}
