//! Seeded chaos: the fleet must lose zero cells when a backend dies
//! mid-sweep, a killed backend's finished cells must not be simulated
//! again, and the fleet must degrade to cache-only serving when every
//! backend is down.
//!
//! Fault injection is the deterministic `FaultPlan` layer (`SMS_FAULT`),
//! configured directly on the backend `ServeConfig` so each test controls
//! exactly which backend misbehaves and how.

use sms_harness::cache::stats_to_json;
use sms_harness::{FaultPlan, Harness, HarnessConfig, ResultCache, RunRequest};
use sms_serve::client::{Client, ClientConfig};
use sms_serve::fleet::{FleetConfig, FleetServer};
use sms_serve::protocol::SweepOutcome;
use sms_serve::server::{ServeConfig, Server};
use sms_sim::config::RenderConfig;
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const SCENES: [SceneId; 2] = [SceneId::Wknd, SceneId::Bunny];
const SCENE_NAMES: [&str; 2] = ["WKND", "BUNNY"];
const CONFIG_NAMES: [&str; 3] = ["RB_8", "RB_8+SH_8", "RB_8+SH_8+SK+RA"];

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-fleet-chaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn backend_config(cache_dir: PathBuf) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_dir: Some(cache_dir),
        journal_path: None,
        ..ServeConfig::default()
    }
}

fn fleet_config(backends: Vec<String>, cache_dir: PathBuf) -> FleetConfig {
    FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends,
        workers: 2,
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(10),
        cell_attempts: 4,
        cache_dir: Some(cache_dir),
        ..FleetConfig::default()
    }
}

fn fleet_client(addr: std::net::SocketAddr) -> Client {
    Client::with_config(ClientConfig {
        addr: addr.to_string(),
        retries: 0,
        deadline: Duration::from_secs(300),
        ..ClientConfig::default()
    })
}

/// The journal's settled cells, read with the strict stream codec the
/// client uses; every one must have finished.
fn journal_records(path: &std::path::Path) -> usize {
    let outcome = SweepOutcome::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert!(outcome.records.iter().all(|r| r.outcome.is_ok()), "{}", path.display());
    outcome.records.len()
}

/// The grid's requests, built exactly the way the wire protocol builds
/// them, so cache keys and stats line up with the served cells.
fn grid_requests() -> Vec<RunRequest> {
    let render = RenderConfig::tiny();
    let mut requests = Vec::new();
    for &scene in &SCENES {
        for name in CONFIG_NAMES {
            let stack: StackConfig = name.parse().expect("test config label");
            requests.push(RunRequest::new(scene, stack, render).with_gpu(GpuConfig::default()));
        }
    }
    requests
}

/// Byte identity with the direct, fleet-less and cache-less simulation
/// path: every grid cell of `outcome` succeeded with the direct run's stats.
fn assert_matches_direct_run(outcome: &SweepOutcome) {
    let harness = Harness::new(HarnessConfig { workers: 1, cache_dir: None, ..Default::default() });
    let requests = grid_requests();
    let (direct, _) = harness.run_batch(&requests);
    for (req, direct_run) in requests.iter().zip(&direct) {
        let label = req.stack.label();
        let served = outcome
            .records
            .iter()
            .find(|r| r.scene == req.scene.name() && r.config == label)
            .unwrap_or_else(|| panic!("cell {}/{label} missing from the stream", req.scene.name()));
        let served_stats = served.outcome.as_ref().expect("cell must succeed");
        assert_eq!(
            stats_to_json(served_stats).to_string(),
            stats_to_json(&direct_run.stats).to_string(),
            "served stats must be byte-identical to a direct run"
        );
    }
}

/// A backend is killed (deterministically, by fault injection) after its
/// first completed job, mid-sweep. The fleet must finish every cell via
/// the surviving backend, with stats byte-identical to a direct
/// simulation, and leave a fleet journal with every cell's record.
#[test]
fn killed_backend_mid_sweep_loses_no_cells() {
    let dir = temp_dir("kill");
    let cache = dir.join("cache");

    // Backend A dies after 1 completed job; backend B is healthy.
    let a_journal = dir.join("backend-a-journal.jsonl");
    let faulty = ServeConfig {
        workers: 1,
        journal_path: Some(a_journal.clone()),
        faults: Some(Arc::new(FaultPlan::parse("kill:jobs=1").unwrap())),
        ..backend_config(cache.clone())
    };
    let (handle_a, join_a) = Server::spawn(faulty).unwrap();
    let (handle_b, join_b) = Server::spawn(backend_config(cache.clone())).unwrap();

    let journal = dir.join("fleet-journal.jsonl");
    let config = FleetConfig {
        journal_path: Some(journal.clone()),
        ..fleet_config(vec![handle_a.addr().to_string(), handle_b.addr().to_string()], cache)
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();

    let outcome = fleet_client(fleet.addr()).sweep(&SCENE_NAMES, &CONFIG_NAMES, "tiny").unwrap();
    assert_eq!(outcome.records.len(), 6, "every cell must settle");
    let summary = outcome.summary.as_ref().expect("stream must close with batch_end");
    assert_eq!(summary.u64_field("failed"), Some(0), "zero lost cells");

    // Backend A must actually have died of the injected kill.
    let died = join_a.join().unwrap();
    assert!(died.is_err(), "backend A must crash, not drain: {died:?}");
    // The job that exhausted the kill budget lost its stream line only: it
    // was journaled (and cached) before the crash. A job of a concurrent
    // dispatch already past its start may settle too.
    assert!(journal_records(&a_journal) >= 1, "the killing job must be journaled");

    assert_matches_direct_run(&outcome);

    // Every cell has a finished record in the fleet journal.
    assert_eq!(journal_records(&journal), 6, "fleet journal must record every cell");

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    handle_b.request_drain();
    join_b.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A backend killed mid-sweep has already stored every cell it finished
/// in the result cache: a fresh backend on the same cache re-runs the
/// sweep, answers exactly those cells as hits and simulates only the
/// rest, with stats byte-identical to an uncached direct run.
#[test]
fn a_killed_backends_finished_cells_are_not_simulated_again() {
    for k in [1usize, 2, 4] {
        let dir = temp_dir(&format!("rerun-{k}"));
        let cache = dir.join("cache");
        let journal = dir.join("killed-journal.jsonl");
        let killed = ServeConfig {
            workers: 1,
            journal_path: Some(journal.clone()),
            faults: Some(Arc::new(FaultPlan::parse(&format!("kill:jobs={k}")).unwrap())),
            ..backend_config(cache.clone())
        };
        let (handle, join) = Server::spawn(killed).unwrap();
        let cut = fleet_client(handle.addr()).sweep(&SCENE_NAMES, &CONFIG_NAMES, "tiny");
        assert!(cut.is_err(), "K={k}: a killed backend must not close its stream cleanly");
        assert!(join.join().unwrap().is_err(), "K={k}: the backend must crash, not drain");
        drop(handle);

        // What the kill leaves: K cache entries, and a journal the strict
        // stream codec reads as exactly K finished cells.
        let entries = std::fs::read_dir(&cache)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().path().extension().is_some_and(|x| x == "json"))
            .count();
        assert_eq!(entries, k, "K={k}: one cache entry per finished cell");
        assert_eq!(journal_records(&journal), k, "K={k}: one journal record per finished cell");

        let (handle, join) = Server::spawn(backend_config(cache)).unwrap();
        let rerun = fleet_client(handle.addr()).sweep(&SCENE_NAMES, &CONFIG_NAMES, "tiny").unwrap();
        assert_eq!(rerun.records.len(), 6, "K={k}: every cell must settle");
        let count = |tier: &str| rerun.records.iter().filter(|r| r.cache == tier).count();
        assert_eq!(count("hit"), k, "K={k}: the finished cells come from the cache");
        assert_eq!(count("miss"), 6 - k, "K={k}: only the unfinished cells simulate");
        assert_matches_direct_run(&rerun);
        handle.request_drain();
        join.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// With every backend down, cached cells are still served (degraded
/// mode) and uncached sweeps are shed with a `Retry-After` matching the
/// breaker cooldown — never queued, never hung.
#[test]
fn all_backends_down_serves_cache_and_sheds_misses() {
    let dir = temp_dir("down");
    let cache_dir = dir.join("cache");
    std::fs::create_dir_all(&cache_dir).unwrap();

    // A dead backend: bind-then-drop guarantees a refusing port.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();

    // Pre-warm exactly one cell in the shared cache, with recognizable
    // stats so a cache-served response is provable.
    let warm_req = RunRequest::new(SceneId::Wknd, StackConfig::baseline8(), RenderConfig::tiny())
        .with_gpu(GpuConfig::default());
    let cache = ResultCache::new(&cache_dir);
    let warm_stats = SimStats { cycles: 424_242, node_visits: 7, ..Default::default() };
    cache.store(&cache.key(&warm_req), &warm_stats);

    let config = FleetConfig {
        breaker_cooldown: Duration::from_secs(5),
        cell_attempts: 2,
        ..fleet_config(vec![dead.to_string()], cache_dir)
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();
    let client = fleet_client(fleet.addr());

    // Sweep of the cached cell: first round opens the breaker (connect
    // refused), second round serves the cell from cache.
    let outcome = client.sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert_eq!(outcome.records.len(), 1);
    let rec = &outcome.records[0];
    assert_eq!(rec.cache, "hit", "degraded mode must serve from cache");
    assert_eq!(
        rec.outcome.as_ref().unwrap().cycles,
        424_242,
        "served stats must be the cached entry"
    );
    let metrics = fleet.render_metrics();
    assert!(
        !metrics.contains("sms_fleet_degraded_hits_total 0"),
        "degraded hit must be counted:\n{metrics}"
    );

    // An uncached sweep is shed before the stream starts, with the
    // cooldown-derived Retry-After (write_error's hardcoded 1s would be
    // wrong here). Raw socket, so the header is visible.
    let mut stream = TcpStream::connect(fleet.addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let body = br#"{"scenes":["WKND"],"configs":["RB_8+SH_8"],"render":"tiny"}"#;
    write!(
        stream,
        "POST /v1/sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .unwrap();
    stream.write_all(body).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 503"), "uncached sweep must shed: {response}");
    assert!(
        response.contains("Retry-After: 5"),
        "Retry-After must match the breaker cooldown: {response}"
    );

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
