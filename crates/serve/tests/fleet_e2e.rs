//! End-to-end contract of the fleet front tier over real sockets:
//! lifecycle with live backends, scene-affinity routing, hedged dispatch
//! past an injected straggler (one client, then four concurrent ones), and
//! strict `/metrics` output.

use sms_harness::json::{parse, Json};
use sms_harness::FaultPlan;
use sms_metrics::prom;
use sms_serve::client::{Client, ClientConfig};
use sms_serve::fleet::{FleetConfig, FleetServer};
use sms_serve::server::{ServeConfig, Server};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-fleet-e2e-{}-{name}", std::process::id()));
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

fn fleet_client(addr: std::net::SocketAddr) -> Client {
    Client::with_config(ClientConfig {
        addr: addr.to_string(),
        retries: 0,
        deadline: Duration::from_secs(300),
        ..ClientConfig::default()
    })
}

/// Two healthy backends behind one fleet: sweep cold then warm, probe the
/// cache through the fleet, scrape strict metrics, drain everything.
#[test]
fn lifecycle_sweep_probe_metrics_drain() {
    let dir = temp_dir("lifecycle");
    let cache = dir.join("cache");
    let (a, join_a) = Server::spawn(backend_config(cache.clone())).unwrap();
    let (b, join_b) = Server::spawn(backend_config(cache.clone())).unwrap();

    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![a.addr().to_string(), b.addr().to_string()],
        workers: 4,
        cache_dir: Some(cache),
        ..FleetConfig::default()
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();
    let client = fleet_client(fleet.addr());

    assert_eq!(client.get("/healthz").unwrap().status, 200);

    // Cold sweep: every cell simulated by some backend.
    let cold = client.sweep(&["WKND", "BUNNY"], &["RB_8", "RB_8+SH_8"], "tiny").unwrap();
    assert_eq!(cold.records.len(), 4);
    for rec in &cold.records {
        assert!(rec.outcome.is_ok(), "cold cell failed: {:?}", rec.outcome);
        assert_eq!(rec.cache, "miss", "cold fleet sweep must simulate");
    }
    assert!(cold.summary.is_some(), "stream must close with batch_end");

    // Warm sweep: pure cache hits via the backends' shared cache.
    let warm = client.sweep(&["WKND", "BUNNY"], &["RB_8", "RB_8+SH_8"], "tiny").unwrap();
    assert!(
        warm.records.iter().all(|r| r.cache == "hit"),
        "warm sweep must be pure hits: {:?}",
        warm.records.iter().map(|r| r.cache.clone()).collect::<Vec<_>>()
    );

    // Probe a swept cell through the fleet's own cache view.
    let probe = client.get("/v1/jobs/WKND/RB_8?render=tiny").unwrap();
    assert_eq!(probe.status, 200, "swept cell must probe as cached: {}", probe.text());

    // Metrics: strictly parseable, fleet families plus per-backend labels.
    let scrape = client.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let text = scrape.text();
    prom::validate(&text).expect("fleet /metrics must parse strictly");
    assert!(text.contains("sms_fleet_cells_total 8"), "4 cold + 4 warm cells:\n{text}");
    assert!(text.contains("sms_fleet_cells_failed_total 0"));
    for backend in [a.addr(), b.addr()] {
        assert!(
            text.contains(&format!("sms_fleet_backend_up{{backend=\"{backend}\"}} 1")),
            "both backends must report up:\n{text}"
        );
    }

    // Drain the fleet over the wire, then the backends.
    assert_eq!(client.post("/v1/drain", b"").unwrap().status, 200);
    join_fleet.join().unwrap().unwrap();
    a.request_drain();
    b.request_drain();
    join_a.join().unwrap().unwrap();
    join_b.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Scene affinity over real sockets: with one fleet worker every pick
/// sees idle backends, so every cell goes to its scene's home and each
/// scene is journaled (prepared) by exactly one backend, and the fewer-homes
/// tie-break gives both backends a scene. This proves the wiring — the
/// sweep's scene reaches the routing table and the table reaches the
/// dispatch. It does not exercise the load-dependent spill past the
/// slack; the routing property in `fleet.rs` covers that.
#[test]
fn a_scene_is_prepared_on_one_backend() {
    let dir = temp_dir("affinity");
    let cache = dir.join("cache");
    let journals = [dir.join("a.jsonl"), dir.join("b.jsonl")];
    let spawn = |journal: &PathBuf| {
        Server::spawn(ServeConfig {
            workers: 1,
            journal_path: Some(journal.clone()),
            ..backend_config(cache.clone())
        })
        .unwrap()
    };
    let (a, join_a) = spawn(&journals[0]);
    let (b, join_b) = spawn(&journals[1]);
    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![a.addr().to_string(), b.addr().to_string()],
        workers: 1,
        cache_dir: Some(cache.clone()),
        ..FleetConfig::default()
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();

    let (scenes, configs) = (["WKND", "BUNNY", "SHIP"], ["RB_8", "RB_8+SH_8+SK+RA"]);
    let cold = fleet_client(fleet.addr()).sweep(&scenes, &configs, "tiny").unwrap();
    assert_eq!(cold.records.len(), 6);
    for rec in &cold.records {
        assert!(rec.outcome.is_ok(), "cold cell failed: {:?}", rec.outcome);
        assert_eq!(rec.cache, "miss", "{}/{}: a cold sweep simulates", rec.scene, rec.config);
    }

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    for (backend, join) in [(a, join_a), (b, join_b)] {
        backend.request_drain();
        join.join().unwrap().unwrap();
    }
    let queued: Vec<BTreeSet<String>> = journals
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .filter_map(|l| parse(l).ok())
                .filter(|d| d.get("event").and_then(Json::as_str) == Some("job_queued"))
                .map(|d| d.get("scene").and_then(Json::as_str).unwrap().to_owned())
                .collect()
        })
        .collect();
    assert!(queued[0].is_disjoint(&queued[1]), "a scene on both backends: {queued:?}");
    let all: BTreeSet<String> = queued.iter().flatten().cloned().collect();
    assert_eq!(all, scenes.iter().map(|s| (*s).to_owned()).collect(), "{queued:?}");
    assert!(queued.iter().all(|q| !q.is_empty()), "each backend is home to a scene: {queued:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Backend A answers every request with a long injected delay; with
/// hedging enabled the duplicate dispatch on backend B must win the cell
/// long before A wakes up.
#[test]
fn hedge_overtakes_an_injected_straggler() {
    let dir = temp_dir("hedge");
    let cache = dir.join("cache");
    let slow = ServeConfig {
        faults: Some(Arc::new(FaultPlan::parse("delay:every=1,ms=30000").unwrap())),
        ..backend_config(cache.clone())
    };
    // The straggler is deliberately never drained: its delayed in-flight
    // connection would hold a graceful drain hostage for the full
    // injected stall. The test harness exiting reaps the thread.
    let (a, _join_a) = Server::spawn(slow).unwrap();
    let (b, join_b) = Server::spawn(backend_config(cache.clone())).unwrap();

    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        // A first: least-loaded routing sends the primary dispatch to the
        // straggler, so only a hedge can save the cell's latency.
        backends: vec![a.addr().to_string(), b.addr().to_string()],
        workers: 2,
        breaker_threshold: 10,
        hedge_after: Some(Duration::from_millis(100)),
        cache_dir: Some(cache),
        ..FleetConfig::default()
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();

    let t0 = Instant::now();
    let outcome = fleet_client(fleet.addr()).sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    let elapsed = t0.elapsed();
    assert_eq!(outcome.records.len(), 1);
    assert!(outcome.records[0].outcome.is_ok(), "hedged cell must succeed");
    assert!(
        elapsed < Duration::from_secs(25),
        "hedge must beat the 30s injected stall (took {elapsed:?})"
    );

    let metrics = fleet.render_metrics();
    let count = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
    };
    assert!(count("sms_fleet_hedges_total") >= 1, "a hedge must have fired:\n{metrics}");
    assert!(count("sms_fleet_hedge_wins_total") >= 1, "the hedge must have won:\n{metrics}");

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    let _ = a; // see above: not drained
    b.request_drain();
    join_b.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Four concurrent clients through a fleet whose first backend stalls
/// every fourth response (seeded), with hedging armed. No cell may fail;
/// a hedge may at most double a cell's `miss` label, never its simulation
/// (the backends' single-flight tables and shared cache make the duplicate
/// dispatch idempotent); and the warm pass must not simulate at all.
#[test]
fn hedging_under_concurrent_clients_loses_no_cell_and_stays_idempotent() {
    const SCENES: [&str; 2] = ["WKND", "BUNNY"];
    const CONFIGS: [&str; 2] = ["RB_8", "RB_8+SH_8+SK+RA"];
    let dir = temp_dir("hedge-load");
    let cache = dir.join("cache");
    let slow = ServeConfig {
        faults: Some(Arc::new(FaultPlan::parse("seed=1;delay:every=4,ms=300").unwrap())),
        ..backend_config(cache.clone())
    };
    let (a, join_a) = Server::spawn(slow).unwrap();
    let (b, join_b) = Server::spawn(backend_config(cache.clone())).unwrap();
    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![a.addr().to_string(), b.addr().to_string()],
        workers: 8,
        hedge_after: Some(Duration::from_millis(100)),
        cache_dir: Some(cache),
        ..FleetConfig::default()
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();
    let addr = fleet.addr();

    // One pass: every client sweeps the whole grid at once; returns the
    // `miss` labels seen across all of them.
    let pass = || -> usize {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || fleet_client(addr).sweep(&SCENES, &CONFIGS, "tiny"))
            })
            .collect();
        let mut misses = 0;
        for client in clients {
            let outcome = client.join().unwrap().expect("fleet sweep must succeed");
            assert_eq!(outcome.records.len(), SCENES.len() * CONFIGS.len());
            for rec in &outcome.records {
                assert!(rec.outcome.is_ok(), "no fleet-served cell may fail: {:?}", rec.outcome);
                misses += usize::from(rec.cache == "miss");
            }
        }
        misses
    };
    let unique = SCENES.len() * CONFIGS.len();
    let cold_misses = pass();
    assert!(
        cold_misses <= unique * 2,
        "cold pass reported {cold_misses} misses for {unique} unique cells"
    );
    assert_eq!(pass(), 0, "warm pass must be pure cache hits");

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    for (backend, join) in [(a, join_a), (b, join_b)] {
        backend.request_drain();
        join.join().unwrap().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One run directory over real processes: `sms-fleet --spawn 1` under
/// `SMS_OUT=<dir>` journals and logs into `<dir>` and gives its spawned
/// backend `<dir>/backend-0`, so no two processes append to one file.
#[test]
fn a_spawned_backend_gets_its_own_run_directory() {
    let dir = temp_dir("spawn");
    let (out, addr_file) = (dir.join("out"), dir.join("fleet.addr"));
    let mut fleet = std::process::Command::new(env!("CARGO_BIN_EXE_sms-fleet"))
        .args(["--addr", "127.0.0.1:0", "--spawn", "1", "--addr-file"])
        .arg(&addr_file)
        .env_clear()
        .env("SMS_OUT", &out)
        .env("SMS_CACHE_DIR", dir.join("cache"))
        .spawn()
        .unwrap();
    // A hang detector only: the fleet announces itself once its backend has.
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        match std::fs::read_to_string(&addr_file) {
            Ok(text) if text.ends_with('\n') => break text.trim().parse().unwrap(),
            _ => {
                assert!(fleet.try_wait().unwrap().is_none(), "sms-fleet exited before listening");
                assert!(Instant::now() < deadline, "sms-fleet never wrote {}", addr_file.display());
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    };
    let client = fleet_client(addr);
    let outcome = client.sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert!(outcome.records[0].outcome.is_ok(), "{:?}", outcome.records[0].outcome);
    assert_eq!(client.post("/v1/drain", b"").unwrap().status, 200);
    assert!(fleet.wait().unwrap().success(), "the fleet drains its backend and exits 0");

    let read = |file: &str| {
        std::fs::read_to_string(out.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    for journal in ["fleet.journal.jsonl", "backend-0/journal.jsonl"] {
        assert!(read(journal).contains("\"event\":\"job_finished\""), "{journal}");
    }
    assert!(read("log.jsonl").contains("spawned backend 0"), "the fleet logs to its own file");
    assert!(read("backend-0/log.jsonl").contains("drained, exiting"), "and the backend to its");
    let mut top: Vec<String> = std::fs::read_dir(&out)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    top.sort();
    assert_eq!(top, ["backend-0", "fleet.journal.jsonl", "log.jsonl"]);
    let _ = std::fs::remove_dir_all(&dir);
}
