//! End-to-end contract of the fleet front tier over real sockets:
//! lifecycle with live backends, cached cells answered without a dispatch
//! (a warm sweep, a mixed one, a damaged cache entry), scene-affinity
//! routing, four concurrent clients, and strict `/metrics` output.

use sms_harness::cache::stats_json;
use sms_harness::json::{parse, Json};
use sms_harness::{Harness, HarnessConfig, ResultCache, RunRequest};
use sms_metrics::prom;
use sms_serve::client::{Client, ClientConfig};
use sms_serve::fleet::{FleetConfig, FleetServer, FleetState};
use sms_serve::protocol::SweepOutcome;
use sms_serve::server::{ServeConfig, Server, ServerState};
use sms_serve::service::Handle;
use sms_sim::config::RenderConfig;
use sms_sim::gpu::GpuConfig;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::thread::JoinHandle;
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

/// The sample `name` in a `/metrics` text, summed over its label sets.
fn metric(metrics: &str, name: &str) -> u64 {
    let values: Vec<u64> = metrics
        .lines()
        .filter_map(|l| {
            let rest = l.strip_prefix(name)?;
            let value = match rest.strip_prefix('{') {
                Some(labeled) => labeled.split_once("} ")?.1,
                None => rest.strip_prefix(' ')?,
            };
            value.parse().ok()
        })
        .collect();
    assert!(!values.is_empty(), "metric {name} missing:\n{metrics}");
    values.iter().sum()
}

/// The request a sweep's `scene`/`config` cell becomes, built the way the
/// wire protocol builds it.
fn request(scene: &str, config: &str) -> RunRequest {
    let scene = *SceneId::ALL.iter().find(|s| s.name() == scene).expect("test scene");
    let stack: StackConfig = config.parse().expect("test config label");
    RunRequest::new(scene, stack, RenderConfig::tiny()).with_gpu(GpuConfig::default())
}

/// Every record of `outcome` succeeded with the stats of a fleet-less,
/// cache-less simulation of its cell.
fn assert_matches_direct_run(outcome: &SweepOutcome) {
    let harness = Harness::new(HarnessConfig { workers: 1, cache_dir: None, ..Default::default() });
    let requests: Vec<RunRequest> =
        outcome.records.iter().map(|r| request(&r.scene, &r.config)).collect();
    let (direct, _) = harness.run_batch(&requests);
    for (rec, direct) in outcome.records.iter().zip(&direct) {
        let served = rec.outcome.as_ref().expect("cell must succeed");
        assert_eq!(
            stats_json(served),
            stats_json(&direct.stats),
            "{}/{}: served stats must be byte-identical to a direct run",
            rec.scene,
            rec.config
        );
    }
}

/// Two backends on one cache directory behind a fleet that reads it too.
struct Pool {
    dir: PathBuf,
    backends: Vec<(Handle<ServerState>, JoinHandle<std::io::Result<()>>)>,
    fleet: Handle<FleetState>,
    join_fleet: JoinHandle<std::io::Result<()>>,
}

impl Pool {
    fn start(name: &str) -> Pool {
        let dir = temp_dir(name);
        let cache = dir.join("cache");
        let backends: Vec<_> =
            (0..2).map(|_| Server::spawn(backend_config(cache.clone())).unwrap()).collect();
        let (fleet, join_fleet) = FleetServer::spawn(FleetConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: backends.iter().map(|(b, _)| b.addr().to_string()).collect(),
            workers: 4,
            cache_dir: Some(cache),
            ..FleetConfig::default()
        })
        .unwrap();
        Pool { dir, backends, fleet, join_fleet }
    }

    fn sweep(&self, scenes: &[&str], configs: &[&str]) -> SweepOutcome {
        fleet_client(self.fleet.addr()).sweep(scenes, configs, "tiny").unwrap()
    }

    /// Each backend's `sms_serve_requests_total`: every dispatch is one.
    fn backend_requests(&self) -> Vec<u64> {
        let requests =
            |b: &Handle<ServerState>| metric(&b.render_metrics(), "sms_serve_requests_total");
        self.backends.iter().map(|(b, _)| requests(b)).collect()
    }

    fn stop(self) {
        self.fleet.request_drain();
        self.join_fleet.join().unwrap().unwrap();
        for (backend, join) in self.backends {
            backend.request_drain();
            join.join().unwrap().unwrap();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A warm sweep through the fleet is answered from the cache the fleet
/// reads: no backend sees a request, no cell is dispatched, and every
/// record carries the direct run's stats.
#[test]
fn a_warm_sweep_opens_no_backend_connection() {
    let pool = Pool::start("warm");
    let (scenes, configs) = (["WKND", "BUNNY"], ["RB_8", "RB_8+SH_8"]);
    let cold = pool.sweep(&scenes, &configs);
    assert!(cold.records.iter().all(|r| r.cache == "miss"), "a cold sweep simulates");
    let requests = pool.backend_requests();
    assert_eq!(requests.iter().sum::<u64>(), 4, "one dispatch per cold cell: {requests:?}");

    let warm = pool.sweep(&scenes, &configs);
    assert_eq!(warm.records.len(), 4);
    assert!(warm.records.iter().all(|r| r.cache == "hit"), "a warm sweep is all hits");
    assert_eq!(pool.backend_requests(), requests, "a warm sweep reaches no backend");
    assert_matches_direct_run(&warm);
    let metrics = pool.fleet.render_metrics();
    assert_eq!(metric(&metrics, "sms_fleet_cache_hits_total"), 4, "{metrics}");
    assert_eq!(metric(&metrics, "sms_fleet_backend_jobs_total"), 4, "the cold cells only");
    assert_eq!(metric(&metrics, "sms_fleet_degraded_hits_total"), 0, "both backends were up");
    assert_eq!(metric(&metrics, "sms_fleet_cell_latency_us_count"), 8, "every cell is timed");
    pool.stop();
}

/// A sweep half of whose cells are cached dispatches exactly the other
/// half; the fleet counts the cached half as its own hits.
#[test]
fn a_mixed_sweep_dispatches_exactly_its_misses() {
    let pool = Pool::start("mixed");
    pool.sweep(&["WKND"], &["RB_8", "RB_8+SH_8"]);
    let before = pool.fleet.render_metrics();

    let mixed = pool.sweep(&["WKND", "BUNNY"], &["RB_8", "RB_8+SH_8"]);
    assert_eq!(mixed.records.len(), 4);
    for rec in &mixed.records {
        let want = if rec.scene == "WKND" { "hit" } else { "miss" };
        assert_eq!(rec.cache, want, "{}/{}", rec.scene, rec.config);
    }
    assert_matches_direct_run(&mixed);
    let after = pool.fleet.render_metrics();
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    assert_eq!(delta("sms_fleet_backend_jobs_total"), 2, "the two misses are dispatched");
    assert_eq!(delta("sms_fleet_cache_hits_total"), 2, "the two hits are not");
    pool.stop();
}

/// The fleet is a second reader of the cache's bytes: a torn entry and a
/// corrupted one are misses there too. Both cells are dispatched and
/// simulated again with the right stats, and nothing panics.
#[test]
fn a_damaged_cache_entry_is_a_miss_at_the_fleet() {
    let pool = Pool::start("damaged");
    let (scenes, configs) = (["WKND"], ["RB_8", "RB_8+SH_8", "RB_8+SH_8+SK+RA"]);
    pool.sweep(&scenes, &configs);
    let cache = ResultCache::new(pool.dir.join("cache"));
    let path = |config| cache.entry_path(&cache.key(&request("WKND", config)));
    let torn = std::fs::read_to_string(path("RB_8")).unwrap();
    std::fs::write(path("RB_8"), &torn[..torn.len() / 2]).unwrap();
    // One digit of the stats changed: still JSON, but off its checksum.
    let text = std::fs::read_to_string(path("RB_8+SH_8")).unwrap();
    let at = text.find("\"cycles\":").unwrap() + "\"cycles\":".len();
    let digit = if text.as_bytes()[at] == b'1' { "2" } else { "1" };
    let corrupt = format!("{}{digit}{}", &text[..at], &text[at + 1..]);
    std::fs::write(path("RB_8+SH_8"), corrupt).unwrap();
    let before = pool.fleet.render_metrics();

    let rerun = pool.sweep(&scenes, &configs);
    assert_eq!(rerun.records.len(), 3);
    for rec in &rerun.records {
        let want = if rec.config == "RB_8+SH_8+SK+RA" { "hit" } else { "miss" };
        assert_eq!(rec.cache, want, "{}/{}", rec.scene, rec.config);
    }
    assert_matches_direct_run(&rerun);
    let after = pool.fleet.render_metrics();
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    assert_eq!(delta("sms_fleet_backend_jobs_total"), 2, "both damaged cells are dispatched");
    assert_eq!(delta("sms_fleet_cells_failed_total"), 0);
    // The re-simulated entries healed: a third sweep is all hits.
    assert!(pool.sweep(&scenes, &configs).records.iter().all(|r| r.cache == "hit"));
    pool.stop();
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

/// Four concurrent clients through a fleet over two backends. No cell may
/// fail; a cell is simulated at most once per backend (single flight is
/// per process, and a spill may send a scene's cell to the other backend),
/// so at most two `miss` labels per cell; and the warm pass must not
/// simulate at all.
#[test]
fn concurrent_clients_lose_no_cell_and_stay_idempotent() {
    const SCENES: [&str; 2] = ["WKND", "BUNNY"];
    const CONFIGS: [&str; 2] = ["RB_8", "RB_8+SH_8+SK+RA"];
    let dir = temp_dir("concurrent");
    let cache = dir.join("cache");
    let (a, join_a) = Server::spawn(backend_config(cache.clone())).unwrap();
    let (b, join_b) = Server::spawn(backend_config(cache.clone())).unwrap();
    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![a.addr().to_string(), b.addr().to_string()],
        workers: 8,
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
