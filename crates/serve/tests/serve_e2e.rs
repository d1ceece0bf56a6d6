//! End-to-end contract of the sweep service over real sockets.
//!
//! Every test binds an ephemeral loopback port and drives a full server
//! through the public client (or a raw socket, for the fuzz cases):
//! lifecycle with graceful drain, stats byte-identity with the direct
//! simulation path, single-flight coalescing of concurrent identical
//! sweeps, structured per-job failures, two server processes sharing one
//! cache directory — and, against a backend *and* a fleet (one skeleton,
//! `sms_serve::service`, answers for both): malformed-request handling,
//! the door shed, and the raw bytes of the skeleton's own routes.

use sms_harness::cache::stats_json;
use sms_harness::{FaultPlan, ResultCache, RunRequest};
use sms_serve::client::{Client, ClientConfig};
use sms_serve::fleet::{FleetConfig, FleetServer, FleetState};
use sms_serve::server::{ServeConfig, Server, ServerState};
use sms_serve::service::Handle;
use sms_sim::config::RenderConfig;
use sms_sim::experiments::try_run_prepared;
use sms_sim::geom::golden;
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use sms_sim::sim::RunLimits;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-serve-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_config(cache_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 4,
        cache_dir,
        journal_path: None,
        ..ServeConfig::default()
    }
}

fn quick_client(addr: SocketAddr) -> Client {
    Client::with_config(ClientConfig {
        addr: addr.to_string(),
        retries: 2,
        base_backoff: Duration::from_millis(10),
        deadline: Duration::from_secs(120),
        ..ClientConfig::default()
    })
}

/// Full lifecycle: sweep → cache-probe → metrics → drain → clean exit,
/// with served stats byte-identical to a direct simulation, and the
/// journal left replayable.
#[test]
fn lifecycle_sweep_probe_metrics_drain() {
    let dir = temp_dir("lifecycle");
    let journal = dir.join("journal.jsonl");
    let config =
        ServeConfig { journal_path: Some(journal.clone()), ..test_config(Some(dir.join("cache"))) };
    let (handle, join) = Server::spawn(config).unwrap();
    let client = quick_client(handle.addr());

    assert_eq!(client.get("/healthz").unwrap().status, 200);

    let outcome = client.sweep(&["WKND", "SHIP"], &["RB_8", "RB_8+SH_8"], "tiny").unwrap();
    assert_eq!(outcome.records.len(), 4);
    for rec in &outcome.records {
        let stats = rec.outcome.as_ref().expect("all jobs must succeed");
        assert!(stats.cycles > 0);
        assert_eq!(rec.cache, "miss", "cold server must simulate");
    }
    let summary = outcome.summary.as_ref().expect("stream must close with batch_end");
    assert_eq!(summary.u64_field("jobs"), Some(4));
    assert_eq!(summary.u64_field("failed"), Some(0));

    // Byte identity: the served counters equal a direct in-process run.
    let render = RenderConfig::tiny();
    let prepared = PreparedScene::build(SceneId::Wknd, &render);
    let direct = try_run_prepared(
        &prepared,
        StackConfig::baseline8(),
        GpuConfig::default(),
        &render,
        &RunLimits::none(),
    )
    .unwrap();
    let served = *outcome
        .records
        .iter()
        .find(|r| r.scene == "WKND" && r.config == "RB_8")
        .unwrap()
        .outcome
        .as_ref()
        .unwrap();
    assert_eq!(served, direct.stats, "served stats must be byte-identical to a direct run");

    // Warm pass: every cell now comes from the shared cache.
    let warm = client.sweep(&["WKND", "SHIP"], &["RB_8", "RB_8+SH_8"], "tiny").unwrap();
    assert!(warm.records.iter().all(|r| r.cache == "hit"), "second sweep must be all cache hits");
    let warm_wknd = warm.records.iter().find(|r| r.scene == "WKND" && r.config == "RB_8");
    assert_eq!(*warm_wknd.unwrap().outcome.as_ref().unwrap(), direct.stats);

    // Cache probe answers without simulating; unknown cells 404.
    let probe = client.get("/v1/jobs/WKND/RB_8?render=tiny").unwrap();
    assert_eq!(probe.status, 200);
    assert!(probe.text().contains("\"stats\""));
    assert_eq!(client.get("/v1/jobs/WKND/RB_X?render=tiny").unwrap().status, 400);
    assert_eq!(client.get("/v1/jobs/WKND/RB_4?render=tiny").unwrap().status, 404);

    // Live metrics parse strictly and reflect the work done.
    let metrics = client.get("/metrics").unwrap();
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    sms_metrics::prom::validate(&text).expect("/metrics must parse strictly");
    assert!(text.contains("sms_serve_jobs_total 8"), "8 jobs served:\n{text}");
    assert!(text.contains("sms_serve_cache_hits_total 4"));
    assert!(text.contains("sms_serve_cache_misses_total 4"));

    // Graceful drain: 200, then the accept loop exits cleanly.
    assert_eq!(client.post("/v1/drain", &[]).unwrap().status, 200);
    join.join().unwrap().expect("drained server must exit cleanly");

    // The journal the server left behind is a strict journal-codec stream:
    // both sweeps' 8 records, all finished, the 4 cold ones simulated.
    let text = std::fs::read_to_string(&journal).unwrap();
    let journaled = sms_serve::protocol::SweepOutcome::parse(&text).unwrap();
    assert_eq!(journaled.records.len(), 8, "journal must record every settled cell");
    assert!(journaled.records.iter().all(|r| r.outcome.is_ok()));
    let simulated = journaled.records.iter().filter(|r| r.cache == "miss").count();
    assert_eq!(simulated, 4, "each of the 4 unique cells simulated once");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A drain requested while a sweep is in flight lets that sweep finish —
/// the response stream still closes with `batch_end` — before the process
/// exits.
#[test]
fn drain_finishes_in_flight_sweeps() {
    let dir = temp_dir("drain");
    let (handle, join) = Server::spawn(test_config(Some(dir.join("cache")))).unwrap();
    let addr = handle.addr();

    let sweeper = std::thread::spawn(move || {
        quick_client(addr).sweep(&["WKND"], &["RB_8", "RB_8+SH_8", "RB_FULL"], "tiny")
    });
    // Let the sweep get admitted, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(30));
    let _ = quick_client(addr).post("/v1/drain", &[]);

    let outcome = sweeper.join().unwrap().expect("in-flight sweep must complete across a drain");
    assert_eq!(outcome.records.len(), 3);
    assert!(outcome.records.iter().all(|r| r.outcome.is_ok()));
    assert!(outcome.summary.is_some(), "stream must close with batch_end even while draining");
    join.join().unwrap().unwrap();

    // Once drained the listener is gone: connects fail or are reset.
    assert!(quick_client(addr).get("/healthz").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrent identical sweeps coalesce: with the disk cache off, N
/// clients asking for the same cell must not run N simulations.
#[test]
fn single_flight_coalesces_identical_in_flight_sweeps() {
    let (handle, join) = Server::spawn(test_config(None)).unwrap();
    let addr = handle.addr();
    const CLIENTS: usize = 4;

    let sweeps: Vec<_> = (0..CLIENTS)
        .map(|_| {
            std::thread::spawn(move || quick_client(addr).sweep(&["SHIP"], &["RB_8+SH_8"], "tiny"))
        })
        .collect();
    let outcomes: Vec<_> =
        sweeps.into_iter().map(|t| t.join().unwrap().expect("sweep must succeed")).collect();

    let mut misses = 0usize;
    let mut shared = 0usize;
    let mut cycles = Vec::new();
    for outcome in &outcomes {
        assert_eq!(outcome.records.len(), 1);
        let rec = &outcome.records[0];
        match rec.cache.as_str() {
            "miss" => misses += 1,
            "shared" => shared += 1,
            other => panic!("cache-less server cannot serve `{other}`"),
        }
        cycles.push(rec.outcome.as_ref().unwrap().cycles);
    }
    assert_eq!(misses + shared, CLIENTS);
    assert!(misses >= 1, "someone must have simulated");
    assert!(shared >= 1, "concurrent identical sweeps must coalesce (got {misses} simulations)");
    cycles.dedup();
    assert_eq!(cycles.len(), 1, "every client must see the same result");

    // The metrics agree with the stream.
    let text = handle.render_metrics();
    assert!(text.contains(&format!("sms_serve_singleflight_shared_total {shared}")), "{text}");

    handle.request_drain();
    join.join().unwrap().unwrap();
}

/// With the disk cache on, four clients sweeping the same cold grid at
/// once run each unique cell at most once (everyone else coalesces or
/// hits the cache), and a warm pass needs neither simulator nor
/// single-flight.
#[test]
fn concurrent_cold_sweeps_simulate_each_cell_at_most_once() {
    let dir = temp_dir("concurrent-cold");
    let (handle, join) = Server::spawn(test_config(Some(dir.join("cache")))).unwrap();
    let addr = handle.addr();
    let pass = || -> Vec<String> {
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    quick_client(addr).sweep(&["WKND", "SHIP"], &["RB_8", "RB_8+SH_8"], "tiny")
                })
            })
            .collect();
        let mut tiers = Vec::new();
        for client in clients {
            let outcome = client.join().unwrap().expect("sweep must succeed");
            assert!(outcome.records.iter().all(|r| r.outcome.is_ok()), "no served job may fail");
            tiers.extend(outcome.records.into_iter().map(|r| r.cache));
        }
        tiers
    };
    let cold_misses = pass().iter().filter(|tier| *tier == "miss").count();
    assert!(cold_misses <= 4, "cold pass ran {cold_misses} simulations for 4 unique cells");
    assert!(pass().iter().all(|tier| tier == "hit"), "warm pass must be pure cache hits");

    handle.request_drain();
    join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watchdog-aborted run comes back as a structured `run_timeout` stream
/// record — the connection survives, the other jobs finish, and the
/// server stays healthy.
#[test]
fn watchdog_abort_is_a_structured_stream_error() {
    let config = ServeConfig {
        run_limits: RunLimits { max_cycles: Some(50), ..RunLimits::none() },
        ..test_config(None)
    };
    let (handle, join) = Server::spawn(config).unwrap();
    let client = quick_client(handle.addr());

    let outcome = client.sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert_eq!(outcome.records.len(), 1);
    let err = outcome.records[0].outcome.as_ref().unwrap_err();
    assert!(err.contains("cycle budget"), "diagnostic must survive the wire: {err}");
    assert_eq!(outcome.summary.as_ref().unwrap().u64_field("failed"), Some(1));

    assert_eq!(client.get("/healthz").unwrap().status, 200, "server must survive job failures");
    let text = handle.render_metrics();
    assert!(text.contains("sms_serve_jobs_failed_total 1"), "{text}");

    handle.request_drain();
    join.join().unwrap().unwrap();
}

/// A simulator panic is a structured `run_failed` and gives its
/// simulation permit back: with the permit leaked, a one-worker backend
/// never simulates again and cannot drain. No request can make the model
/// panic (`RB_8+SH_64`, whose carve-out leaves no L1D, is refused with a
/// 400), so the panic is injected: the first simulation under
/// `seed=1;sim_panic:every=2` panics under its permit, the second does not.
#[test]
fn a_simulator_panic_does_not_leak_a_permit() {
    let faults = FaultPlan::parse("seed=1;sim_panic:every=2").unwrap();
    let config = ServeConfig { workers: 1, faults: Some(Arc::new(faults)), ..test_config(None) };
    let (handle, join) = Server::spawn(config).unwrap();
    // A leaked permit hangs the second sweep: the deadline fails it instead.
    let client = Client::with_config(ClientConfig {
        addr: handle.addr().to_string(),
        base_backoff: Duration::from_millis(10),
        deadline: Duration::from_secs(30),
        ..ClientConfig::default()
    });

    let refused = client.sweep(&["WKND"], &["RB_8+SH_64"], "tiny").unwrap_err().to_string();
    assert!(refused.contains("`RB_8+SH_64`") && refused.contains("leaving no L1D"), "{refused}");

    let failed = client.sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert_eq!(failed.records.len(), 1);
    let err = failed.records[0].outcome.as_ref().unwrap_err();
    assert!(err.starts_with("run panicked") && err.contains("injected simulator panic"), "{err}");
    assert_eq!(failed.summary.as_ref().unwrap().u64_field("failed"), Some(1));

    let cold = client.sweep(&["WKND"], &["RB_8"], "tiny").expect("the backend still simulates");
    assert_eq!(cold.records[0].cache, "miss");
    assert!(cold.records[0].outcome.is_ok());
    let text = handle.render_metrics();
    assert!(text.contains("sms_serve_jobs_in_flight 0\n"), "{text}");

    handle.request_drain();
    join.join().unwrap().expect("the backend drains");
}

fn connect(addr: SocketAddr) -> TcpStream {
    let s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s
}

/// Sends `payload` on an open connection and reads the whole reply.
fn finish(mut s: TcpStream, payload: &[u8]) -> String {
    s.write_all(payload).unwrap();
    let _ = s.shutdown(std::net::Shutdown::Write);
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    String::from_utf8_lossy(&out).into_owned()
}

fn exchange(addr: SocketAddr, payload: &[u8]) -> String {
    finish(connect(addr), payload)
}

fn status(resp: &str) -> u16 {
    resp.split(' ').nth(1).and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        panic!("no status line in response: {resp:?}");
    })
}

/// A backend and a fleet in front of it, both with this `max_conns` and
/// this cache directory.
type Tiers = (Handle<ServerState>, Handle<FleetState>, [JoinHandle<std::io::Result<()>>; 2]);

fn spawn_tiers(max_conns: usize, cache_dir: Option<PathBuf>) -> Tiers {
    let (backend, join_backend) =
        Server::spawn(ServeConfig { max_conns, ..test_config(cache_dir.clone()) }).unwrap();
    let (fleet, join_fleet) = FleetServer::spawn(FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![backend.addr().to_string()],
        max_conns,
        cache_dir,
        ..FleetConfig::default()
    })
    .unwrap();
    (backend, fleet, [join_fleet, join_backend])
}

fn drain_tiers((backend, fleet, joins): Tiers) {
    fleet.request_drain();
    backend.request_drain();
    for join in joins {
        join.join().unwrap().unwrap();
    }
}

/// `POST /v1/sweep` with `body` announced by its real length, then
/// `extra_headers`.
fn sweep_request(extra_headers: &str, body: &str) -> Vec<u8> {
    let head = format!("POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n", body.len());
    format!("{head}{extra_headers}\r\n{body}").into_bytes()
}

/// Raw-socket fuzz against both tiers (they share one accept loop and one
/// route table): malformed requests get 4xx responses, never a hang or a
/// dead server, and a connection beyond `max_conns` is shed at the door.
#[test]
fn malformed_requests_get_4xx_not_panic() {
    let tiers = spawn_tiers(64, None);
    let (backend, fleet, _) = &tiers;

    // (payload, expected status)
    let cases: Vec<(Vec<u8>, u16)> = vec![
        (b"BLAH /v1/sweep HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"DELETE /v1/sweep HTTP/1.1\r\n\r\n".to_vec(), 405),
        (b"POST /v1/sweep HTTP/1.1\r\nContent-Length: nope\r\n\r\n".to_vec(), 400),
        (b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 99999999999\r\n\r\n".to_vec(), 413),
        (b"POST /v1/sweep HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(), 501),
        (b"POST /v1/sweep HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json".to_vec(), 400),
        (sweep_request("", r#"{"scenes":[],"configs":["RB_8"]}"#), 400),
        // A well-formed sweep whose real length (54) is followed by a
        // second, conflicting Content-Length.
        (
            sweep_request(
                "Content-Length: 999\r\n",
                r#"{"scenes":["WKND"],"configs":["RB_8"],"render":"tiny"}"#,
            ),
            400,
        ),
        (b"GET /v1/nope HTTP/1.1\r\n\r\n".to_vec(), 404),
        (b"GET /v1/jobs/NOPE/RB_8 HTTP/1.1\r\n\r\n".to_vec(), 400),
        // The probe prefix is stripped once, not repeatedly.
        (b"GET /v1/jobs//v1/jobs/WKND/RB_8 HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"\xff\xfe\x00garbage\r\n\r\n".to_vec(), 400),
        // A misspelt or repeated key is refused, not ignored: `rendr` would
        // otherwise run the ~100x larger default workload.
        (sweep_request("", r#"{"scenes":["WKND"],"configs":["RB_8"],"rendr":"tiny"}"#), 400),
        (sweep_request("", r#"{"scenes":["WKND"],"configs":["RB_8"],"scenes":["SHIP"]}"#), 400),
        (
            sweep_request(
                "",
                r#"{"scenes":["WKND"],"configs":["RB_8"],"render":"tiny","render":"fast"}"#,
            ),
            400,
        ),
        (b"GET /v1/jobs/WKND/RB_8?render=tiny&render=fast HTTP/1.1\r\n\r\n".to_vec(), 400),
    ];
    // An oversized sweep (beyond the per-request job cap) is a 400.
    let scenes =
        SceneId::ALL.iter().map(|s| format!("\"{}\"", s.name())).collect::<Vec<_>>().join(",");
    let configs: Vec<String> = (1..=64).map(|n| format!("\"RB_{n}\"")).collect();
    let body = format!("{{\"scenes\":[{scenes}],\"configs\":[{}]}}", configs.join(","));
    let oversized =
        format!("POST /v1/sweep HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}", body.len());

    for (tier, addr) in [("backend", backend.addr()), ("fleet", fleet.addr())] {
        for (payload, expected) in &cases {
            let resp = exchange(addr, payload);
            assert_eq!(
                status(&resp),
                *expected,
                "{tier}: payload {:?} must answer {expected}",
                String::from_utf8_lossy(payload)
            );
        }
        let resp = exchange(addr, oversized.as_bytes());
        assert_eq!(status(&resp), 400, "{tier}");
        assert!(resp.contains("exceeds"), "{tier}: {resp}");

        // After all that abuse the tier still works.
        assert_eq!(quick_client(addr).get("/healthz").unwrap().status, 200, "{tier}");
    }
    for (metrics, prefix) in
        [(backend.render_metrics(), "sms_serve"), (fleet.render_metrics(), "sms_fleet")]
    {
        assert!(metrics.contains(&format!("{prefix}_bad_requests_total 16\n")), "{metrics}");
    }
    drain_tiers(tiers);

    // Door shed: with `max_conns = 1` and one idle connection already
    // accepted (accepts are FIFO), the next one is refused unread.
    let tiers = spawn_tiers(1, None);
    for (tier, addr) in [("backend", tiers.0.addr()), ("fleet", tiers.1.addr())] {
        let held = connect(addr);
        let shed = exchange(addr, b"");
        assert_eq!(status(&shed), 503, "{tier}: {shed}");
        assert!(shed.contains("\r\nRetry-After: 1\r\n"), "{tier}: {shed}");
        assert!(shed.ends_with("at connection capacity; retry\n"), "{tier}: {shed}");
        let resp = finish(held, b"GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status(&resp), 200, "{tier}: the held connection is still served: {resp}");
    }
    for metrics in [tiers.0.render_metrics(), tiers.1.render_metrics()] {
        assert!(metrics.contains("_shed_total 1\n"), "{metrics}");
    }
    drain_tiers(tiers);
}

/// A sweep body of 20 000 `[` (1/50 of the body limit) is a 400 naming the
/// depth limit on both tiers, not a stack overflow in the handler thread
/// that aborts the whole process: both still answer `/healthz` after it.
#[test]
fn a_nesting_bomb_is_a_400_on_both_tiers() {
    let tiers = spawn_tiers(64, None);
    let bomb = sweep_request("", &"[".repeat(20_000));
    for (tier, addr) in [("backend", tiers.0.addr()), ("fleet", tiers.1.addr())] {
        let resp = exchange(addr, &bomb);
        assert_eq!(status(&resp), 400, "{tier}: {resp}");
        assert!(resp.contains("nesting deeper than 64"), "{tier}: {resp}");
        assert_eq!(quick_client(addr).get("/healthz").unwrap().status, 200, "{tier}");
    }
    drain_tiers(tiers);
}

/// Raw response bytes (status line, headers, body) of the routes the
/// skeleton answers itself, for a backend and a fleet alike: the
/// `serve_e2e.*` rows of the golden table (`goldens.txt`,
/// `sms_geom::golden`). They were captured from the two hand-copied
/// services the skeleton replaced, so a byte that moves here is a wire
/// change, not a refactor.
#[test]
fn wire_bytes_match_parent_goldens() {
    // One recognizable cached cell, so the probe hit has a fixed body. The
    // cache key and the stats object have their own goldens; this one pins
    // the head and the field layout around them.
    let dir = temp_dir("wire");
    let cell = RunRequest::new(SceneId::Wknd, StackConfig::baseline8(), RenderConfig::tiny())
        .with_gpu(GpuConfig::default());
    let cache = ResultCache::new(&dir);
    let stats = SimStats { cycles: 424_242, node_visits: 7, ..Default::default() };
    let key = cache.key(&cell);
    cache.store(&key, &stats);
    let body = format!(
        "{{\"key\":\"{}\",\"scene\":\"WKND\",\"config\":\"RB_8\",\"render\":\"tiny\",\"stats\":{}}}\n",
        key.canonical,
        stats_json(&stats)
    );
    let probe_hit = format!(
        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );

    let tiers = spawn_tiers(64, Some(dir.clone()));
    let mut seen = Vec::new();
    let drains: [(&str, SocketAddr, &dyn Fn()); 2] = [
        ("backend", tiers.0.addr(), &|| tiers.0.request_drain()),
        ("fleet", tiers.1.addr(), &|| tiers.1.request_drain()),
    ];
    for (tier, addr, request_drain) in drains {
        let get = |path: &str| exchange(addr, format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
        let healthz_ok = get("/healthz");
        let not_found = get("/v1/nope");
        assert_eq!(get("/v1/jobs/WKND/RB_8?render=tiny"), probe_hit, "{tier}");
        // Two connections accepted while the tier is live and answered
        // once the drain flag is up: accepts are FIFO, so the round trip in
        // between proves both are already in their handler threads.
        let (late_health, late_drain) = (connect(addr), connect(addr));
        assert_eq!(get("/healthz"), healthz_ok, "{tier}");
        request_drain();
        seen.push([
            ("healthz_ok", healthz_ok),
            ("healthz_draining", finish(late_health, b"GET /healthz HTTP/1.1\r\n\r\n")),
            ("drain", finish(late_drain, b"POST /v1/drain HTTP/1.1\r\nContent-Length: 0\r\n\r\n")),
            ("not_found", not_found),
        ]);
    }
    drain_tiers(tiers);
    golden::check("serve_e2e", &seen[0]);
    assert_eq!(seen[1], seen[0], "the fleet answers byte for byte as the backend does");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two server instances sharing one cache directory: a cell simulated by
/// the first is a disk hit for the second (the locked first-writer-wins
/// cache is the shared tier).
#[test]
fn two_servers_share_one_cache_dir() {
    let dir = temp_dir("shared-cache");
    let cache = dir.join("cache");

    let (handle_a, join_a) = Server::spawn(test_config(Some(cache.clone()))).unwrap();
    let cold = quick_client(handle_a.addr()).sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert_eq!(cold.records[0].cache, "miss");
    let stats_a = *cold.records[0].outcome.as_ref().unwrap();
    handle_a.request_drain();
    join_a.join().unwrap().unwrap();

    let (handle_b, join_b) = Server::spawn(test_config(Some(cache))).unwrap();
    let client_b = quick_client(handle_b.addr());
    let warm = client_b.sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert_eq!(warm.records[0].cache, "hit", "second instance must hit the shared cache");
    assert_eq!(*warm.records[0].outcome.as_ref().unwrap(), stats_a);
    // And its probe endpoint sees the other instance's work too.
    assert_eq!(client_b.get("/v1/jobs/WKND/RB_8?render=tiny").unwrap().status, 200);
    handle_b.request_drain();
    join_b.join().unwrap().unwrap();

    let _ = std::fs::remove_dir_all(&dir);
}

/// The client escapes its labels: a scene name holding a `"` reaches the
/// backend's label check intact and is refused by name, with a 400 — not
/// as a body that is not JSON.
#[test]
fn a_quoted_label_is_refused_by_name() {
    let (handle, join) = Server::spawn(test_config(None)).unwrap();
    let err = quick_client(handle.addr()).sweep(&["WK\"ND"], &["RB_8"], "tiny").unwrap_err();
    assert_eq!(err.status, Some(400), "{err}");
    assert!(err.message.contains("unknown scene name `WK\"ND`"), "{err}");
    handle.request_drain();
    join.join().unwrap().unwrap();
}
