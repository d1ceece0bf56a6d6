//! `serve_warm` and `serve_cold`: real `sms-serve` and `sms-fleet`
//! processes, driven over their wire protocol by `sms_serve::Client`.
//!
//! Closed loop: a client sends its next sweep only after the previous one
//! completed. Two client threads, two backends with one simulation worker
//! each — sizes never scale with the machine.

use super::{overhead_pct, ratio, shuffle, Ctx, Passes, Report};
use crate::golden::stats_digest;
use crate::host;
use crate::prom::Scrape;
use crate::stats::{median, percentile};
use sms_harness::{Harness, HarnessConfig};
use sms_serve::{Client, ClientConfig};
use sms_sim::config::RenderConfig;
use sms_sim::experiments;
use sms_sim::gpu::GpuConfig;
use sms_sim::render::PreparedScene;
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;
use sms_sim::RunLimits;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a freshly spawned server may take to announce its address.
const ADDR_TIMEOUT: Duration = Duration::from_secs(5);
const CLIENTS: usize = 2;

/// A server child that cannot outlive the benchmark: killed and reaped on
/// drop, which also runs when a panic unwinds.
struct Server {
    name: &'static str,
    child: Child,
    addr: String,
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Server {
    /// Spawns `bin` with `--addr 127.0.0.1:0 --addr-file <dir>/<name>.addr`
    /// and waits for the address file.
    fn spawn(
        bin: &Path,
        name: &'static str,
        extra: &[&str],
        dir: &Path,
        cache_dir: &Path,
    ) -> Result<Server, String> {
        let addr_file = dir.join(format!("{name}.addr"));
        let stderr_file = dir.join(format!("{name}.stderr"));
        let stderr = std::fs::File::create(&stderr_file)
            .map_err(|e| format!("cannot create {}: {e}", stderr_file.display()))?;
        let child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(extra)
            // The only SMS_* variable a child sees (the rest were scrubbed
            // from this process's environment at start).
            .env("SMS_CACHE_DIR", cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut server = Server { name, child, addr: String::new() };
        let started = Instant::now();
        loop {
            if let Ok(text) = std::fs::read_to_string(&addr_file) {
                // The file is written in one call and ends in a newline.
                if let Some(addr) = text.strip_suffix('\n').filter(|a| !a.is_empty()) {
                    server.addr = addr.to_owned();
                    return Ok(server);
                }
            }
            let exited = server.child.try_wait().ok().flatten();
            if exited.is_some() || started.elapsed() > ADDR_TIMEOUT {
                let stderr = std::fs::read_to_string(&stderr_file).unwrap_or_default();
                let why = match exited {
                    Some(status) => format!("exited with {status}"),
                    None => format!("announced no address within {ADDR_TIMEOUT:?}"),
                };
                return Err(format!("{name} {why}; its stderr:\n{stderr}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn client(&self) -> Client {
        client(&self.addr)
    }

    fn scrape(&self) -> Result<Scrape, String> {
        let resp =
            self.client().get("/metrics").map_err(|e| format!("{} /metrics: {e}", self.name))?;
        if resp.status != 200 {
            return Err(format!("{} /metrics: status {}", self.name, resp.status));
        }
        Scrape::parse(&resp.text())
    }
}

fn client(addr: &str) -> Client {
    Client::with_config(ClientConfig {
        addr: addr.to_owned(),
        retries: 0,
        ..ClientConfig::default()
    })
}

/// Two backends sharing one cache directory behind one fleet front tier.
struct Topology {
    backends: [Server; 2],
    fleet: Server,
    cache_dir: PathBuf,
}

/// One reading of all three processes: their `/metrics` and CPU clocks.
struct Scrapes {
    backends: [Scrape; 2],
    fleet: Scrape,
    /// CPU seconds used so far by both backends, and by the fleet.
    backend_cpu_s: f64,
    fleet_cpu_s: f64,
}

impl Scrapes {
    fn backends_total(&self, family: &str) -> f64 {
        self.backends.iter().map(|s| s.total(family)).sum()
    }
}

impl Topology {
    fn start(bin_dir: &Path, dir: &Path) -> Result<Topology, String> {
        let cache_dir = dir.join("cache");
        let serve = bin_dir.join("sms-serve");
        let spawn = |name| Server::spawn(&serve, name, &["--workers", "1"], dir, &cache_dir);
        let backends = [spawn("backend-a")?, spawn("backend-b")?];
        let list = format!("{},{}", backends[0].addr, backends[1].addr);
        let fleet = Server::spawn(
            &bin_dir.join("sms-fleet"),
            "fleet",
            &["--backends", &list],
            dir,
            &cache_dir,
        )?;
        // Ready means the front tier answers, not only that it is bound.
        match fleet.client().get("/healthz") {
            Ok(resp) if resp.status == 200 => Ok(Topology { backends, fleet, cache_dir }),
            Ok(resp) => Err(format!("fleet /healthz: status {}", resp.status)),
            Err(e) => Err(format!("fleet /healthz: {e}")),
        }
    }

    fn scrape(&self, ctx: &mut Ctx) -> Scrapes {
        let (result, _) = ctx.tracer.timed("scrape", "", |_| {
            Ok::<_, String>([
                self.backends[0].scrape()?,
                self.backends[1].scrape()?,
                self.fleet.scrape()?,
            ])
        });
        ctx.check.op(result.is_ok(), || result.as_ref().err().cloned().unwrap_or_default());
        let [a, b, fleet] = result.unwrap_or_default();
        Scrapes {
            backends: [a, b],
            fleet,
            backend_cpu_s: self
                .backends
                .iter()
                .map(|b| host::process_cpu_seconds(b.child.id()))
                .sum(),
            fleet_cpu_s: host::process_cpu_seconds(self.fleet.child.id()),
        }
    }

    /// Sum of the three processes' peak resident sets, and the larger
    /// backend's, in MiB. Read while they are alive.
    fn peak_rss(&self) -> (f64, f64) {
        let backends = self.backends.each_ref().map(|b| host::peak_rss_mib(b.child.id()));
        (
            backends[0] + backends[1] + host::peak_rss_mib(self.fleet.child.id()),
            backends[0].max(backends[1]),
        )
    }
}

/// One sweep request body, with what every returned record must digest to.
struct Sweep {
    scenes: Vec<&'static str>,
    configs: Vec<String>,
    render: &'static str,
    /// `<render>/<SCENE>/<CONFIG>` → digest of the `SimStats` to expect.
    expected: BTreeMap<String, String>,
}

impl Sweep {
    /// The scene × config grid in a `--seed`-shuffled order. The expected
    /// digests come from the goldens (the wire only carries seed-7
    /// renders, so they always apply) or, when blessing, from running the
    /// same cells in-process.
    fn new(
        ctx: &mut Ctx,
        scenes: &[SceneId],
        stacks: &[StackConfig],
        render: &'static str,
    ) -> Sweep {
        let mut scenes = scenes.to_vec();
        let mut stacks = stacks.to_vec();
        shuffle(&mut scenes, ctx.seed);
        shuffle(&mut stacks, ctx.seed ^ 0x5eed);
        let config = if render == "tiny" { RenderConfig::tiny() } else { RenderConfig::fast() };
        let mut expected = BTreeMap::new();
        for &id in &scenes {
            let prepared = ctx.bless.then(|| PreparedScene::build(id, &config));
            for stack in &stacks {
                let key = format!("{render}/{}/{}", id.name(), stack.label());
                let digest = match &prepared {
                    Some(p) => {
                        let run = experiments::try_run_prepared(
                            p,
                            *stack,
                            GpuConfig::default(),
                            &config,
                            &RunLimits::none(),
                        );
                        match run {
                            Ok(run) => stats_digest(&run.stats),
                            Err(fault) => {
                                ctx.check.fail(format!(
                                    "{key}: reference run faulted: {}",
                                    fault.kind()
                                ));
                                continue;
                            }
                        }
                    }
                    None => match ctx.check.golden.as_ref().and_then(|g| g.digests.get(&key)) {
                        Some(digest) => digest.clone(),
                        None => {
                            ctx.check.fail(format!("{key}: no golden digest (run --bless)"));
                            continue;
                        }
                    },
                };
                ctx.check.observed.digests.insert(key.clone(), digest.clone());
                expected.insert(key, digest);
            }
        }
        Sweep {
            scenes: scenes.iter().map(|id| id.name()).collect(),
            configs: stacks.iter().map(StackConfig::label).collect(),
            render,
            expected,
        }
    }

    fn cells(&self) -> usize {
        self.scenes.len() * self.configs.len()
    }

    /// Sends the sweep and checks every record. `want_cache` is the cache
    /// tier every record must report (`hit` once the cache is populated).
    fn send(&self, client: &Client, want_cache: Option<&str>) -> Result<usize, String> {
        let configs: Vec<&str> = self.configs.iter().map(String::as_str).collect();
        let outcome =
            client.sweep(&self.scenes, &configs, self.render).map_err(|e| e.to_string())?;
        if outcome.records.len() != self.cells() {
            return Err(format!("{} records for {} cells", outcome.records.len(), self.cells()));
        }
        for rec in &outcome.records {
            let key = format!("{}/{}/{}", self.render, rec.scene, rec.config);
            let stats = rec.outcome.as_ref().map_err(|e| format!("{key}: {e}"))?;
            if self.expected.get(&key) != Some(&stats_digest(stats)) {
                return Err(format!("{key}: served SimStats digest mismatch"));
            }
            if want_cache.is_some_and(|want| rec.cache != want) {
                return Err(format!("{key}: served from `{}`", rec.cache));
            }
        }
        Ok(outcome.records.len())
    }
}

/// One timed request as a client saw it.
struct Sample {
    start: Instant,
    end: Instant,
    lane: u32,
    /// Cells returned, or why the request counts as failed.
    outcome: Result<usize, String>,
}

impl Sample {
    fn secs(&self) -> f64 {
        self.end.duration_since(self.start).as_secs_f64()
    }
}

/// `CLIENTS` threads each send `sweep` to `addr` back to back for `secs`.
fn closed_loop(
    addr: &str,
    sweep: &Sweep,
    secs: f64,
    want_cache: Option<&str>,
) -> (Vec<Sample>, f64) {
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(secs);
    let samples = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CLIENTS)
            .map(|lane| {
                scope.spawn(move || {
                    let client = client(addr);
                    let mut samples = Vec::new();
                    while Instant::now() < deadline || samples.is_empty() {
                        let start = Instant::now();
                        let outcome = sweep.send(&client, want_cache);
                        samples.push(Sample {
                            start,
                            end: Instant::now(),
                            lane: lane as u32 + 1,
                            outcome,
                        });
                    }
                    samples
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (samples, started.elapsed().as_secs_f64())
}

/// Counts the samples as operations, keeps their spans, and returns the
/// latencies in seconds with the cells returned.
fn account(ctx: &mut Ctx, name: &'static str, cell: &str, samples: &[Sample]) -> (Vec<f64>, usize) {
    let mut cells = 0;
    for s in samples {
        ctx.tracer.record(name, cell, s.start, s.end, s.lane);
        cells += *s.outcome.as_ref().unwrap_or(&0);
        ctx.check.op(s.outcome.is_ok(), || {
            format!("{cell}: {}", s.outcome.as_ref().err().cloned().unwrap_or_default())
        });
    }
    (samples.iter().map(Sample::secs).collect(), cells)
}

/// The deltas of a phase that both serve workloads report.
struct PhaseCounters {
    /// CPU seconds the backends used: the serve layer's time busy.
    job_busy_s: f64,
    /// Time jobs spent inside the backends (`sms_serve_job_latency_us`):
    /// waiting for the simulation permit, preparing the scene, simulating,
    /// storing. Exceeds the busy time when jobs queue.
    job_latency_s: f64,
    /// CPU seconds the fleet process used.
    fleet_busy_s: f64,
    /// Time cells spent in the fleet beyond their time in a backend.
    cell_wait_s: f64,
    hit_ratio: f64,
    imbalance: f64,
}

fn phase_counters(before: &Scrapes, after: &Scrapes) -> PhaseCounters {
    let delta = |family: &str| after.backends_total(family) - before.backends_total(family);
    let job_latency_s = delta("sms_serve_job_latency_us_sum") / 1e6;
    let fleet_cell_s = (after.fleet.total("sms_fleet_cell_latency_us_sum")
        - before.fleet.total("sms_fleet_cell_latency_us_sum"))
        / 1e6;
    let (hits, misses) =
        (delta("sms_serve_cache_hits_total"), delta("sms_serve_cache_misses_total"));
    let old = before.fleet.series("sms_fleet_backend_jobs_total");
    let jobs: Vec<f64> = after
        .fleet
        .series("sms_fleet_backend_jobs_total")
        .into_iter()
        .map(|(labels, v)| v - old.iter().find(|(l, _)| *l == labels).map_or(0.0, |(_, v)| *v))
        .collect();
    let mean = jobs.iter().sum::<f64>() / jobs.len().max(1) as f64;
    PhaseCounters {
        job_busy_s: after.backend_cpu_s - before.backend_cpu_s,
        job_latency_s,
        fleet_busy_s: after.fleet_cpu_s - before.fleet_cpu_s,
        cell_wait_s: fleet_cell_s - job_latency_s,
        hit_ratio: ratio(hits, hits + misses),
        imbalance: ratio(jobs.iter().copied().fold(0.0, f64::max), mean),
    }
}

/// Fleet and backend counters that must stay 0 without faults, from the
/// processes' start. Reported so a non-zero explains a throughput move.
fn fault_counters(report: &mut Report, last: &Scrapes) {
    report.layer(
        "serve.singleflight_shared",
        last.backends_total("sms_serve_singleflight_shared_total"),
    );
    report.layer("serve.shed", last.backends_total("sms_serve_shed_total"));
    report.layer("serve.jobs_failed", last.backends_total("sms_serve_jobs_failed_total"));
    report.layer("fleet.hedges", last.fleet.total("sms_fleet_hedges_total"));
    report.layer("fleet.retries", last.fleet.total("sms_fleet_retries_total"));
    report.layer("fleet.steals", last.fleet.total("sms_fleet_steals_total"));
    report.layer("fleet.breaker_opens", last.fleet.total("sms_fleet_breaker_opens_total"));
    report.layer("fleet.cells_failed", last.fleet.total("sms_fleet_cells_failed_total"));
}

fn warm_grid(smoke: bool) -> (Vec<SceneId>, Vec<StackConfig>, &'static str) {
    if smoke {
        (
            vec![SceneId::Wknd, SceneId::Bunny],
            vec![StackConfig::baseline8(), StackConfig::stackless()],
            "tiny",
        )
    } else {
        (
            vec![SceneId::Wknd, SceneId::Bunny, SceneId::Ship, SceneId::Ref],
            vec![
                StackConfig::baseline8(),
                StackConfig::sms_default(),
                StackConfig::FullOnChip,
                StackConfig::stackless(),
            ],
            "fast",
        )
    }
}

pub fn run_warm(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let traced = ctx.traced;
    let (scenes, stacks, render) = warm_grid(ctx.smoke);
    let sweep = Sweep::new(ctx, &scenes, &stacks, render);
    let dir = match ctx.scratch.subdir("serve-warm") {
        Ok(dir) => dir,
        Err(e) => return failed(ctx, report, e),
    };

    // --- setup: spawn, then one sweep that fills the cache -----------------
    ctx.tracer.set_armed(traced);
    // The populating sweep simulates on both CPUs for a second, so it is
    // paced like `serve_cold`'s (see `pace`); spawning is wall clock.
    let (bin_dir, pacer) = (&ctx.bin_dir, &mut ctx.pacer);
    let (started, _) = ctx.tracer.timed("setup", "", |t| {
        let (topology, spawn_s) = t.timed("spawn", "", |_| Topology::start(bin_dir, &dir));
        let topology = topology?;
        let (populated, time) = pacer.sampled(|| sweep.send(&topology.fleet.client(), None));
        populated.map_err(|e| format!("populating sweep: {e}"))?;
        Ok::<_, String>((topology, spawn_s + time.paced))
    });
    let (topology, setup_s) = match started {
        Ok(t) => t,
        Err(e) => return failed(ctx, report, e),
    };
    let after_setup = topology.scrape(ctx);

    // --- via the fleet: the end-to-end numbers --------------------------------
    // The traced run splits the phase in two, spans kept and spans dropped;
    // the difference between the halves is the tracing overhead.
    let fleet_secs = ctx.seconds * 0.45;
    let mut fleet_lat = Vec::new();
    let (mut fleet_cells, mut fleet_wall) = (0, 0.0);
    let mut halves = [0.0; 2];
    let parts: &[bool] = if traced { &[true, false] } else { &[false] };
    for (rep, &keep_spans) in parts.iter().enumerate() {
        ctx.tracer.set_armed(keep_spans);
        ctx.tracer.set_rep(rep as u32);
        let addr = &topology.fleet.addr;
        let ((samples, wall), _) = ctx.tracer.timed("rep", "via-fleet", |_| {
            closed_loop(addr, &sweep, fleet_secs / parts.len() as f64, Some("hit"))
        });
        let (lat, cells) = account(ctx, "client.sweep", "via-fleet", &samples);
        halves[rep] = median(&lat);
        fleet_lat.extend(lat);
        fleet_cells += cells;
        fleet_wall += wall;
    }
    ctx.tracer.set_armed(traced);
    let after_fleet = topology.scrape(ctx);

    // --- direct to backend a: the same requests minus the fleet hop -----------
    let addr = &topology.backends[0].addr;
    let ((samples, direct_wall), _) = ctx
        .tracer
        .timed("rep", "direct", |_| closed_loop(addr, &sweep, ctx.seconds * 0.25, Some("hit")));
    let (direct_lat, direct_cells) = account(ctx, "client.sweep", "direct", &samples);

    // --- GET /healthz: one accept, no work --------------------------------------
    let probe = topology.backends[0].client();
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.15);
    let mut health = Vec::new();
    while Instant::now() < deadline || health.is_empty() {
        let start = Instant::now();
        let outcome = match probe.get("/healthz") {
            Ok(resp) if resp.status == 200 => Ok(0),
            Ok(resp) => Err(format!("status {}", resp.status)),
            Err(e) => Err(e.to_string()),
        };
        health.push(Sample { start, end: Instant::now(), lane: 1, outcome });
    }
    let (health_lat, _) = account(ctx, "client.healthz", "healthz", &health);
    let last = topology.scrape(ctx);
    let (peak_rss, backend_rss) = topology.peak_rss();

    // --- the harness alone, on the same populated cache directory ----------------
    let harness = Harness::new(HarnessConfig {
        workers: CLIENTS,
        cache_dir: Some(topology.cache_dir.clone()),
        journal_path: Some(dir.join("harness.jsonl")),
        ..HarnessConfig::default()
    });
    let config = if render == "tiny" { RenderConfig::tiny() } else { RenderConfig::fast() };
    let deadline = Instant::now() + Duration::from_secs_f64(ctx.seconds * 0.10);
    let mut batch_walls = Vec::new();
    let (mut hits, mut misses) = (0, 0);
    while Instant::now() < deadline || batch_walls.is_empty() {
        let ((grid, summary), secs) = ctx
            .tracer
            .timed("harness.batch", "warm", |_| harness.try_run_suite(&scenes, &stacks, &config));
        batch_walls.push(secs);
        (hits, misses) = (summary.cache_hits, summary.cache_misses);
        let all_match = scenes.iter().zip(&grid).all(|(id, row)| {
            stacks.iter().zip(row).all(|(stack, result)| {
                let key = format!("{render}/{}/{}", id.name(), stack.label());
                result
                    .as_ref()
                    .is_ok_and(|r| sweep.expected.get(&key) == Some(&stats_digest(&r.stats)))
            })
        });
        ctx.check.op(all_match && misses == 0, || {
            format!("warm harness batch: {misses} misses, digests match: {all_match}")
        });
    }
    let entries: Vec<u64> = std::fs::read_dir(&topology.cache_dir)
        .map(|dir| {
            dir.flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .collect()
        })
        .unwrap_or_default();
    drop(topology);

    // --- metrics ---------------------------------------------------------------------
    report.timing("client.sweep via-fleet", &fleet_lat);
    report.timing("client.sweep direct", &direct_lat);
    report.timing("client.healthz", &health_lat);
    report.timing("harness.batch warm", &batch_walls);
    let fleet_p50 = median(&fleet_lat) * 1e3;
    let direct_p50 = median(&direct_lat) * 1e3;
    report.e2e("setup_s", setup_s);
    report.e2e("cells_per_s", ratio(fleet_cells as f64, fleet_wall));
    report.e2e("sweep_p50_ms", fleet_p50);
    report.e2e("peak_rss_mb", peak_rss);

    let via_fleet = phase_counters(&after_setup, &after_fleet);
    let timed = phase_counters(&after_setup, &last);
    report.layer("fleet.sweep_p95_ms", percentile(&fleet_lat, 95.0) * 1e3);
    report.layer("fleet.hop_p50_ms", fleet_p50 - direct_p50);
    report.layer("fleet.cell_wait_s", via_fleet.cell_wait_s);
    report.layer("fleet.parallel_efficiency", ratio(via_fleet.job_busy_s, 2.0 * fleet_wall));
    report.layer("fleet.dispatch_imbalance", via_fleet.imbalance);
    report.layer("serve.sweep_p50_ms", direct_p50);
    report.layer("serve.sweep_p95_ms", percentile(&direct_lat, 95.0) * 1e3);
    report.layer("serve.cells_per_s", ratio(direct_cells as f64, direct_wall));
    report.layer("serve.healthz_p50_ms", median(&health_lat) * 1e3);
    report.layer("serve.job_busy_s", via_fleet.job_busy_s);
    report.layer("serve.job_latency_s", via_fleet.job_latency_s);
    report.layer("fleet.busy_s", via_fleet.fleet_busy_s);
    report.layer("serve.cache_hit_ratio", timed.hit_ratio);
    report.layer("serve.rss_mb", backend_rss);
    fault_counters(&mut report, &last);
    report.layer("harness.warm_cells_per_s", ratio(sweep.cells() as f64, median(&batch_walls)));
    report.layer("harness.cache_hits", hits as f64);
    report.layer("harness.cache_misses", misses as f64);
    report.layer(
        "harness.cache_entry_bytes",
        ratio(entries.iter().sum::<u64>() as f64, entries.len() as f64),
    );
    report.layer("bench.passes", fleet_lat.len() as f64);
    report.layer("bench.speed_factor", ctx.pacer.speed_factor());
    if traced {
        report.layer("bench.trace_overhead_pct", overhead_pct(halves[0], halves[1]));
    }
    report.notes.push(format!(
        "closed loop, {CLIENTS} clients, {} cells per sweep, all cache hits: {} sweeps via the fleet, {} direct, {} healthz, {} harness batches",
        sweep.cells(),
        fleet_lat.len(),
        direct_lat.len(),
        health_lat.len(),
        batch_walls.len()
    ));
    report
}

pub fn run_cold(ctx: &mut Ctx) -> Report {
    let mut report = Report::default();
    let traced = ctx.traced;
    // The same cells as sim_fast, so the two workloads differ only in path.
    let matrix = super::sim::sim_fast_matrix(crate::golden::GOLDEN_SEED, ctx.smoke);
    let scenes: Vec<SceneId> = matrix.rows.iter().map(|(id, _)| *id).collect();
    let render = if ctx.smoke { "tiny" } else { "fast" };
    let sweep = Sweep::new(ctx, &scenes, &matrix.rows[0].1, render);

    // A sweep's wall clock as measured, and paced by the reference loop a
    // sampler thread ran meanwhile (see `pace`).
    let (mut sweep_walls, mut sweep_times) = (Vec::new(), Vec::new());
    let (mut setup_walls, mut peaks, mut backend_peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters: Vec<PhaseCounters> = Vec::new();
    let mut last;
    let mut passes = Passes::open(ctx, 0);
    loop {
        passes.begin(&mut ctx.tracer);
        let rep_started = Instant::now();
        // A fresh cache directory: nothing survives from the last repetition.
        let dir = match ctx.scratch.subdir("serve-cold") {
            Ok(dir) => dir,
            Err(e) => return failed(ctx, report, e),
        };
        let bin_dir = &ctx.bin_dir;
        let (started, setup_s) = ctx.tracer.timed("setup", "", |_| Topology::start(bin_dir, &dir));
        let topology = match started {
            Ok(t) => t,
            Err(e) => return failed(ctx, report, e),
        };
        let before = topology.scrape(ctx);
        let fleet = topology.fleet.client();
        let start = Instant::now();
        let (outcome, time) = ctx.pacer.sampled(|| sweep.send(&fleet, Some("miss")));
        let sample = Sample { start, end: Instant::now(), lane: 1, outcome };
        account(ctx, "client.sweep", "cold", std::slice::from_ref(&sample));
        let after = topology.scrape(ctx);
        let (peak, backend_peak) = topology.peak_rss();
        drop(topology);

        setup_walls.push(setup_s);
        sweep_times.push(time.paced);
        sweep_walls.push(time.wall);
        peaks.push(peak);
        backend_peaks.push(backend_peak);
        counters.push(phase_counters(&before, &after));
        last = after;
        if !passes.again(rep_started.elapsed().as_secs_f64()) {
            break;
        }
    }

    report.timing("client.sweep cold", &sweep_times);
    report.timing("client.sweep cold (as measured)", &sweep_walls);
    report.timing("setup", &setup_walls);
    let sweep_s = median(&sweep_times);
    report.e2e("setup_s", median(&setup_walls));
    report.e2e("cells_per_s", ratio(sweep.cells() as f64, sweep_s));
    report.e2e("sweep_p50_ms", sweep_s * 1e3);
    report.e2e("peak_rss_mb", median(&peaks));

    let med = |f: fn(&PhaseCounters) -> f64| median(&counters.iter().map(f).collect::<Vec<_>>());
    report.layer("serve.job_busy_s", med(|c| c.job_busy_s));
    report.layer("serve.job_latency_s", med(|c| c.job_latency_s));
    report.layer("fleet.busy_s", med(|c| c.fleet_busy_s));
    report.layer("serve.cache_hit_ratio", med(|c| c.hit_ratio));
    report.layer("serve.rss_mb", median(&backend_peaks));
    report.layer("fleet.cell_wait_s", med(|c| c.cell_wait_s));
    // CPU seconds over wall-clock seconds, both as measured.
    let efficiency = ratio(med(|c| c.job_busy_s), 2.0 * median(&sweep_walls));
    report.layer("fleet.parallel_efficiency", efficiency);
    report.layer("fleet.dispatch_imbalance", med(|c| c.imbalance));
    fault_counters(&mut report, &last);
    report.layer("bench.passes", sweep_times.len() as f64);
    report.layer("bench.speed_factor", ctx.pacer.speed_factor());
    if traced {
        let pick = |want: bool| {
            let picked: Vec<f64> = sweep_times
                .iter()
                .zip(&passes.kept)
                .filter(|(_, k)| **k == want)
                .map(|(t, _)| *t)
                .collect();
            median(&picked)
        };
        report.layer("bench.trace_overhead_pct", overhead_pct(pick(true), pick(false)));
    }
    report.notes.push(format!(
        "{} repetitions, each on freshly spawned servers with an empty cache: one client, one sweep of {} cells",
        sweep_walls.len(),
        sweep.cells()
    ));
    report
}

fn failed(ctx: &mut Ctx, report: Report, why: String) -> Report {
    ctx.check.op(false, || why);
    report
}
