//! The bytes the client, the backend and the fleet put on the wire and
//! take off it, through the public `http`, `protocol` and client API: the
//! client's request bytes, the body limit on every response framing, and
//! generated garbage against the sweep-body and JSONL-stream parsers.

use sms_harness::json::{parse, Json};
use sms_harness::{CacheKey, Event, RunRequest, TraceContext, SIM_VERSION_SALT};
use sms_serve::http::{read_response, ChunkedWriter, Limits};
use sms_serve::protocol::{parse_sweep, sweep_body, SweepOutcome, SweepRequest};
use sms_serve::{Client, ClientConfig, FleetConfig, ServeConfig};
use sms_sim::config::RenderConfig;
use sms_sim::geom::check::{for_cases, mutate, Gen};
use sms_sim::gpu::SimStats;
use sms_sim::mem::MemStats;
use sms_sim::rtunit::{SmsParams, StackConfig};
use sms_sim::scene::SceneId;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::time::Duration;

/// Serves one connection: reads `want` request bytes, answers an empty
/// 200, then reads whatever else the client sent until it hangs up.
/// Returns everything it read.
fn capture_request(listener: TcpListener, want: usize) -> std::thread::JoinHandle<Vec<u8>> {
    std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut got = vec![0u8; want];
        conn.read_exact(&mut got).unwrap();
        conn.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n")
            .unwrap();
        conn.read_to_end(&mut got).unwrap();
        got
    })
}

/// The request bytes the client sends, byte for byte, with and without a
/// trace context: a health check and a sweep (head and body).
#[test]
fn request_bytes_are_pinned() {
    let ctx = TraceContext::parse("00000000c0ffee42-0000000000000001").unwrap();
    let cases = [
        (None, "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"),
        (
            Some(ctx),
            "GET /healthz HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\n\
             x-sms-trace: 00000000c0ffee42-0000000000000001\r\nConnection: close\r\n\r\n",
        ),
        (
            None,
            "POST /v1/sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 61\r\n\
             Connection: close\r\n\r\n\
             {\"scenes\":[\"WKND\",\"SHIP\"],\"configs\":[\"RB_8\"],\"render\":\"tiny\"}",
        ),
        (
            Some(ctx),
            "POST /v1/sweep HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 61\r\n\
             x-sms-trace: 00000000c0ffee42-0000000000000001\r\nConnection: close\r\n\r\n\
             {\"scenes\":[\"WKND\",\"SHIP\"],\"configs\":[\"RB_8\"],\"render\":\"tiny\"}",
        ),
    ];
    for (trace, want) in cases {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let want = want.replace("{addr}", &addr);
        let server = capture_request(listener, want.len());
        let client = Client::with_config(ClientConfig {
            addr: addr.clone(),
            retries: 0,
            trace,
            ..ClientConfig::default()
        });
        if want.starts_with("GET") {
            assert_eq!(client.get("/healthz").unwrap().status, 200);
        } else {
            let outcome = client.sweep(&["WKND", "SHIP"], &["RB_8"], "tiny").unwrap();
            assert!(outcome.records.is_empty());
        }
        let got = server.join().unwrap();
        assert_eq!(String::from_utf8_lossy(&got), want);
    }
}

/// A byte source that counts the bytes a reader pulled from it.
struct Counted<'a> {
    bytes: &'a [u8],
    pulled: usize,
}

impl Read for Counted<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.bytes.read(buf)?;
        self.pulled += n;
        Ok(n)
    }
}

/// Reads `head` and then 8 MiB of `body` as a response: it must be a 4xx,
/// and the reader must have pulled at most the body limit plus one 4 KiB
/// read from the source, not the 8 MiB.
fn refused_within_the_body_limit(head: &str, body: impl Fn(usize) -> Vec<u8>) {
    let limits = Limits::default();
    let mut payload = head.as_bytes().to_vec();
    payload.extend(body(8 << 20));
    let mut source = Counted { bytes: &payload, pulled: 0 };
    let err = read_response(&mut source, &limits).unwrap_err();
    assert!((400..500).contains(&err.status), "{err}");
    let bound = limits.max_body + 4096;
    assert!(source.pulled <= bound, "pulled {} bytes, bound {bound}: {err}", source.pulled);
}

/// A response whose `Content-Length` says a terabyte is refused before its
/// body is read.
#[test]
fn a_response_announcing_a_terabyte_is_refused_unread() {
    let head = "HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n";
    refused_within_the_body_limit(head, |n| vec![b'x'; n]);
}

/// A response framed by connection close stops at the body limit.
#[test]
fn a_response_framed_by_close_stops_at_the_body_limit() {
    refused_within_the_body_limit("HTTP/1.1 200 OK\r\n\r\n", |n| vec![b'x'; n]);
}

/// A chunked response stops at the body limit however small its chunks:
/// the running total counts, not each chunk.
#[test]
fn a_chunked_response_stops_at_the_body_limit_in_all() {
    let head = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n";
    refused_within_the_body_limit(head, |n| {
        let mut chunk = b"1000\r\n".to_vec();
        chunk.extend([b'x'; 4096]);
        chunk.extend(b"\r\n");
        chunk.repeat(n / 4096)
    });
}

/// A sweep's stream as `stream_sweep` frames it, each line one chunk: a
/// `job_queued` line per cell, then `settled(job)` (the event and its cache
/// tier) for each, then `batch_end`.
fn framed_stream(
    cells: &[RunRequest],
    settled: impl Fn(usize) -> (Event, &'static str),
) -> Vec<u8> {
    let mut wire = Vec::new();
    let mut writer = ChunkedWriter::start(&mut wire, 200, "application/jsonl").unwrap();
    let mut line = String::new();
    let mut push = |event: Event, tier| {
        line.clear();
        event.write_with_cache(&mut line, tier);
        line.push('\n');
        writer.push(line.as_bytes());
    };
    for (job, req) in cells.iter().enumerate() {
        push(Event::queued(job, req, &CacheKey::new(req, SIM_VERSION_SALT)), None);
    }
    for job in 0..cells.len() {
        let (event, tier) = settled(job);
        push(event, Some(tier));
    }
    let jobs = cells.len();
    let end = Event::BatchEnd {
        jobs,
        cache_hits: jobs,
        cache_misses: 0,
        failed: 0,
        duration_us: 321,
        sim_cycles: 0,
        breakdown: None,
        metrics: None,
        builds: Vec::new(),
    };
    push(end, None);
    writer.finish().unwrap();
    wire
}

/// The largest sweep the default per-request job cap admits, 256 cells of
/// the longest keys with every counter at `u64::MAX`, reads back under the
/// default limits with room to spare.
#[test]
fn the_largest_default_sweep_stream_fits_the_body_limit() {
    let jobs = ServeConfig::default().max_jobs_per_request;
    assert_eq!(jobs, FleetConfig::default().max_jobs_per_request);
    let stats = SimStats {
        mem: MemStats::from_values([u64::MAX; MemStats::FIELDS.len()]),
        ..SimStats::from_values([u64::MAX; SimStats::FIELDS.len()])
    };
    let widest = SmsParams { rb_entries: 10, sh_entries: 10, ..SmsParams::default() };
    let cells: Vec<RunRequest> = (0..jobs / SceneId::ALL.len())
        .flat_map(|i| {
            let sms = SmsParams { rb_entries: widest.rb_entries + i, ..widest };
            let stack = StackConfig::Sms(sms.with_skewed(true).with_realloc(true));
            SceneId::ALL.map(|scene| RunRequest::new(scene, stack, RenderConfig::paper()))
        })
        .collect();
    assert_eq!(cells.len(), jobs);
    let wire = framed_stream(&cells, |job| {
        (Event::settled(job, Some(usize::MAX), u64::MAX, Ok((&stats, false, None))), "shared")
    });
    let limits = Limits::default();
    let response = read_response(&mut &wire[..], &limits).unwrap();
    let size = response.body.len();
    println!(
        "{jobs}-cell sweep stream: {size} bytes ({} framed), {:.0}% of the {} byte body limit",
        wire.len(),
        100.0 * size as f64 / limits.max_body as f64,
        limits.max_body
    );
    assert_eq!(response.text().lines().count(), 2 * jobs + 1);
    assert!(size < limits.max_body / 2, "{size} bytes leave less than 2x headroom");
}

/// Sweep bodies as the client writes them.
fn client_sweeps() -> Vec<Vec<u8>> {
    let sweeps: [(&[&str], &[&str], &str); 4] = [
        (&["WKND", "SHIP"], &["RB_8", "RB_8+SH_8+SK+RA"], "tiny"),
        (&["SHIP"], &["RB_8", "RB_FULL", "SL", "PRED_12"], "fast"),
        (&["WKND", "BUNNY", "SPRNG"], &["RB_2+SH_16+RA", "RB_8+SH_8"], "paper"),
        (&["CHSNT", "CHSNT"], &["RB_8", "RB_8"], "tiny"),
    ];
    sweeps
        .iter()
        .map(|(scenes, configs, render)| sweep_body(scenes, configs, render).into())
        .collect()
}

/// A body asking for exactly `sweep`'s cells: the shortest run of configs
/// that tiles its scene-major cross product, one scene per run.
fn reserialised(sweep: &SweepRequest) -> Vec<u8> {
    let cells = &sweep.requests;
    let tiles = |run: usize| {
        cells.len().is_multiple_of(run)
            && cells.iter().enumerate().all(|(i, cell)| {
                cell.stack == cells[i % run].stack && cell.scene == cells[i - i % run].scene
            })
    };
    let run = (1..=cells.len()).find(|&run| tiles(run)).expect("the whole list tiles");
    let scenes: Vec<&str> = cells.iter().step_by(run).map(|c| c.scene.name()).collect();
    let labels: Vec<String> = cells[..run].iter().map(|c| c.stack.label()).collect();
    let configs: Vec<&str> = labels.iter().map(String::as_str).collect();
    sweep_body(&scenes, &configs, &sweep.render_name).into_bytes()
}

/// The sweep property: parsing never panics, and an accepted body
/// re-serialises to one that parses to the same cells and render.
fn a_sweep_reparses_to_itself(body: &[u8]) {
    let Ok(sweep) = parse_sweep(body, 256) else { return };
    let shown = String::from_utf8_lossy(body);
    let reparsed =
        parse_sweep(&reserialised(&sweep), 256).unwrap_or_else(|e| panic!("{shown:?}: {e}"));
    assert_eq!(reparsed.requests, sweep.requests, "{shown:?}");
    assert_eq!(reparsed.render_name, sweep.render_name, "{shown:?}");
}

/// A sweep body built from the grammar's pieces: scene names and config
/// labels valid and not (some spelt with a `\u` escape), any render value,
/// fields dropped, doubled, reordered or unknown, whitespace between tokens.
fn generated_sweep(g: &mut Gen) -> Vec<u8> {
    const SCENES: &[&str] = &["WKND", "SHIP", "BUNNY", "CHSNT", r"\u0053HIP", "ship", "NOPE", ""];
    const LABELS: &[&str] = &[
        "RB_8",
        "RB_FULL",
        "SL",
        "PRED_12",
        "RB_8+SH_8",
        "RB_8+SH_8+SK+RA",
        "RB_2+SH_16+RA",
        r"\u0052B_8",
        "RB_8+SH_64",
        "RB_08",
        "rb_8",
        "RB_8+",
        "",
    ];
    const RENDERS: &[&str] = &[r#""tiny""#, r#""fast""#, r#""paper""#, r#""huge""#, "5", "null"];
    let list = |g: &mut Gen, pool: &[&str]| {
        let items = g.vec(0, 6, |g| format!("\"{}\"", pool[g.int(0, pool.len() - 1)]));
        format!("[{}]", items.join(","))
    };
    let mut fields = vec![
        ("scenes", list(g, SCENES)),
        ("configs", list(g, LABELS)),
        ("render", RENDERS[g.int(0, RENDERS.len() - 1)].to_owned()),
    ];
    match g.int(0, 5) {
        0 => drop(fields.remove(g.int(0, 2))),
        1 => fields.push(fields[g.int(0, 2)].clone()),
        2 => fields.push(("rendr", r#""tiny""#.to_owned())),
        3 => fields.swap(g.int(0, 2), g.int(0, 2)),
        _ => {}
    }
    let space = |g: &mut Gen| ["", "", "", " ", "\n\t"][g.int(0, 4)];
    let body: Vec<String> =
        fields.iter().map(|(k, v)| format!("{}\"{k}\":{}{v}", space(g), space(g))).collect();
    format!("{{{}}}{}", body.join(","), space(g)).into_bytes()
}

/// Generated garbage against `parse_sweep`: bodies built from the grammar,
/// and the client's sweep bodies, either damaged by byte. Every seed parses
/// as sent.
#[test]
fn garbage_sweeps_reparse_to_themselves_or_are_refused() {
    let seeds = client_sweeps();
    let donors: Vec<&[u8]> = seeds.iter().map(Vec::as_slice).collect();
    for seed in &seeds {
        assert!(parse_sweep(seed, 256).is_ok(), "{}", String::from_utf8_lossy(seed));
        a_sweep_reparses_to_itself(seed);
    }
    for_cases(20_000, 49, |g| {
        let body = match g.chance(0.5) {
            true => generated_sweep(g),
            false => donors[g.int(0, donors.len() - 1)].to_vec(),
        };
        let body = if g.chance(0.5) { mutate(g, &body, &donors) } else { body };
        a_sweep_reparses_to_itself(&body);
    });
}

/// JSONL streams: the warm 4-cell sweep `http::tests::sweep_stream` frames
/// (every cell a cache hit), and the same cells with every other job failed.
fn streams() -> Vec<Vec<u8>> {
    let stats = SimStats { cycles: 424_242, node_visits: 7, ..Default::default() };
    let cells: Vec<RunRequest> = [SceneId::Wknd, SceneId::Ship]
        .into_iter()
        .flat_map(|scene| {
            [StackConfig::baseline8(), StackConfig::sms_default()]
                .map(|stack| RunRequest::new(scene, stack, RenderConfig::tiny()))
        })
        .collect();
    let hit = |job| (Event::settled(job, Some(1), 17, Ok((&stats, true, None))), "hit");
    let failed = |job: usize| match job % 2 {
        0 => hit(job),
        _ => {
            let (kind, error) = ("panic".to_owned(), "boom".to_owned());
            (Event::RunFailed { job, worker: 0, kind, error, duration_us: 2 }, "miss")
        }
    };
    [framed_stream(&cells, hit), framed_stream(&cells, failed)]
        .map(|wire| read_response(&mut &wire[..], &Limits::default()).unwrap().body)
        .to_vec()
}

/// `text` damaged a line at a time: a line dropped, doubled or moved.
fn shuffle_lines(g: &mut Gen, text: &[u8]) -> Vec<u8> {
    let mut lines: Vec<&[u8]> = text.split_inclusive(|&b| b == b'\n').collect();
    for _ in 0..g.int(1, 2) {
        let (from, to) = (g.int(0, lines.len() - 1), g.int(0, lines.len() - 1));
        match g.int(0, 2) {
            0 => drop(lines.remove(from)),
            1 => lines.insert(to, lines[from]),
            _ => lines.swap(from, to),
        }
        if lines.is_empty() {
            break;
        }
    }
    lines.concat()
}

/// The stream property: parsing never panics, and an accepted stream's
/// records are one for one with the `job_queued` lines of the jobs that
/// settled: each record carries its own queued line's job, scene and
/// config, and no two share one. A queued job without a record never
/// settled, as in a killed backend's journal, which `fleet_chaos` reads.
fn records_match_queued_jobs_one_for_one(text: &str) {
    let Ok(outcome) = SweepOutcome::parse(text) else { return };
    let queued: Vec<(u64, String, String)> = text
        .lines()
        .filter_map(|line| parse(line).ok())
        .filter(|doc| doc.get("event").and_then(Json::as_str) == Some("job_queued"))
        .map(|doc| {
            let field = |name| doc.get(name).and_then(Json::as_str).unwrap().to_owned();
            (doc.u64_field("job").unwrap(), field("scene"), field("config"))
        })
        .collect();
    for (i, record) in outcome.records.iter().enumerate() {
        let own = (record.job, record.scene.clone(), record.config.clone());
        assert_eq!(queued.iter().filter(|q| **q == own).count(), 1, "{own:?} in {text:?}");
        let twice = outcome.records[..i].iter().any(|r| r.job == record.job);
        assert!(!twice, "job {} has two records in {text:?}", record.job);
    }
}

/// Generated garbage against `SweepOutcome::parse`, the one journal-stream
/// reader: the streams of [`streams`] damaged by line, by byte or both.
/// Every seed parses as sent, with one record per job.
#[test]
fn garbage_streams_match_their_queued_jobs_or_are_refused() {
    let seeds = streams();
    let donors: Vec<&[u8]> = seeds.iter().map(Vec::as_slice).collect();
    for seed in &seeds {
        let text = std::str::from_utf8(seed).unwrap();
        assert_eq!(SweepOutcome::parse(text).unwrap().records.len(), 4);
        records_match_queued_jobs_one_for_one(text);
    }
    for_cases(20_000, 49, |g| {
        let seed = donors[g.int(0, donors.len() - 1)];
        let mut bytes = if g.chance(0.5) { shuffle_lines(g, seed) } else { seed.to_vec() };
        if g.chance(0.7) {
            bytes = mutate(g, &bytes, &donors);
        }
        records_match_queued_jobs_one_for_one(&String::from_utf8_lossy(&bytes));
    });
}
