//! Distributed-tracing end to end: one client trace context must survive
//! routed and retried dispatch across two backends, with every span the
//! fleet and the backends record sharing the client's trace id and
//! parenting into one tree — and with tracing disarmed, journals must
//! carry no span lines at all (byte-identity with the pre-tracing tier).
//!
//! The trace context is injected via `ClientConfig::trace` (never the
//! environment — tests run in parallel), and routing/failure are made
//! deterministic structurally: two scenes over two idle backends get one
//! home each, a bound-then-dropped port refuses every dispatch.

use sms_harness::json::{parse, Json};
use sms_harness::TraceContext;
use sms_serve::client::{Client, ClientConfig};
use sms_serve::fleet::{FleetConfig, FleetServer};
use sms_serve::server::{ServeConfig, Server};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sms-trace-e2e-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn backend_config(cache_dir: PathBuf, journal: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        cache_dir: Some(cache_dir),
        journal_path: journal,
        ..ServeConfig::default()
    }
}

fn traced_client(addr: std::net::SocketAddr, ctx: Option<TraceContext>) -> Client {
    Client::with_config(ClientConfig {
        addr: addr.to_string(),
        retries: 0,
        deadline: Duration::from_secs(300),
        trace: ctx,
        ..ClientConfig::default()
    })
}

/// All span documents in a journal, in write order.
fn spans(journal: &Path) -> Vec<Json> {
    std::fs::read_to_string(journal)
        .unwrap_or_default()
        .lines()
        .filter_map(|l| parse(l).ok())
        .filter(|d| d.get("event").and_then(|e| e.as_str()) == Some("span"))
        .collect()
}

fn field<'a>(doc: &'a Json, name: &str) -> &'a str {
    doc.get(name).and_then(|v| v.as_str()).unwrap_or_default()
}

fn attr<'a>(doc: &'a Json, name: &str) -> &'a str {
    doc.get("attrs").and_then(|a| a.get(name)).and_then(|v| v.as_str()).unwrap_or_default()
}

/// Traced sweep over two backends: two scenes with two configurations
/// each, so each scene is homed on its own backend. The journal must show,
/// under one trace id, the fleet sweep parented on the client's span, cells
/// parented on the sweep, exactly one `ok` dispatch per cell parented on
/// its cell, each scene's dispatches on one backend and the two scenes on
/// different ones, and backend B's sweep spans parented on fleet dispatch
/// spans.
#[test]
fn traced_sweep_keeps_one_trace_over_two_backends() {
    let dir = temp_dir("two-backends");
    let cache = dir.join("cache");
    let b_journal = dir.join("backend-b.jsonl");

    let (handle_a, join_a) = Server::spawn(backend_config(cache.clone(), None)).unwrap();
    let (handle_b, join_b) =
        Server::spawn(backend_config(cache.clone(), Some(b_journal.clone()))).unwrap();

    let journal = dir.join("fleet.jsonl");
    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![handle_a.addr().to_string(), handle_b.addr().to_string()],
        workers: 2,
        journal_path: Some(journal.clone()),
        cache_dir: Some(cache),
        ..FleetConfig::default()
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();

    let ctx = TraceContext::root();
    let outcome = traced_client(fleet.addr(), Some(ctx))
        .sweep(&["WKND", "BUNNY"], &["RB_8", "RB_8+SH_8"], "tiny")
        .unwrap();
    assert_eq!(outcome.records.len(), 4);
    assert!(outcome.records.iter().all(|r| r.outcome.is_ok()));

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    handle_a.request_drain();
    join_a.join().unwrap().unwrap();
    handle_b.request_drain();
    join_b.join().unwrap().unwrap();

    let fleet_spans = spans(&journal);
    assert!(!fleet_spans.is_empty(), "traced sweep must record spans");
    for s in &fleet_spans {
        assert_eq!(field(s, "trace"), ctx.trace_hex(), "one trace id end to end: {s}");
    }

    let sweep: Vec<&Json> = fleet_spans.iter().filter(|s| field(s, "name") == "sweep").collect();
    assert_eq!(sweep.len(), 1, "exactly one fleet sweep span");
    assert_eq!(field(sweep[0], "parent"), ctx.span_hex(), "sweep parents on the client root");
    assert_eq!(field(sweep[0], "kind"), "server");

    let cells: Vec<&Json> = fleet_spans.iter().filter(|s| field(s, "name") == "cell").collect();
    assert_eq!(cells.len(), 4, "one cell span per deduped cell");
    for c in &cells {
        assert_eq!(field(c, "parent"), field(sweep[0], "span"), "cells parent on the sweep");
    }

    let dispatches: Vec<&Json> =
        fleet_spans.iter().filter(|s| field(s, "name") == "dispatch").collect();
    assert_eq!(dispatches.len(), 4, "one dispatch per cell: {dispatches:?}");
    let mut homes: Vec<(&str, &str)> = Vec::new();
    for c in &cells {
        let of_cell: Vec<&&Json> =
            dispatches.iter().filter(|d| field(d, "parent") == field(c, "span")).collect();
        assert_eq!(of_cell.len(), 1, "exactly one dispatch parents on {c}");
        assert_eq!(attr(of_cell[0], "outcome"), "ok", "{}", of_cell[0]);
        let scene = attr(c, "cell").split('/').next().unwrap();
        homes.push((scene, attr(of_cell[0], "backend")));
    }
    homes.sort_unstable();
    homes.dedup();
    assert_eq!(homes.len(), 2, "each scene on one backend: {homes:?}");
    assert_ne!(homes[0].1, homes[1].1, "the two scenes on two backends: {homes:?}");

    // Cross-process: backend B's spans continue the same trace, and its
    // sweep spans parent on fleet dispatch spans.
    let b_spans = spans(&b_journal);
    assert!(!b_spans.is_empty(), "backend B is home to a scene and records spans");
    for s in &b_spans {
        assert_eq!(field(s, "trace"), ctx.trace_hex(), "backend continues the trace: {s}");
    }
    for s in b_spans.iter().filter(|s| field(s, "name") == "sweep") {
        assert!(
            dispatches.iter().any(|d| field(d, "span") == field(s, "parent")),
            "backend sweep must parent on a fleet dispatch span: {s}"
        );
    }
    assert!(
        b_spans.iter().any(|s| field(s, "name") == "job" && !attr(s, "cell").is_empty()),
        "backend must record job spans with a cell attribute"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Retried sweep: the primary backend refuses every connection, so the
/// first dispatch errors and the retry steals the cell to the healthy
/// backend — two dispatch spans under one cell, attempts 1 and 2, on
/// different backends, still one trace id.
#[test]
fn retried_sweep_records_both_attempts_under_one_trace() {
    let dir = temp_dir("retry");
    let cache = dir.join("cache");

    // Bind-then-drop: a port that deterministically refuses.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap().local_addr().unwrap();
    let (handle_b, join_b) = Server::spawn(backend_config(cache.clone(), None)).unwrap();

    let journal = dir.join("fleet.jsonl");
    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![dead.to_string(), handle_b.addr().to_string()],
        workers: 1,
        breaker_threshold: 1,
        breaker_cooldown: Duration::from_secs(10),
        cell_attempts: 4,
        journal_path: Some(journal.clone()),
        cache_dir: Some(cache),
        ..FleetConfig::default()
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();

    let ctx = TraceContext::root();
    let outcome =
        traced_client(fleet.addr(), Some(ctx)).sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert_eq!(outcome.records.len(), 1);
    assert!(outcome.records[0].outcome.is_ok(), "retry must rescue the cell");

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    handle_b.request_drain();
    join_b.join().unwrap().unwrap();

    let fleet_spans = spans(&journal);
    for s in &fleet_spans {
        assert_eq!(field(s, "trace"), ctx.trace_hex());
    }
    let dispatches: Vec<&Json> =
        fleet_spans.iter().filter(|s| field(s, "name") == "dispatch").collect();
    let first = dispatches.iter().find(|d| attr(d, "attempt") == "1").expect("attempt 1 span");
    let second = dispatches.iter().find(|d| attr(d, "attempt") == "2").expect("attempt 2 span");
    assert_eq!(attr(first, "outcome"), "error", "the dead backend must error");
    assert_eq!(attr(first, "backend"), dead.to_string());
    assert_eq!(attr(second, "outcome"), "ok");
    assert_eq!(attr(second, "backend"), handle_b.addr().to_string());
    assert_eq!(
        field(first, "parent"),
        field(second, "parent"),
        "both attempts belong to the same cell span"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Tracing disarmed (no `ClientConfig::trace`, no header): neither the
/// fleet nor the backend journal may contain a single span line — the
/// byte-identity contract with the pre-tracing tier.
#[test]
fn untraced_sweep_records_no_span_lines() {
    let dir = temp_dir("off");
    let cache = dir.join("cache");
    let b_journal = dir.join("backend.jsonl");

    let (handle, join) =
        Server::spawn(backend_config(cache.clone(), Some(b_journal.clone()))).unwrap();
    let journal = dir.join("fleet.jsonl");
    let config = FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        backends: vec![handle.addr().to_string()],
        workers: 2,
        journal_path: Some(journal.clone()),
        cache_dir: Some(cache),
        ..FleetConfig::default()
    };
    let (fleet, join_fleet) = FleetServer::spawn(config).unwrap();

    let outcome = traced_client(fleet.addr(), None).sweep(&["WKND"], &["RB_8"], "tiny").unwrap();
    assert!(outcome.records[0].outcome.is_ok());

    fleet.request_drain();
    join_fleet.join().unwrap().unwrap();
    handle.request_drain();
    join.join().unwrap().unwrap();

    assert!(spans(&journal).is_empty(), "untraced fleet journal must carry no span lines");
    assert!(spans(&b_journal).is_empty(), "untraced backend journal must carry no span lines");
    let _ = std::fs::remove_dir_all(&dir);
}
