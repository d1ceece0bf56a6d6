//! `sms-trace`: merge and validate distributed-trace span events.
//!
//! ```text
//! sms-trace merge [--trace HEX] [--sim FILE]... [--out FILE] JOURNAL...
//! sms-trace validate JOURNAL...
//! ```
//!
//! `merge` reads span events (`{"event":"span",...}` lines) out of one or
//! more JSONL journals — typically the fleet journal plus each backend's —
//! and renders one Chrome-trace/Perfetto JSON timeline: one process track
//! per journal, one slice per span, and `ph:"s"`/`ph:"f"` flow arrows for
//! every parent→child edge so retries and steals draw as arrows across
//! process tracks. Sim traces written by `SMS_TRACE`-armed jobs (which
//! embed a top-level `"traceId"`) are folded in with `--sim`, so a
//! request's spans link to its per-warp timeline. The merge is strict:
//! every span must pass the schema validator, span ids must be unique,
//! and unresolved parents are only tolerated in two shapes. At most one
//! per trace may have `server`-kind children — that is the client's root
//! span, which lives in no journal and is synthesized as a `client`
//! track so the flow arrows have a source. Two of those means two entry
//! points claim the same trace (usually a forgotten fleet journal, since
//! backend sweeps are `server` spans parenting on fleet dispatch ids).
//! Unresolved parents with only non-`server` children are crash orphans
//! — the recording process died before writing the parent span (the
//! fleet tier's injected-kill chaos produces exactly this) — and are
//! synthesized as `(lost span)` slices on their journal's own track.
//!
//! `validate` runs the span-schema checks alone, per file, without
//! requiring parents to resolve (a single journal only sees its own
//! side of each cross-process edge).
//!
//! Exit status: 0 on success, 1 on a validation or merge failure, 2 on
//! usage errors.

use sms_harness::json::{parse, Json};

const SPAN_KINDS: [&str; 5] = ["client", "server", "internal", "producer", "consumer"];

fn usage() -> ! {
    eprintln!(
        "usage: sms-trace <command>\n\
         commands:\n  \
         merge [--trace HEX] [--sim FILE]... [--out FILE] JOURNAL...\n  \
         validate JOURNAL..."
    );
    std::process::exit(2);
}

fn fail(message: String) -> ! {
    eprintln!("sms-trace: {message}");
    std::process::exit(1);
}

/// One span event, decoded and schema-checked.
#[derive(Debug, Clone)]
struct Span {
    trace: String,
    span: String,
    parent: Option<String>,
    name: String,
    kind: String,
    start_us: u64,
    dur_us: u64,
    attrs: Vec<(String, String)>,
    /// Index of the source journal (process track).
    source: usize,
}

fn is_hex16(s: &str) -> bool {
    s.len() == 16 && s.bytes().all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
}

fn snake_case(s: &str) -> bool {
    !s.is_empty()
        && s.as_bytes()[0].is_ascii_lowercase()
        && s.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
}

/// Decodes and schema-checks one `event:"span"` document.
fn check_span(doc: &Json, source: usize) -> Result<Span, String> {
    let str_field = |name: &str| -> Result<String, String> {
        doc.get(name)
            .and_then(|v| v.as_str())
            .map(str::to_owned)
            .ok_or_else(|| format!("missing or non-string `{name}`"))
    };
    let trace = str_field("trace")?;
    if !is_hex16(&trace) {
        return Err(format!("`trace` must be 16 lowercase hex digits, got `{trace}`"));
    }
    let span = str_field("span")?;
    if !is_hex16(&span) || span == "0000000000000000" {
        return Err(format!("`span` must be 16 nonzero lowercase hex digits, got `{span}`"));
    }
    let parent = match doc.get("parent") {
        None => return Err("missing `parent` (use null for a root)".to_owned()),
        Some(Json::Null) => None,
        Some(Json::Str(p)) if is_hex16(p) && p != "0000000000000000" => Some(p.clone()),
        Some(other) => return Err(format!("`parent` must be null or 16 hex digits, got {other}")),
    };
    let name = str_field("name")?;
    if name.is_empty() {
        return Err("`name` must be nonempty".to_owned());
    }
    let kind = str_field("kind")?;
    if !SPAN_KINDS.contains(&kind.as_str()) {
        return Err(format!("unknown `kind` `{kind}` (expected one of {SPAN_KINDS:?})"));
    }
    let start_us =
        doc.u64_field("start_us").ok_or_else(|| "missing or non-u64 `start_us`".to_owned())?;
    let dur_us = doc.u64_field("dur_us").ok_or_else(|| "missing or non-u64 `dur_us`".to_owned())?;
    let mut attrs = Vec::new();
    match doc.get("attrs") {
        Some(Json::Obj(pairs)) => {
            for (k, v) in pairs {
                if !snake_case(k) {
                    return Err(format!("attr key `{k}` is not snake_case"));
                }
                let Json::Str(v) = v else {
                    return Err(format!("attr `{k}` must be a string value"));
                };
                attrs.push((k.clone(), v.clone()));
            }
        }
        Some(other) => return Err(format!("`attrs` must be an object, got {other}")),
        None => return Err("missing `attrs`".to_owned()),
    }
    Ok(Span { trace, span, parent, name, kind, start_us, dur_us, attrs, source })
}

/// Reads one journal, returning its schema-checked spans. Non-span lines
/// (the journal codec proper) pass through untouched; a malformed span
/// line is an error, never skipped.
fn load_spans(path: &str, source: usize) -> Result<Vec<Span>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read journal: {e}"))?;
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(doc) = parse(line) else {
            // Foreign or crash-truncated lines are skipped; only
            // well-formed span events concern us.
            continue;
        };
        if doc.get("event").and_then(|e| e.as_str()) != Some("span") {
            continue;
        }
        let span = check_span(&doc, source)
            .map_err(|e| format!("{path}:{}: invalid span event: {e}", lineno + 1))?;
        spans.push(span);
    }
    Ok(spans)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else { usage() };
    match command.as_str() {
        "merge" => merge(&args[1..]),
        "validate" => validate(&args[1..]),
        _ => usage(),
    }
}

fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            match args.get(i + 1) {
                Some(v) => out.push(v.clone()),
                None => usage(),
            }
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

fn positional(args: &[String], flags_with_value: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if flags_with_value.contains(&args[i].as_str()) {
            i += 2;
        } else if args[i].starts_with("--") {
            usage();
        } else {
            out.push(args[i].clone());
            i += 1;
        }
    }
    out
}

/// `validate JOURNAL...` — schema-check every span line, per file.
fn validate(args: &[String]) {
    let journals = positional(args, &[]);
    if journals.is_empty() {
        usage();
    }
    let mut bad = false;
    for (i, path) in journals.iter().enumerate() {
        match load_spans(path, i) {
            Ok(spans) => println!("ok {path}: {} span event(s)", spans.len()),
            Err(e) => {
                eprintln!("sms-trace: {e}");
                bad = true;
            }
        }
    }
    if bad {
        std::process::exit(1);
    }
}

/// `merge [--trace HEX] [--sim FILE]... [--out FILE] JOURNAL...`
fn merge(args: &[String]) {
    let sims = flag_values(args, "--sim");
    let out_path = flag_values(args, "--out").pop();
    let trace_filter = flag_values(args, "--trace").pop();
    let journals = positional(args, &["--sim", "--out", "--trace"]);
    if journals.is_empty() {
        usage();
    }
    if let Some(t) = &trace_filter {
        if !is_hex16(t) {
            fail(format!("--trace must be 16 lowercase hex digits, got `{t}`"));
        }
    }

    let mut spans: Vec<Span> = Vec::new();
    for (i, path) in journals.iter().enumerate() {
        match load_spans(path, i) {
            Ok(s) => spans.extend(s),
            Err(e) => fail(e),
        }
    }
    if let Some(t) = &trace_filter {
        spans.retain(|s| &s.trace == t);
    }
    if spans.is_empty() {
        fail("no span events matched (are the journals traced?)".to_owned());
    }

    // Merge-level strictness: span ids unique, every parent resolved —
    // except the client root (synthesized) and crash orphans (a process
    // died before writing the parent span; see the module docs).
    let mut ids = std::collections::HashSet::new();
    for s in &spans {
        if !ids.insert((s.trace.clone(), s.span.clone())) {
            fail(format!("duplicate span id {} in trace {}", s.span, s.trace));
        }
    }
    let mut orphans: Vec<(String, String)> = Vec::new(); // (trace, unresolved parent id)
    for s in &spans {
        let Some(parent) = &s.parent else { continue };
        if ids.contains(&(s.trace.clone(), parent.clone())) {
            continue;
        }
        if !orphans.iter().any(|(t, p)| t == &s.trace && p == parent) {
            orphans.push((s.trace.clone(), parent.clone()));
        }
    }
    // An orphan with a `server`-kind child is a request entering the
    // system — the client root. More than one per trace means two entry
    // points claim the trace (a forgotten fleet journal, typically).
    let has_server_child = |trace: &str, parent: &str| {
        spans
            .iter()
            .any(|s| s.trace == trace && s.parent.as_deref() == Some(parent) && s.kind == "server")
    };
    let (roots, lost): (Vec<_>, Vec<_>) =
        orphans.into_iter().partition(|(t, p)| has_server_child(t, p));
    for trace in spans.iter().map(|s| s.trace.clone()).collect::<std::collections::HashSet<_>>() {
        let entry_points = roots.iter().filter(|(t, _)| t == &trace).count();
        if entry_points > 1 {
            fail(format!(
                "trace {trace}: {entry_points} distinct unresolved parents with server-kind \
                 children (at most one client root may live outside the journals — is a fleet \
                 journal missing from the merge?)"
            ));
        }
    }
    for (trace, parent) in &lost {
        eprintln!(
            "sms-trace: note: trace {trace}: parent span {parent} was never recorded \
             (process crashed mid-span?); synthesizing a placeholder"
        );
    }

    let events = render_events(&spans, &journals, &roots, &lost);
    let mut doc = format!("{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{events}");
    for (k, sim) in sims.iter().enumerate() {
        match fold_sim(sim, journals.len() + 1 + k, trace_filter.as_deref(), &spans) {
            Ok(Some(sim_events)) => {
                doc.push_str(",\n");
                doc.push_str(&sim_events);
            }
            Ok(None) => eprintln!("sms-trace: note: {sim}: trace id not in merge set; skipped"),
            Err(e) => fail(e),
        }
    }
    doc.push_str("\n]}\n");

    match out_path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, &doc) {
                fail(format!("{path}: cannot write merged trace: {e}"));
            }
            eprintln!(
                "sms-trace: merged {} span(s), {} sim trace(s) -> {path}",
                spans.len(),
                sims.len()
            );
        }
        None => print!("{doc}"),
    }
}

/// Renders the span slices, track metadata, synthesized client roots,
/// crash-orphan placeholders and parent→child flow arrows as one
/// comma-joined Chrome-trace event list.
fn render_events(
    spans: &[Span],
    journals: &[String],
    roots: &[(String, String)],
    lost: &[(String, String)],
) -> String {
    let mut events: Vec<String> = Vec::new();
    let tid = |span_hex: &str| u64::from_str_radix(&span_hex[8..], 16).unwrap_or(1).max(1);

    for (i, path) in journals.iter().enumerate() {
        let name = Json::Str(path.clone());
        events.push(format!(
            r#"{{"name":"process_name","ph":"M","pid":{},"tid":0,"args":{{"name":{name}}}}}"#,
            i + 1
        ));
    }
    // Synthesized client-root slices: the root span exists only as the
    // orphan parent id its children point at; give it a track and a slice
    // spanning its children so cross-process flows have a source.
    if !roots.is_empty() {
        events.push(
            r#"{"name":"process_name","ph":"M","pid":0,"tid":0,"args":{"name":"client (synthesized)"}}"#
                .to_owned(),
        );
    }
    for (trace, root) in roots {
        let children: Vec<&Span> =
            spans.iter().filter(|s| &s.trace == trace && s.parent.as_ref() == Some(root)).collect();
        let start = children.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = children.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(start);
        events.push(format!(
            r#"{{"name":"request","cat":"client","ph":"X","ts":{start},"dur":{},"pid":0,"tid":{},"args":{{"trace":"{trace}","span":"{root}"}}}}"#,
            (end - start).max(1),
            tid(root),
        ));
    }
    // Crash-orphan placeholders: the parent span record died with its
    // process, but its children name it — draw it on the children's own
    // journal track, spanning them.
    for (trace, parent) in lost {
        let children: Vec<&Span> = spans
            .iter()
            .filter(|s| &s.trace == trace && s.parent.as_ref() == Some(parent))
            .collect();
        let pid = children.iter().map(|s| s.source + 1).min().unwrap_or(0);
        let start = children.iter().map(|s| s.start_us).min().unwrap_or(0);
        let end = children.iter().map(|s| s.start_us + s.dur_us).max().unwrap_or(start);
        events.push(format!(
            r#"{{"name":"(lost span)","cat":"internal","ph":"X","ts":{start},"dur":{},"pid":{pid},"tid":{},"args":{{"trace":"{trace}","span":"{parent}","note":"parent record lost (crash?)"}}}}"#,
            (end - start).max(1),
            tid(parent),
        ));
    }

    // Where is each span drawn? (pid, tid, start) — flows bind here.
    let locate = |trace: &str, id: &str| -> Option<(usize, u64, u64)> {
        let synthesized = |pid_of_children: bool| {
            let children: Vec<&Span> = spans
                .iter()
                .filter(|s| s.trace == trace && s.parent.as_deref() == Some(id))
                .collect();
            let start = children.iter().map(|s| s.start_us).min()?;
            let pid = if pid_of_children {
                children.iter().map(|s| s.source + 1).min().unwrap_or(0)
            } else {
                0
            };
            Some((pid, tid(id), start))
        };
        if roots.iter().any(|(t, p)| t == trace && p == id) {
            return synthesized(false);
        }
        if lost.iter().any(|(t, p)| t == trace && p == id) {
            return synthesized(true);
        }
        spans
            .iter()
            .find(|s| s.trace == trace && s.span == id)
            .map(|s| (s.source + 1, tid(&s.span), s.start_us))
    };

    for s in spans {
        let mut args = vec![
            ("trace".to_owned(), Json::Str(s.trace.clone())),
            ("span".to_owned(), Json::Str(s.span.clone())),
        ];
        if let Some(p) = &s.parent {
            args.push(("parent".to_owned(), Json::Str(p.clone())));
        }
        for (k, v) in &s.attrs {
            args.push((k.clone(), Json::Str(v.clone())));
        }
        let name = Json::Str(s.name.clone());
        let kind = Json::Str(s.kind.clone());
        events.push(format!(
            r#"{{"name":{name},"cat":{kind},"ph":"X","ts":{},"dur":{},"pid":{},"tid":{},"args":{}}}"#,
            s.start_us,
            s.dur_us.max(1),
            s.source + 1,
            tid(&s.span),
            Json::Obj(args),
        ));
        // One flow arrow per parent edge; a retried cell's dispatches show
        // as arrows fanning out of the cell into different tracks.
        if let Some((ppid, ptid, pstart)) = s.parent.as_ref().and_then(|p| locate(&s.trace, p)) {
            let flow = format!("\"cat\":\"trace\",\"id\":\"0x{}\"", s.span);
            events.push(format!(
                r#"{{"name":"parent","ph":"s",{flow},"ts":{pstart},"pid":{ppid},"tid":{ptid}}}"#
            ));
            events.push(format!(
                r#"{{"name":"parent","ph":"f","bp":"e",{flow},"ts":{},"pid":{},"tid":{}}}"#,
                s.start_us.max(pstart),
                s.source + 1,
                tid(&s.span),
            ));
        }
    }
    events.join(",\n")
}

/// Folds one sim-trace file (Chrome JSON with a top-level `traceId`) into
/// the merge: its events keep their cycle timebase but move to a private
/// pid range so SM tracks never collide with journal tracks. Returns
/// `Ok(None)` when the sim's trace id is not part of the merge set.
fn fold_sim(
    path: &str,
    pid_base: usize,
    trace_filter: Option<&str>,
    spans: &[Span],
) -> Result<Option<String>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("{path}: cannot read sim trace: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: not valid JSON: {e}"))?;
    let trace_id = doc.get("traceId").and_then(|t| t.as_str());
    match trace_id {
        None => {
            return Err(format!(
                "{path}: sim trace has no `traceId` (was the job run with SMS_TRACE_CTX set?)"
            ))
        }
        Some(id) => {
            let in_set = trace_filter.is_some_and(|t| t == id)
                || (trace_filter.is_none() && spans.iter().any(|s| s.trace == id));
            if !in_set {
                return Ok(None);
            }
        }
    }
    let Some(Json::Arr(raw_events)) = doc.get("traceEvents") else {
        return Err(format!("{path}: sim trace has no `traceEvents` array"));
    };
    // The sim's pids are SM indices on a cycle timebase; shift them into
    // a disjoint range (64 tracks is far beyond any simulated GPU).
    let mut out = vec![format!(
        r#"{{"name":"process_name","ph":"M","pid":{},"tid":0,"args":{{"name":"sim {path} (ts=cycles, trace {})"}}}}"#,
        pid_base * 64,
        trace_id.unwrap_or_default(),
    )];
    for ev in raw_events {
        let Json::Obj(pairs) = ev else { continue };
        let mut pairs = pairs.clone();
        for (k, v) in pairs.iter_mut() {
            if k == "pid" {
                if let Some(pid) = v.as_u64() {
                    *v = Json::U64(pid_base as u64 * 64 + pid);
                }
            }
        }
        out.push(Json::Obj(pairs).to_string());
    }
    Ok(Some(out.join(",\n")))
}
