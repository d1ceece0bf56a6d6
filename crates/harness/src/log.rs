//! Structured JSONL logging for the serving tier.
//!
//! Every diagnostic the harness and the serve crates used to `eprintln!`
//! now goes through this module, so operational output is one JSON object
//! per line — machine-greppable, level-filtered, and correlatable with the
//! distributed-tracing spans (a log line can carry the same `trace` id a
//! span carries).
//!
//! ```text
//! {"ts_us":1754650000123456,"level":"warn","component":"fleet","msg":"backend down","backend":"127.0.0.1:9001"}
//! ```
//!
//! An `SMS_OUT=<dir>` run directory appends the lines to `<dir>/log.jsonl`
//! instead of stderr;
//! `SMS_LOG_LEVEL=error|warn|info|debug` drops lines below a threshold
//! (default `info`).
//!
//! The logger is pure observation: it never touches journals, stats, or
//! cache entries, so arming or silencing it cannot change simulation
//! results. It is process-global: a process edge configures it once with
//! [`init`]; a process that never does (tests, library users) logs to
//! stderr at `info`.

use crate::json::Json;
use crate::trace::wall_us;
use crate::LOG_FILE;
use sms_sim::Env;
use std::collections::BTreeSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// The process cannot do what was asked of it.
    Error,
    /// Degraded but continuing (the classic "warning:" lines).
    Warn,
    /// Operational milestones (listening, draining, exiting).
    Info,
    /// High-volume diagnostics, off by default.
    Debug,
}

impl Level {
    /// The lowercase name used in log lines and `SMS_LOG_LEVEL`.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            _ => None,
        }
    }
}

struct Sink {
    level: Level,
    /// `Some` when the run directory holds the log; `None` writes stderr.
    file: Option<Mutex<File>>,
}

static SINK: OnceLock<Sink> = OnceLock::new();
/// Keys already emitted through [`warn_once`].
static ONCE: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());

fn sink() -> &'static Sink {
    SINK.get_or_init(|| Sink { level: Level::Info, file: None })
}

/// The logging half of a process edge: configures the sink from `SMS_OUT`
/// / `SMS_LOG_LEVEL`, then emits every warning the snapshot collected.
/// Call once, first thing in `main`, before anything can log.
pub fn init(env: &Env) {
    let raw_level = env.text("SMS_LOG_LEVEL");
    let level = raw_level.and_then(Level::parse);
    let file = env
        .path("SMS_OUT")
        .and_then(|dir| OpenOptions::new().create(true).append(true).open(dir.join(LOG_FILE)).ok())
        .map(Mutex::new);
    let _ = SINK.set(Sink { level: level.unwrap_or(Level::Info), file });
    if let (Some(raw), None) = (raw_level, level) {
        let msg =
            format!("SMS_LOG_LEVEL: expected error|warn|info|debug, got `{raw}` — using info");
        warn("env", &msg, &[]);
    }
    for w in &env.warnings {
        warn("env", w, &[]);
    }
}

/// Emits one structured log line. `fields` are appended to the object in
/// order after the fixed `ts_us`/`level`/`component`/`msg` prefix; use a
/// `("trace", <hex id>)` field to correlate a line with a span.
pub fn log(level: Level, component: &str, msg: &str, fields: &[(&str, &str)]) {
    let s = sink();
    if level > s.level {
        return;
    }
    let own = |v: &str| v.to_owned();
    let mut pairs = vec![
        (own("ts_us"), Json::U64(wall_us())),
        (own("level"), Json::Str(own(level.as_str()))),
        (own("component"), Json::Str(own(component))),
        (own("msg"), Json::Str(own(msg))),
    ];
    for (k, v) in fields {
        pairs.push((own(k), Json::Str(own(v))));
    }
    let line = Json::Obj(pairs).to_string();
    match &s.file {
        Some(f) => {
            let mut f = f.lock().unwrap_or_else(PoisonError::into_inner);
            let _ = writeln!(f, "{line}");
            let _ = f.flush();
        }
        None => eprintln!("{line}"),
    }
}

/// [`log`] at [`Level::Error`].
pub fn error(component: &str, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Error, component, msg, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(component: &str, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Warn, component, msg, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(component: &str, msg: &str, fields: &[(&str, &str)]) {
    log(Level::Info, component, msg, fields);
}

/// Emits a warning at most once per process for a given `key` — the
/// pattern the cache's degrade/quarantine paths need so a hot loop cannot
/// flood the log with the same line.
pub fn warn_once(key: &str, component: &str, msg: &str, fields: &[(&str, &str)]) {
    if ONCE.lock().unwrap_or_else(PoisonError::into_inner).insert(key.to_owned()) {
        warn(component, msg, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_order_and_parse() {
        assert!(Level::Error < Level::Warn);
        assert!(Level::Warn < Level::Info);
        assert!(Level::Info < Level::Debug);
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("warning"), Some(Level::Warn));
        assert_eq!(Level::parse(" debug "), Some(Level::Debug));
        assert_eq!(Level::parse("loud"), None);
    }

    #[test]
    fn env_positive_accepts_and_rejects() {
        let env = Env::from_pairs(&[
            ("SMS_JOBS", " 12 "),
            ("SMS_MAX_CYCLES", "zero"),
            ("SMS_STALL_CYCLES", "0"),
            ("SMS_RETRIES", "0"),
        ]);
        assert_eq!(env.positive("SMS_JOBS"), Some(12));
        assert_eq!(env.positive("SMS_MAX_CYCLES"), None);
        assert_eq!(env.positive("SMS_STALL_CYCLES"), None);
        assert_eq!(env.positive("SMS_FLEET_COOLDOWN_MS"), None);
        assert_eq!(env.non_negative("SMS_RETRIES"), Some(0));
        // What `init` hands the logger: the variable and the offending value.
        assert_eq!(env.warnings.len(), 2, "{:?}", env.warnings);
        assert!(env.warnings[0].starts_with("SMS_MAX_CYCLES: "), "{:?}", env.warnings);
        assert!(env.warnings[0].contains("got `zero`"), "{:?}", env.warnings);
        assert!(env.warnings[1].starts_with("SMS_STALL_CYCLES: "), "{:?}", env.warnings);
        init(&env); // emits them; must not panic whatever the sink's state
    }

    #[test]
    fn log_lines_are_json_objects() {
        // Render through the same code path `log` uses, without racing on
        // the global sink's env-derived config.
        let own = |v: &str| v.to_owned();
        let pairs = vec![
            (own("ts_us"), Json::U64(wall_us())),
            (own("level"), Json::Str(own("warn"))),
            (own("component"), Json::Str(own("test"))),
            (own("msg"), Json::Str(own("quoted \"msg\"\n"))),
            (own("trace"), Json::Str(own("00c0ffee5eed1234"))),
        ];
        let line = Json::Obj(pairs).to_string();
        let doc = crate::json::parse(&line).unwrap();
        assert_eq!(doc.get("level").unwrap().as_str(), Some("warn"));
        assert_eq!(doc.get("trace").unwrap().as_str(), Some("00c0ffee5eed1234"));
    }

    #[test]
    fn warn_once_dedupes_on_key() {
        // The global sink dedupes; at minimum the second call must return
        // without panicking and the key must stay recorded.
        warn_once("test-dedupe-key", "test", "only once", &[]);
        warn_once("test-dedupe-key", "test", "only once", &[]);
        assert!(ONCE.lock().unwrap_or_else(PoisonError::into_inner).contains("test-dedupe-key"));
    }
}
