//! The environment, read in one place.
//!
//! Every `SMS_*` variable any tier honours is one row of [`DECLS`]; this
//! module holds the only calls into `std::env` for them and one parser per
//! [`Kind`]. A process edge (a `main`, `sms_bench::figures`) takes one [`Env`]
//! snapshot with [`Env::capture`], reports its warnings once and hands
//! `&Env` to the `from_env` constructors; tests build the same snapshot
//! from `(name, value)` pairs. Nothing below an edge reads the environment.

use std::path::PathBuf;

/// The value grammar of a variable. Every value is trimmed first, and an
/// empty value of any kind but [`Kind::Flag`] is the same as unset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Case-insensitive `1|true|yes|on` (on) or `0|false|no|off|`empty (off).
    Flag,
    /// A decimal integer `> 0`.
    Positive,
    /// A decimal integer `>= 0`.
    NonNegative,
    /// A filesystem path.
    Path,
    /// Free text with a grammar of its consumer's own.
    Text,
    /// Comma-separated items; blank items are dropped.
    List,
}

/// One declared variable: `(name, kind, default, read by, doc)`. The
/// default says what an unset or malformed value means (for a flag, `on`
/// or `off`); "read by" lists the tiers whose configuration it reaches.
pub type Decl = (&'static str, Kind, &'static str, &'static str, &'static str);

use Kind::{Flag, List, NonNegative, Path, Positive, Text};

/// Every `SMS_*` variable. The two tables in `EXPERIMENTS.md` are these
/// rows in this order; a test keeps name, default and reader columns equal.
#[rustfmt::skip]
pub const DECLS: &[Decl] = &[
    ("SMS_SCENES", List, "all 16", "bench", "restrict a figure to a scene subset"),
    ("SMS_PAPER", Flag, "off", "bench", "paper-sized workloads instead of the fast ones"),
    ("SMS_JOBS", Positive, "available cores", "harness", "worker-thread count"),
    ("SMS_NO_CACHE", Flag, "off", "harness, serve, fleet", "bypass the result cache"),
    ("SMS_CACHE_DIR", Path, "`target/sms-cache`", "harness, serve, fleet", "result-cache directory"),
    ("SMS_OUT", Path, "none", "all", "run directory: journal, log, per-run trace and metrics files"),
    ("SMS_MAX_CYCLES", Positive, "unlimited (hard cap 2⁴⁰)", "harness, serve", "per-run cycle budget"),
    ("SMS_STALL_CYCLES", Positive, "off", "harness, serve", "forward-progress watchdog window"),
    ("SMS_VALIDATE", Flag, "off", "harness, serve", "attach the stack invariant validator"),
    ("SMS_BREAKDOWN", Flag, "off", "harness", "arm cycle attribution on every run"),
    ("SMS_TRACE", Flag, "off", "harness, serve", "Chrome-trace timeline per run, into `SMS_OUT`"),
    ("SMS_METRICS", Flag, "off", "harness", "arm run metrics on every run"),
    ("SMS_SERVE_ADDR", Text, "`127.0.0.1:7745`", "serve, client", "server bind address and client target"),
    ("SMS_CLIENT_RETRIES", NonNegative, "3", "client", "retries after the first attempt"),
    ("SMS_CLIENT_DEADLINE_MS", Positive, "600 000", "client", "wall-clock budget per request"),
    ("SMS_CLIENT_TIMEOUT_MS", Positive, "10 000", "client", "socket read timeout"),
    ("SMS_JOURNAL_SYNC", Flag, "off", "harness, serve, fleet", "fsync the journal after every event"),
    ("SMS_FAULT", Text, "off", "serve", "deterministic fault-injection spec"),
    ("SMS_FLEET_ADDR", Text, "`127.0.0.1:7746`", "fleet", "fleet bind address"),
    ("SMS_FLEET_BACKENDS", List, "none", "fleet", "backends to route over"),
    ("SMS_FLEET_ATTEMPTS", Positive, "4", "fleet", "dispatch attempts per cell"),
    ("SMS_FLEET_COOLDOWN_MS", Positive, "1 000", "fleet", "circuit-breaker open duration"),
    ("SMS_FLEET_CELL_TIMEOUT_MS", Positive, "600 000", "fleet", "per-dispatch deadline"),
    ("SMS_TRACE_CTX", Text, "off", "client, harness, serve", "distributed-tracing context"),
    ("SMS_LOG_LEVEL", Text, "`info`", "all", "minimum level the structured logger emits"),
    ("SMS_GIT_HASH", Text, "`unknown`", "fleet", "`git_hash` label of `sms_build_info`"),
];

/// The one flag grammar; `None` for anything it does not know.
fn parse_flag(v: &str) -> Option<bool> {
    match v.to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "" | "0" | "false" | "no" | "off" => Some(false),
        _ => None,
    }
}

/// A validated snapshot of the declared variables.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// One slot per [`DECLS`] row: the trimmed value, when set and valid.
    values: Vec<Option<String>>,
    /// What the snapshot refused, in input order, for the edge to report:
    /// each names the variable first, then the offending value.
    pub warnings: Vec<String>,
}

impl Env {
    /// Snapshots the process environment. Call once, at the process edge.
    pub fn capture() -> Env {
        let lossy = |s: std::ffi::OsString| s.to_string_lossy().into_owned();
        Env::from_pairs(&std::env::vars_os().map(|(k, v)| (lossy(k), lossy(v))).collect::<Vec<_>>())
    }

    /// A snapshot of the given `(name, value)` pairs; names that do not
    /// start with `SMS_` are skipped. A malformed value or an undeclared
    /// `SMS_*` name (a typo) becomes a warning and counts as unset.
    pub fn from_pairs<K: AsRef<str>, V: AsRef<str>>(pairs: &[(K, V)]) -> Env {
        let mut env = Env { values: vec![None; DECLS.len()], warnings: Vec::new() };
        for (name, raw) in pairs {
            let (name, raw) = (name.as_ref(), raw.as_ref());
            if !name.starts_with("SMS_") {
                continue;
            }
            let mut warn = |what: String| env.warnings.push(format!("{name}: {what}"));
            let Some(i) = DECLS.iter().position(|d| d.0 == name) else {
                warn("not a variable this program reads (a typo?) — ignored".to_owned());
                continue;
            };
            let ((_, kind, default, ..), v) = (DECLS[i], raw.trim());
            if v.is_empty() && kind != Flag {
                continue; // blank is unset
            }
            let expected = match kind {
                Flag if parse_flag(v).is_none() => "`1|true|yes|on` or `0|false|no|off`",
                Positive if !v.parse::<u64>().is_ok_and(|n| n > 0) => "a positive integer",
                NonNegative if v.parse::<u64>().is_err() => "a non-negative integer",
                _ => {
                    env.values[i] = Some(v.to_owned());
                    continue;
                }
            };
            warn(format!("expected {expected}, got `{raw}` — keeping the default ({default})"));
        }
        env
    }

    /// Prints the warnings to stderr — the edge of a process that has no
    /// structured logger (`sms_harness::log::init` is the other edge).
    pub fn reported(self) -> Env {
        for w in &self.warnings {
            eprintln!("warning: {w}");
        }
        self
    }

    /// The declared default and the value of `name`, which must be
    /// declared with `kind`.
    fn get(&self, name: &str, kind: Kind) -> (&'static str, Option<&str>) {
        let i = DECLS
            .iter()
            .position(|d| d.0 == name && d.1 == kind)
            .unwrap_or_else(|| panic!("{name} is not declared as {kind:?} in sms_sim::env::DECLS"));
        (DECLS[i].2, self.values.get(i).and_then(|v| v.as_deref()))
    }

    /// A [`Kind::Flag`]: the value when set and well-formed, else the
    /// declared default.
    pub fn flag(&self, name: &str) -> bool {
        let (default, v) = self.get(name, Flag);
        v.and_then(parse_flag).unwrap_or(default == "on")
    }

    /// A [`Kind::Positive`], when set and well-formed.
    pub fn positive(&self, name: &str) -> Option<u64> {
        self.get(name, Positive).1.and_then(|v| v.parse().ok())
    }

    /// A [`Kind::NonNegative`], when set and well-formed.
    pub fn non_negative(&self, name: &str) -> Option<u64> {
        self.get(name, NonNegative).1.and_then(|v| v.parse().ok())
    }

    /// A [`Kind::Path`], when set and not blank.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.get(name, Path).1.map(PathBuf::from)
    }

    /// A [`Kind::Text`], trimmed, when set and not blank.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.get(name, Text).1
    }

    /// The items of a [`Kind::List`], each trimmed; none when unset.
    pub fn list(&self, name: &str) -> Vec<&str> {
        let items = self.get(name, List).1.unwrap_or("");
        items.split(',').map(str::trim).filter(|s| !s.is_empty()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn warned(env: &Env, var: &str) -> bool {
        env.warnings.iter().any(|w| w.starts_with(&format!("{var}: ")))
    }

    /// One grammar for every flag: each row is `(name, value, reads as,
    /// warns)`. At least one row per declared flag; the `=true` rows on
    /// the `== "1"` flags are the ones the old grammars got wrong, and a
    /// path given to `SMS_TRACE` (its grammar before the run directory)
    /// arms nothing.
    #[test]
    fn every_flag_reads_one_grammar() {
        let rows: &[(&str, &str, bool, bool)] = &[
            ("SMS_JOURNAL_SYNC", "true", true, false),
            ("SMS_NO_CACHE", "true", true, false),
            ("SMS_PAPER", "true", true, false),
            ("SMS_PAPER", "1", true, false),
            ("SMS_VALIDATE", "true", true, false),
            ("SMS_VALIDATE", " yes ", true, false),
            ("SMS_BREAKDOWN", "false", false, false),
            ("SMS_BREAKDOWN", "On", true, false),
            ("SMS_TRACE", "1", true, false),
            ("SMS_TRACE", "out.json", false, true),
            ("SMS_METRICS", "0", false, false),
            ("SMS_METRICS", "", false, false),
            ("SMS_METRICS", "2", false, true),
            ("SMS_NO_CACHE", "off", false, false),
            // A typo is reported and arms nothing.
            ("SMS_VALDIATE", "1", false, true),
        ];
        for &(name, value, on, warns) in rows {
            let env = Env::from_pairs(&[(name, value)]);
            let read = if name == "SMS_VALDIATE" { "SMS_VALIDATE" } else { name };
            assert_eq!(env.flag(read), on, "{name}={value:?}");
            assert_eq!(warned(&env, name), warns, "{name}={value:?}: {:?}", env.warnings);
            assert_eq!(env.warnings.len(), usize::from(warns));
        }
        for &(name, _, default, ..) in DECLS.iter().filter(|d| d.1 == Flag) {
            assert!(rows.iter().any(|r| r.0 == name), "no row for flag {name}");
            assert!(default == "on" || default == "off", "{name}: {default}");
            assert_eq!(Env::default().flag(name), default == "on", "{name} unset");
        }
    }

    #[test]
    fn one_parser_per_kind_trims_and_treats_blank_as_unset() {
        let env = Env::from_pairs(&[
            ("SMS_JOBS", " 4 "),
            ("SMS_MAX_CYCLES", "-3"),
            ("SMS_FLEET_ATTEMPTS", "junk"),
            ("SMS_CLIENT_RETRIES", "many"),
            ("SMS_FLEET_COOLDOWN_MS", ""),
            ("SMS_CACHE_DIR", "  "),
            ("SMS_OUT", " run "),
            ("SMS_SERVE_ADDR", " 127.0.0.1:9 "),
            ("SMS_FLEET_BACKENDS", "a:1, ,b:2,"),
            ("HOME", "/root"),
        ]);
        assert_eq!(env.positive("SMS_JOBS"), Some(4));
        assert_eq!(env.positive("SMS_MAX_CYCLES"), None);
        assert_eq!(env.positive("SMS_FLEET_ATTEMPTS"), None);
        assert_eq!(env.non_negative("SMS_CLIENT_RETRIES"), None);
        let zero = Env::from_pairs(&[("SMS_CLIENT_RETRIES", "0")]);
        assert_eq!(zero.non_negative("SMS_CLIENT_RETRIES"), Some(0));
        assert_eq!(env.positive("SMS_FLEET_COOLDOWN_MS"), None);
        assert_eq!(env.path("SMS_CACHE_DIR"), None);
        assert_eq!(env.path("SMS_OUT"), Some(PathBuf::from("run")));
        assert_eq!(env.text("SMS_SERVE_ADDR"), Some("127.0.0.1:9"));
        assert_eq!(env.list("SMS_FLEET_BACKENDS"), ["a:1", "b:2"]);
        assert!(env.list("SMS_SCENES").is_empty());
        // Malformed integers warn with the variable and the value; blanks
        // and foreign variables do not.
        let vars: Vec<&str> = env.warnings.iter().map(|w| w.split(':').next().unwrap()).collect();
        assert_eq!(vars, ["SMS_MAX_CYCLES", "SMS_FLEET_ATTEMPTS", "SMS_CLIENT_RETRIES"]);
        assert!(env.warnings[1].contains("got `junk`"), "{:?}", env.warnings);
        assert!(env.warnings[1].contains("(4)"), "{:?}", env.warnings);
    }

    /// Every `SMS_*` token in `text`, in order of appearance.
    fn sms_tokens(text: &str) -> Vec<&str> {
        let is_word = |c: char| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_';
        text.match_indices("SMS_")
            .filter(|&(at, _)| !text[..at].ends_with(is_word))
            .map(|(at, _)| {
                let rest = &text[at..];
                &rest[..rest.find(|c| !is_word(c)).unwrap_or(rest.len())]
            })
            .collect()
    }

    /// The docs cannot drift: every `SMS_*` token they mention is declared,
    /// and the two `EXPERIMENTS.md` tables are the declarations — one row
    /// per name, in declaration order, default and reader columns equal.
    #[test]
    fn docs_name_only_declared_variables_and_tables_match_declarations() {
        let experiments = include_str!("../../../EXPERIMENTS.md");
        let docs = [
            ("EXPERIMENTS.md", experiments),
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
            ("ci.sh", include_str!("../../../ci.sh")),
        ];
        for (file, text) in docs {
            for token in sms_tokens(text) {
                // `SMS_FLEET_*` is a glob: it must prefix a declared name.
                let glob = token.ends_with('_');
                let declared = |d: &Decl| d.0 == token || glob && d.0.starts_with(token);
                assert!(DECLS.iter().any(declared), "{file} names undeclared {token}");
            }
        }
        let rows: Vec<Vec<&str>> = experiments
            .lines()
            .filter(|l| l.starts_with("| `SMS_"))
            .map(|l| l.split(" | ").collect())
            .collect();
        let row_names: Vec<&str> = rows.iter().map(|r| sms_tokens(r[0])[0]).collect();
        let decl_names: Vec<&str> = DECLS.iter().map(|d| d.0).collect();
        assert_eq!(row_names, decl_names, "one EXPERIMENTS.md row per declaration, in order");
        for (row, &(name, _, default, tier, _)) in rows.iter().zip(DECLS) {
            assert_eq!(row[1], default, "{name}: default column");
            assert_eq!(row[2], tier, "{name}: read-by column");
        }
    }
}
