//! Deterministic fault injection for chaos testing the serving stack.
//!
//! A [`FaultPlan`] is parsed from the `SMS_FAULT` environment variable (or an
//! explicit spec string in tests) and threaded by hand into the components it
//! torments: the serve accept and stream paths, the result cache and a backend
//! executor's simulate step. Decisions
//! are **counter-based, not random**: each fault site owns an atomic counter
//! and fires when `(count + seed) % every == 0`. That makes the *number* of
//! injected faults a pure function of the spec and the amount of traffic,
//! regardless of thread interleaving — seeded chaos tests reproduce.
//!
//! Spec grammar (clauses separated by `;`, arguments by `,`):
//!
//! ```text
//! seed=<n>                  offset every site counter by n (default 0)
//! kill:jobs=<k>             hard-kill the server after k finished jobs
//! drop_conn:every=<n>       drop every nth accepted connection unanswered
//! drop_stream:every=<n>     cut every nth streamed response mid-body
//! cache_truncate:every=<n>  truncate every nth cache entry as it is written
//! cache_corrupt:every=<n>   flip bytes in every nth cache entry written
//! sim_panic:every=<n>       panic inside every nth simulation, under its
//!                           permit (a model bug no request can provoke)
//! ```
//!
//! Example: `SMS_FAULT="seed=7;kill:jobs=2;drop_stream:every=3"`. Parsing
//! is strict: every clause takes exactly its own arguments, each once, as
//! plain decimal digits, and an `every` and a kill's `jobs` are at least 1.
//!
//! The entire layer is behind `Option<Arc<FaultPlan>>`: a `None` plan means
//! no fault code executes at all, so behaviour with injection off is
//! byte-identical to a build that never heard of this module.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What to do to a cache entry that is about to be written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheFault {
    /// Write only a prefix of the entry (simulates a torn write).
    Truncate,
    /// Flip bytes in the middle of the entry (simulates bit rot).
    Corrupt,
}

/// A parsed, seeded fault-injection plan. All counters are per-plan; share
/// one plan (via `Arc`) across every component that should observe the same
/// fault schedule.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    kill_after_jobs: Option<u64>,
    drop_conn_every: Option<u64>,
    drop_stream_every: Option<u64>,
    cache_truncate_every: Option<u64>,
    cache_corrupt_every: Option<u64>,
    sim_panic_every: Option<u64>,

    jobs_done: AtomicU64,
    conns: AtomicU64,
    streams: AtomicU64,
    cache_writes: AtomicU64,
    sims: AtomicU64,
    killed: AtomicBool,
}

impl FaultPlan {
    /// Parse a spec string. Returns a human-readable error for malformed
    /// specs; an empty spec is valid and injects nothing.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan {
            seed: 0,
            kill_after_jobs: None,
            drop_conn_every: None,
            drop_stream_every: None,
            cache_truncate_every: None,
            cache_corrupt_every: None,
            sim_panic_every: None,
            jobs_done: AtomicU64::new(0),
            conns: AtomicU64::new(0),
            streams: AtomicU64::new(0),
            cache_writes: AtomicU64::new(0),
            sims: AtomicU64::new(0),
            killed: AtomicBool::new(false),
        };
        for clause in spec.split(';').map(str::trim).filter(|c| !c.is_empty()) {
            // `seed=<n>` is the one clause without a `:`; everything after
            // its `=` must be the number.
            if let Some(seed) = clause.strip_prefix("seed=") {
                plan.seed = parse_u64("seed", seed)?;
                continue;
            }
            let (name, args) = match clause.split_once(':') {
                Some((n, a)) => (n.trim(), a.trim()),
                None => (clause, ""),
            };
            let every = || clause_args(name, args, ["every"]).map(|[every]| Some(every));
            match name {
                "seed" => return Err(format!("fault clause `{clause}`: expected seed=<n>")),
                "kill" => plan.kill_after_jobs = Some(clause_args(name, args, ["jobs"])?[0]),
                "drop_conn" => plan.drop_conn_every = every()?,
                "drop_stream" => plan.drop_stream_every = every()?,
                "cache_truncate" => plan.cache_truncate_every = every()?,
                "cache_corrupt" => plan.cache_corrupt_every = every()?,
                "sim_panic" => plan.sim_panic_every = every()?,
                other => {
                    return Err(format!(
                        "unknown fault clause `{other}` (expected kill, drop_conn, drop_stream, \
                         cache_truncate, cache_corrupt, sim_panic, seed=<n>)"
                    ));
                }
            }
        }
        Ok(plan)
    }

    /// The plan in `SMS_FAULT`. Unset or empty means no plan; a malformed
    /// spec warns once and is ignored (fail open: a bad chaos spec must
    /// never alter production behaviour).
    pub fn from_env(env: &sms_sim::Env) -> Option<Arc<FaultPlan>> {
        let spec = env.text("SMS_FAULT")?;
        let plan = FaultPlan::parse(spec).map_err(|err| {
            let msg = format!("ignoring SMS_FAULT={spec:?}: {err}");
            crate::log::warn("faultinject", &msg, &[("var", "SMS_FAULT")]);
        });
        plan.ok().map(Arc::new)
    }

    fn fires(&self, counter: &AtomicU64, every: Option<u64>) -> bool {
        let Some(every) = every else { return false };
        let n = counter.fetch_add(1, Ordering::Relaxed) + 1;
        (n + self.seed).is_multiple_of(every)
    }

    /// Accept path: should this freshly accepted connection be dropped on
    /// the floor without a response?
    pub fn should_drop_conn(&self) -> bool {
        self.fires(&self.conns, self.drop_conn_every)
    }

    /// Streaming path: should this streamed response be cut mid-body?
    pub fn should_drop_stream(&self) -> bool {
        self.fires(&self.streams, self.drop_stream_every)
    }

    /// Called once per finished job. Returns `true` when the kill budget is
    /// exhausted and the process should die *now* (also latches
    /// [`FaultPlan::killed`]).
    pub fn on_job_finished(&self) -> bool {
        let Some(k) = self.kill_after_jobs else {
            return false;
        };
        let n = self.jobs_done.fetch_add(1, Ordering::Relaxed) + 1;
        if n >= k {
            self.killed.store(true, Ordering::SeqCst);
            true
        } else {
            false
        }
    }

    /// Simulate path, under the simulation permit: should this run panic?
    pub fn sim_panics(&self) -> bool {
        self.fires(&self.sims, self.sim_panic_every)
    }

    /// Has the kill fault fired?
    pub fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Cache write path: what, if anything, to do to the entry bytes.
    /// Truncation takes precedence when both clauses fire on the same write.
    pub fn cache_write_fault(&self) -> Option<CacheFault> {
        if self.cache_truncate_every.is_none() && self.cache_corrupt_every.is_none() {
            return None;
        }
        let n = self.cache_writes.fetch_add(1, Ordering::Relaxed) + 1;
        let hits = |every: Option<u64>| every.is_some_and(|e| (n + self.seed).is_multiple_of(e));
        if hits(self.cache_truncate_every) {
            Some(CacheFault::Truncate)
        } else if hits(self.cache_corrupt_every) {
            Some(CacheFault::Corrupt)
        } else {
            None
        }
    }
}

/// A count in plain decimal digits: `u64::from_str` would also take a
/// leading `+`.
fn parse_u64(clause: &str, value: &str) -> Result<u64, String> {
    let value = value.trim();
    value
        .bytes()
        .all(|b| b.is_ascii_digit())
        .then(|| value.parse::<u64>().ok())
        .flatten()
        .ok_or_else(|| format!("fault clause `{clause}`: `{value}` is not a non-negative integer"))
}

/// The values of `keys`, in order, from a clause's `key=<n>,…` list: each
/// key exactly once and no other key. An `every` must be at least 1; 0
/// would never fire. A kill's `jobs` must be at least 1: the budget counts
/// finished jobs from the first, so 0 would read as 1.
fn clause_args<const N: usize>(
    clause: &str,
    args: &str,
    keys: [&str; N],
) -> Result<[u64; N], String> {
    let err = |what: String| format!("fault clause `{clause}`: {what}");
    let mut values = [None; N];
    for pair in args.split_terminator(',') {
        let (key, value) =
            pair.split_once('=').ok_or_else(|| err(format!("`{}` is not key=<n>", pair.trim())))?;
        let key = key.trim();
        let slot = keys
            .iter()
            .position(|&k| k == key)
            .ok_or_else(|| err(format!("unknown argument `{key}`")))?;
        if values[slot].is_some() {
            return Err(err(format!("argument `{key}` given twice")));
        }
        let n = parse_u64(clause, value)?;
        match (key, n) {
            ("every", 0) => return Err(err("every=0 never fires".to_owned())),
            ("jobs", 0) => return Err(err("jobs=0 is below the first finished job".to_owned())),
            _ => {}
        }
        values[slot] = Some(n);
    }
    let mut out = [0; N];
    for ((out, value), key) in out.iter_mut().zip(values).zip(keys) {
        *out = value.ok_or_else(|| err(format!("missing required argument `{key}=<n>`")))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_injects_nothing() {
        let plan = FaultPlan::parse("").unwrap();
        for _ in 0..64 {
            assert!(!plan.should_drop_conn());
            assert!(!plan.should_drop_stream());
            assert!(!plan.on_job_finished());
            assert!(plan.cache_write_fault().is_none());
            assert!(!plan.sim_panics());
        }
        assert!(!plan.killed());
    }

    #[test]
    fn parse_full_spec() {
        let plan = FaultPlan::parse(
            "seed=7; kill:jobs=5; drop_conn:every=4; drop_stream:every=3; \
             cache_truncate:every=2; cache_corrupt:every=2; sim_panic:every=6",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.kill_after_jobs, Some(5));
        assert_eq!(plan.drop_conn_every, Some(4));
        assert_eq!(plan.drop_stream_every, Some(3));
        assert_eq!(plan.cache_truncate_every, Some(2));
        assert_eq!(plan.cache_corrupt_every, Some(2));
        assert_eq!(plan.sim_panic_every, Some(6));
    }

    #[test]
    fn malformed_specs_error() {
        for (spec, clause) in [
            ("kill", "kill"),
            ("kill:jobs=x", "kill"),
            ("drop_stream", "drop_stream"),
            ("seed", "seed"),
            ("seed=abc", "seed"),
            ("frobnicate:every=1", "frobnicate"),
            // Text after a seed is not dropped, a `+` is not a digit, and a
            // clause takes exactly its own arguments, once each.
            ("seed=7:kill:jobs=1", "seed"),
            ("kill:jobs=+2", "kill"),
            ("drop_stream:every=3,everyx=1", "drop_stream"),
            ("kill:jobs=1,jobs=5", "kill"),
            ("drop_conn:every=0", "drop_conn"),
            ("kill:jobs=0", "kill"),
            // The straggler clause is retired: it is an unknown clause now.
            ("delay:every=3,ms=50", "delay"),
        ] {
            let err = FaultPlan::parse(spec).err().unwrap_or_else(|| panic!("`{spec}` parsed"));
            assert!(err.contains(&format!("`{clause}")), "`{spec}`: {err}");
        }
    }

    #[test]
    fn counter_firing_is_deterministic() {
        let plan = FaultPlan::parse("drop_conn:every=3").unwrap();
        let fired: Vec<bool> = (0..9).map(|_| plan.should_drop_conn()).collect();
        // 1-based counter, seed 0: fires on counts 3, 6, 9.
        assert_eq!(fired, vec![false, false, true, false, false, true, false, false, true]);
    }

    #[test]
    fn seed_offsets_the_schedule() {
        let plan = FaultPlan::parse("seed=1;drop_conn:every=3").unwrap();
        let fired: Vec<bool> = (0..6).map(|_| plan.should_drop_conn()).collect();
        // counts 1..: fires when (n + 1) % 3 == 0 => n = 2, 5.
        assert_eq!(fired, vec![false, true, false, false, true, false]);
    }

    #[test]
    fn kill_fires_once_budget_exhausted_and_latches() {
        let plan = FaultPlan::parse("kill:jobs=2").unwrap();
        assert!(!plan.on_job_finished());
        assert!(!plan.killed());
        assert!(plan.on_job_finished());
        assert!(plan.killed());
        // Stays killed for any further jobs.
        assert!(plan.on_job_finished());
        assert!(plan.killed());
    }

    /// Specs generated from the clause vocabulary (the retired `delay`
    /// too), then mangled: truncated at any byte, a `;`, `,` or `=` dropped
    /// or doubled, a sign or whitespace added, a number past `u64::MAX`.
    /// Parsing never panics, every refusal names a clause of the spec, and
    /// every accepted plan can fire: each `every` and the kill budget are
    /// at least 1.
    #[test]
    fn generated_specs_parse_or_name_a_clause() {
        use sms_sim::geom::check::{for_cases, Gen};
        const CLAUSES: [(&str, &[&str]); 8] = [
            ("kill", &["jobs"]),
            ("delay", &["every", "ms"]),
            ("drop_conn", &["every"]),
            ("drop_stream", &["every"]),
            ("cache_truncate", &["every"]),
            ("cache_corrupt", &["every"]),
            ("sim_panic", &["every"]),
            ("seed", &[]),
        ];
        for_cases(4_000, 37, |g| {
            let number = |g: &mut Gen| match g.int(0, 5) {
                0 => "18446744073709551616".to_owned(),
                1 => u64::MAX.to_string(),
                _ => g.int(0, 3).to_string(),
            };
            let mut clauses = Vec::new();
            for _ in 0..g.size(0, 4) {
                let (name, keys) = CLAUSES[g.int(0, CLAUSES.len() - 1)];
                if name == "seed" {
                    clauses.push(format!("seed={}", number(g)));
                    continue;
                }
                let args: Vec<String> =
                    keys.iter().map(|key| format!("{key}={}", number(g))).collect();
                clauses.push(format!("{name}:{}", args.join(",")));
            }
            let mut spec = clauses.join(";").into_bytes();
            for _ in 0..g.int(0, 3) {
                match g.int(0, 3) {
                    0 => spec.truncate(g.int(0, spec.len())),
                    1 | 2 => {
                        let sep = [b';', b',', b'='][g.int(0, 2)];
                        let seps: Vec<usize> =
                            (0..spec.len()).filter(|&i| spec[i] == sep).collect();
                        if let Some(&i) = seps.get(g.int(0, seps.len())) {
                            if g.chance(0.5) {
                                spec.remove(i);
                            } else {
                                spec.insert(i, sep);
                            }
                        }
                    }
                    _ => {
                        let junk = [b'+', b'-', b' ', b'\t'][g.int(0, 3)];
                        let i = g.int(0, spec.len());
                        spec.insert(i, junk);
                    }
                }
            }
            let spec = String::from_utf8(spec).expect("the generator writes ASCII");
            match FaultPlan::parse(&spec) {
                Ok(plan) => {
                    let every = [
                        plan.drop_conn_every,
                        plan.drop_stream_every,
                        plan.cache_truncate_every,
                        plan.cache_corrupt_every,
                        plan.sim_panic_every,
                    ];
                    assert!(every.iter().all(|e| e.is_none_or(|e| e >= 1)), "`{spec}`: {every:?}");
                    let kill = plan.kill_after_jobs;
                    assert!(kill.is_none_or(|k| k >= 1), "`{spec}`: kill budget {kill:?}");
                }
                Err(err) => {
                    let named =
                        err.split_once("clause `").and_then(|(_, rest)| rest.split_once('`'));
                    let named = named.map_or("", |(name, _)| name);
                    assert!(!named.is_empty() && spec.contains(named), "`{spec}`: {err}");
                }
            }
        });
    }

    #[test]
    fn cache_faults_share_one_counter_truncate_wins() {
        let plan = FaultPlan::parse("cache_truncate:every=2;cache_corrupt:every=3").unwrap();
        let faults: Vec<Option<CacheFault>> = (0..6).map(|_| plan.cache_write_fault()).collect();
        assert_eq!(
            faults,
            vec![
                None,
                Some(CacheFault::Truncate), // n=2
                Some(CacheFault::Corrupt),  // n=3
                Some(CacheFault::Truncate), // n=4
                None,
                Some(CacheFault::Truncate), // n=6 (both fire; truncate wins)
            ]
        );
    }
}
