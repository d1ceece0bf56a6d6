//! Deterministic fault injection for chaos testing the serving stack.
//!
//! A [`FaultPlan`] is parsed from the `SMS_FAULT` environment variable (or an
//! explicit spec string in tests) and threaded by hand into the components it
//! torments: the serve accept/respond paths, the result cache and a backend
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
//! delay:every=<n>,ms=<m>    stall every nth response by m milliseconds
//! drop_conn:every=<n>       drop every nth accepted connection unanswered
//! drop_stream:every=<n>     cut every nth streamed response mid-body
//! cache_truncate:every=<n>  truncate every nth cache entry as it is written
//! cache_corrupt:every=<n>   flip bytes in every nth cache entry written
//! sim_panic:every=<n>       panic inside every nth simulation, under its
//!                           permit (a model bug no request can provoke)
//! ```
//!
//! Example: `SMS_FAULT="seed=7;kill:jobs=2;delay:every=3,ms=50"`. Parsing
//! is strict: every clause takes exactly its own arguments, each once, as
//! plain decimal digits, and an `every` is at least 1.
//!
//! The entire layer is behind `Option<Arc<FaultPlan>>`: a `None` plan means
//! no fault code executes at all, so behaviour with injection off is
//! byte-identical to a build that never heard of this module.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

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
    delay_every: Option<u64>,
    delay_ms: u64,
    drop_conn_every: Option<u64>,
    drop_stream_every: Option<u64>,
    cache_truncate_every: Option<u64>,
    cache_corrupt_every: Option<u64>,
    sim_panic_every: Option<u64>,

    jobs_done: AtomicU64,
    responses: AtomicU64,
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
            delay_every: None,
            delay_ms: 0,
            drop_conn_every: None,
            drop_stream_every: None,
            cache_truncate_every: None,
            cache_corrupt_every: None,
            sim_panic_every: None,
            jobs_done: AtomicU64::new(0),
            responses: AtomicU64::new(0),
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
                "delay" => {
                    let [every, ms] = clause_args(name, args, ["every", "ms"])?;
                    (plan.delay_every, plan.delay_ms) = (Some(every), ms);
                }
                "drop_conn" => plan.drop_conn_every = every()?,
                "drop_stream" => plan.drop_stream_every = every()?,
                "cache_truncate" => plan.cache_truncate_every = every()?,
                "cache_corrupt" => plan.cache_corrupt_every = every()?,
                "sim_panic" => plan.sim_panic_every = every()?,
                other => {
                    return Err(format!(
                        "unknown fault clause `{other}` (expected kill, delay, drop_conn, \
                         drop_stream, cache_truncate, cache_corrupt, sim_panic, seed=<n>)"
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

    /// Respond path: how long should this response stall before being
    /// written, if at all? (Creates deterministic stragglers for hedging.)
    pub fn respond_delay(&self) -> Option<Duration> {
        if self.fires(&self.responses, self.delay_every) {
            Some(Duration::from_millis(self.delay_ms))
        } else {
            None
        }
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
/// would never fire.
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
        if key == "every" && n == 0 {
            return Err(err("every=0 never fires".to_owned()));
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
            assert!(plan.respond_delay().is_none());
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
            "seed=7; kill:jobs=5; delay:every=3,ms=50; drop_conn:every=4; \
             drop_stream:every=3; cache_truncate:every=2; cache_corrupt:every=2; \
             sim_panic:every=6",
        )
        .unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.kill_after_jobs, Some(5));
        assert_eq!(plan.delay_every, Some(3));
        assert_eq!(plan.delay_ms, 50);
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
            ("delay:every=3", "delay"),
            ("seed", "seed"),
            ("seed=abc", "seed"),
            ("frobnicate:every=1", "frobnicate"),
            // Text after a seed is not dropped, a `+` is not a digit, and a
            // clause takes exactly its own arguments, once each.
            ("seed=7:kill:jobs=1", "seed"),
            ("kill:jobs=+2", "kill"),
            ("delay:every=3,ms=50,msx=1", "delay"),
            ("kill:jobs=1,jobs=5", "kill"),
            ("drop_conn:every=0", "drop_conn"),
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

    #[test]
    fn delay_returns_configured_duration() {
        let plan = FaultPlan::parse("delay:every=2,ms=40").unwrap();
        assert!(plan.respond_delay().is_none());
        assert_eq!(plan.respond_delay(), Some(Duration::from_millis(40)));
        assert!(plan.respond_delay().is_none());
        assert_eq!(plan.respond_delay(), Some(Duration::from_millis(40)));
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
