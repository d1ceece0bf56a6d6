//! Crash-safe sweep resume from a prior run's journal.
//!
//! `SMS_RESUME=<journal.jsonl>` points a new sweep at the JSONL journal a
//! killed (or partially failed) sweep left behind. [`ResumeState::load`]
//! replays it: `job_queued` lines map per-batch job ids to canonical cache
//! keys, and `job_finished` lines carrying a `stats` payload mark those
//! keys completed. A new batch then serves matching requests straight from
//! the resume state (journalled as `job_resumed`) and re-executes only the
//! unfinished ones — `run_failed` / `run_timeout` jobs never enter the
//! completed set, so they are retried.
//!
//! The parser is deliberately tolerant: a journal truncated mid-line by a
//! crash, foreign lines, or events from older schema versions are skipped,
//! never fatal. Keys embed the simulator version salt, so a resume file
//! from a different simulator version simply matches nothing.

use crate::cache::{stats_from_json, CacheKey};
use crate::json::parse;
use sms_sim::gpu::SimStats;
use std::collections::HashMap;
use std::path::Path;

/// Completed runs recovered from a previous journal, keyed by canonical
/// cache key.
#[derive(Debug, Default, Clone)]
pub struct ResumeState {
    completed: HashMap<String, SimStats>,
}

impl ResumeState {
    /// Parses a JSONL journal, collecting every finished run that carries
    /// a stats payload. Unreadable files yield an empty state (with a
    /// warning); malformed lines are skipped.
    pub fn load(path: &Path) -> Self {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                crate::log::warn(
                    "resume",
                    &format!("SMS_RESUME: cannot read {}: {e} — starting fresh", path.display()),
                    &[("var", "SMS_RESUME")],
                );
                return ResumeState::default();
            }
        };
        let mut completed = HashMap::new();
        // Job ids are scoped to one batch; keys are global.
        let mut key_of_job: HashMap<u64, String> = HashMap::new();
        for line in text.lines() {
            let Ok(doc) = parse(line) else { continue };
            match doc.get("event").and_then(|e| e.as_str()) {
                Some("batch_start") => key_of_job.clear(),
                Some("job_queued") => {
                    let (Some(job), Some(key)) =
                        (doc.u64_field("job"), doc.get("key").and_then(|k| k.as_str()))
                    else {
                        continue;
                    };
                    key_of_job.insert(job, key.to_owned());
                }
                Some("job_finished") => {
                    let Some(job) = doc.u64_field("job") else { continue };
                    let Some(key) = key_of_job.get(&job) else { continue };
                    let Some(stats) = doc.get("stats").and_then(stats_from_json) else { continue };
                    completed.insert(key.clone(), stats);
                }
                _ => {}
            }
        }
        ResumeState { completed }
    }

    /// The stats of a completed run with this key, if the journal has one.
    pub fn lookup(&self, key: &CacheKey) -> Option<SimStats> {
        self.completed.get(&key.canonical).copied()
    }

    /// Number of completed runs recovered.
    pub fn len(&self) -> usize {
        self.completed.len()
    }

    /// `true` when the journal yielded nothing to resume from.
    pub fn is_empty(&self) -> bool {
        self.completed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::fnv1a64;

    fn key(canonical: &str) -> CacheKey {
        CacheKey { canonical: canonical.to_owned(), hash: fnv1a64(canonical.as_bytes()) }
    }

    #[test]
    fn replays_finished_runs_and_skips_junk() {
        let dir = std::env::temp_dir().join(format!("sms-resume-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let journal = concat!(
            r#"{"event":"batch_start","jobs":3,"unique":3,"workers":2}"#,
            "\n",
            r#"{"event":"job_queued","job":0,"scene":"A","config":"c","workload":"w","key":"k0"}"#,
            "\n",
            r#"{"event":"job_queued","job":1,"scene":"B","config":"c","workload":"w","key":"k1"}"#,
            "\n",
            r#"{"event":"job_finished","job":0,"worker":0,"cache":"miss","cycles":5,"duration_us":1,"stats":{"cycles":5,"thread_instructions":0,"node_visits":0,"rays_traced":0,"shadow_rays":0,"rb_spills":0,"rb_reloads":0,"sh_spills":0,"sh_reloads":0,"ra_flushes":0,"ra_borrows":0,"mem":{"l1_hits":0,"l1_misses":0,"l2_hits":0,"l2_misses":0,"stores":0,"stack_transactions":0,"stack_l1_hits":0,"stack_l1_misses":0,"data_transactions":0,"shared_accesses":0,"bank_conflict_cycles":0}}}"#,
            "\n",
            r#"{"event":"run_failed","job":1,"worker":1,"kind":"panic","error":"x","duration_us":1}"#,
            "\n",
            "{\"event\":\"job_finished\",\"job\":2,\"worker\":0,\"cache\":\"mi", // truncated by a crash
        );
        std::fs::write(&path, journal).unwrap();
        let state = ResumeState::load(&path);
        assert_eq!(state.len(), 1);
        assert_eq!(state.lookup(&key("k0")).map(|s| s.cycles), Some(5));
        assert_eq!(state.lookup(&key("k1")), None, "failed jobs must re-execute");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_file_is_empty_state() {
        let state = ResumeState::load(Path::new("/nonexistent/journal.jsonl"));
        assert!(state.is_empty());
    }

    #[test]
    fn journal_written_through_sink_survives_truncated_tail() {
        // The durability contract end to end: events written through the
        // real `Journal` file sink (one flushed `write_all` per line), the
        // process is then "killed" mid-write — simulated by truncating the
        // file inside the final line — and the replayer must still recover
        // every fully-written event.
        use crate::journal::{Event, Journal};
        use sms_sim::gpu::SimStats;

        let dir = std::env::temp_dir().join(format!("sms-durab-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        {
            let j = Journal::new(Some(path.clone()), false);
            j.record(Event::BatchStart { jobs: 2, unique: 2, workers: 1 });
            for (job, key) in [(0usize, "k0"), (1, "k1")] {
                j.record(Event::JobQueued {
                    job,
                    scene: "A".to_owned(),
                    config: "c".to_owned(),
                    workload: "w".to_owned(),
                    key: key.to_owned(),
                });
                j.record(Event::JobFinished {
                    job,
                    worker: Some(0),
                    cache_hit: false,
                    cycles: 5,
                    duration_us: 1,
                    stats: Some(SimStats { cycles: 5, ..Default::default() }),
                    breakdown: None,
                });
            }
            j.flush();
        }
        // SIGKILL mid-line: chop the file 20 bytes into the last line.
        let text = std::fs::read_to_string(&path).unwrap();
        let last_line_start = text.trim_end().rfind('\n').unwrap() + 1;
        std::fs::write(&path, &text.as_bytes()[..last_line_start + 20]).unwrap();

        let state = ResumeState::load(&path);
        assert_eq!(state.len(), 1, "only the truncated line may be lost");
        assert_eq!(state.lookup(&key("k0")).map(|s| s.cycles), Some(5));
        assert_eq!(state.lookup(&key("k1")), None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
