//! The wire protocol: sweep-request JSON in, journal-event JSONL out.
//!
//! A sweep request is the JSON cross-product form every figure harness
//! uses internally:
//!
//! ```json
//! {"scenes":["SHIP","WKND"],"configs":["RB_8","RB_8+SH_8+SK+RA"],"render":"tiny"}
//! ```
//!
//! The response stream deliberately *is* the journal codec: one
//! [`sms_harness::Event`]-shaped JSON line per record (`job_queued`,
//! `job_finished`, `run_failed`/`run_timeout`, then a closing `batch_end`), so a saved
//! response body is a valid journal that [`SweepOutcome::parse`] reads and
//! every existing journal tool parses unchanged.
//!
//! Config labels are parsed by [`parse_stack_config`], the exact inverse
//! of [`StackConfig::label`] — `RB_8`, `RB_FULL`, `RB_8+SH_8+SK+RA` — so
//! the strings clients send are the strings every table already prints.

use sms_harness::json::{parse, Json};
use sms_harness::RunRequest;
use sms_sim::config::RenderConfig;
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

/// Parses a `StackConfig` label: the inverse of [`StackConfig::label`]
/// (its `FromStr`; the error text is what a 4xx body carries).
pub fn parse_stack_config(label: &str) -> Result<StackConfig, String> {
    label.parse()
}

/// Parses a render-mode name into the workload configuration.
pub fn parse_render(name: &str) -> Result<RenderConfig, String> {
    match name {
        "fast" => Ok(RenderConfig::fast()),
        "tiny" => Ok(RenderConfig::tiny()),
        "paper" => Ok(RenderConfig::paper()),
        other => Err(format!("unknown render mode `{other}` (expected fast, tiny or paper)")),
    }
}

/// A parsed `/v1/sweep` body: the deduplicatable request list plus the
/// render mode it was built with (echoed in probes and labels).
#[derive(Debug, Clone)]
pub struct SweepRequest {
    /// One request per `(scene, config)` cell, scene-major — the same
    /// order `Harness::run_suite` uses.
    pub requests: Vec<RunRequest>,
    /// The render mode name as sent (`fast`, `tiny`, `paper`).
    pub render_name: String,
}

/// Parses and validates a sweep body. Every scene and config label must
/// parse; the cross-product must be non-empty and at most `max_jobs`.
pub fn parse_sweep(body: &[u8], max_jobs: usize) -> Result<SweepRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let strings = |field: &str| -> Result<Vec<String>, String> {
        match doc.get(field) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| {
                    v.as_str()
                        .map(str::to_owned)
                        .ok_or_else(|| format!("`{field}` entries must be strings"))
                })
                .collect(),
            Some(_) => Err(format!("`{field}` must be an array of strings")),
            None => Err(format!("missing field `{field}`")),
        }
    };
    let scenes: Vec<SceneId> = strings("scenes")?
        .iter()
        .map(|s| s.parse::<SceneId>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let configs: Vec<StackConfig> =
        strings("configs")?.iter().map(|s| parse_stack_config(s)).collect::<Result<_, _>>()?;
    let render_name = match doc.get("render") {
        None => "fast".to_owned(),
        Some(v) => {
            v.as_str().map(str::to_owned).ok_or_else(|| "`render` must be a string".to_owned())?
        }
    };
    let render = parse_render(&render_name)?;
    if scenes.is_empty() || configs.is_empty() {
        return Err("sweep needs at least one scene and one config".to_owned());
    }
    let jobs = scenes.len() * configs.len();
    if jobs > max_jobs {
        return Err(format!("sweep of {jobs} jobs exceeds the per-request limit of {max_jobs}"));
    }
    let requests = scenes
        .iter()
        .flat_map(|&id| {
            configs.iter().map(move |&stack| {
                RunRequest::new(id, stack, render).with_gpu(GpuConfig::default())
            })
        })
        .collect();
    Ok(SweepRequest { requests, render_name })
}

/// One client-side record of a finished job, joined from the stream's
/// `job_queued` + `job_finished`/`run_failed`/`run_timeout` lines.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Server-side job id (unique within the response).
    pub job: u64,
    /// Scene name.
    pub scene: String,
    /// Stack-config label.
    pub config: String,
    /// `hit`, `miss` — or `shared` for a single-flight follower.
    pub cache: String,
    /// The run's stats, or the failure diagnostic.
    pub outcome: Result<SimStats, String>,
}

/// A fully parsed `/v1/sweep` response stream.
#[derive(Debug, Clone, Default)]
pub struct SweepOutcome {
    /// One record per job, in stream order.
    pub records: Vec<JobRecord>,
    /// The closing `batch_end` line, if the stream completed.
    pub summary: Option<Json>,
}

impl SweepOutcome {
    /// Parses a JSONL response body. Unknown or malformed lines are
    /// errors — the server promises a strict journal-codec stream.
    pub fn parse(text: &str) -> Result<SweepOutcome, String> {
        let mut out = SweepOutcome::default();
        let mut queued: Vec<(u64, String, String, String)> = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let doc = parse(line).map_err(|e| format!("bad stream line: {e} in `{line}`"))?;
            let event = doc
                .get("event")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("stream line without event tag: `{line}`"))?;
            let field = |name: &str| {
                doc.u64_field(name).ok_or_else(|| format!("`{event}` line missing `{name}`"))
            };
            let text_field = |name: &str| {
                doc.get(name)
                    .and_then(Json::as_str)
                    .map(str::to_owned)
                    .ok_or_else(|| format!("`{event}` line missing `{name}`"))
            };
            match event {
                "job_queued" => queued.push((
                    field("job")?,
                    text_field("scene")?,
                    text_field("config")?,
                    text_field("key")?,
                )),
                "job_finished" | "run_failed" | "run_timeout" => {
                    let job = field("job")?;
                    let (scene, config) = queued
                        .iter()
                        .find(|(j, ..)| *j == job)
                        .map(|(_, s, c, _)| (s.clone(), c.clone()))
                        .ok_or_else(|| format!("job {job} finished but was never queued"))?;
                    let record = if event == "job_finished" {
                        let stats = doc
                            .get("stats")
                            .and_then(sms_harness::cache::stats_from_json)
                            .ok_or_else(|| format!("job {job} finished without stats"))?;
                        JobRecord {
                            job,
                            scene,
                            config,
                            cache: text_field("cache")?,
                            outcome: Ok(stats),
                        }
                    } else {
                        JobRecord {
                            job,
                            scene,
                            config,
                            cache: "miss".to_owned(),
                            outcome: Err(text_field("error")?),
                        }
                    };
                    out.records.push(record);
                }
                "batch_end" => out.summary = Some(doc),
                // Forward-compatible: informational lines pass through.
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sms_sim::rtunit::SmsParams;

    #[test]
    fn stack_config_labels_roundtrip() {
        for config in [
            StackConfig::baseline8(),
            StackConfig::Baseline { rb_entries: 2 },
            StackConfig::FullOnChip,
            StackConfig::sms_default(),
            StackConfig::Sms(SmsParams::default()),
            StackConfig::Sms(SmsParams::default().with_skewed(true)),
            StackConfig::Sms(SmsParams::default().with_realloc(true)),
            StackConfig::Sms(SmsParams { rb_entries: 4, sh_entries: 16, ..SmsParams::default() }),
            StackConfig::Stackless,
            StackConfig::predictor_default(),
            StackConfig::Predictor { table_bits: 8 },
        ] {
            assert_eq!(parse_stack_config(&config.label()), Ok(config), "{}", config.label());
        }
    }

    #[test]
    fn malformed_labels_are_rejected() {
        for bad in [
            "",
            "RB_0",
            "RB_x",
            "SH_8",
            "RB_8+SK",
            "RB_8+SH_8+RA+SK",
            "RB_8+SH_8+XX",
            "RB_FULL+SK",
            "SL+SK",
            "PRED_0",
            "PRED_64",
            "PRED_x",
            "PRED_",
        ] {
            assert!(parse_stack_config(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn sweep_body_parses_cross_product_in_suite_order() {
        let body = br#"{"scenes":["SHIP","WKND"],"configs":["RB_8","RB_FULL"],"render":"tiny"}"#;
        let sweep = parse_sweep(body, 100).unwrap();
        assert_eq!(sweep.requests.len(), 4);
        let cell = |i: usize| (sweep.requests[i].scene.name(), sweep.requests[i].stack.label());
        assert_eq!(cell(0), ("SHIP", "RB_8".to_owned()));
        assert_eq!(cell(1), ("SHIP", "RB_FULL".to_owned()));
        assert_eq!(cell(2), ("WKND", "RB_8".to_owned()));
        assert_eq!(cell(3), ("WKND", "RB_FULL".to_owned()));
        assert_eq!(sweep.requests[0].render, RenderConfig::tiny());
        assert_eq!(sweep.render_name, "tiny");
    }

    #[test]
    fn sweep_body_rejections() {
        let over = br#"{"scenes":["SHIP","WKND"],"configs":["RB_8","RB_FULL"]}"#;
        assert!(parse_sweep(over, 3).unwrap_err().contains("exceeds"));
        assert!(parse_sweep(b"{}", 10).unwrap_err().contains("missing field"));
        assert!(parse_sweep(b"not json", 10).unwrap_err().contains("JSON"));
        assert!(parse_sweep(br#"{"scenes":["NOPE"],"configs":["RB_8"]}"#, 10).is_err());
        assert!(parse_sweep(br#"{"scenes":["SHIP"],"configs":["RB_nope"]}"#, 10).is_err());
        assert!(parse_sweep(br#"{"scenes":[],"configs":["RB_8"]}"#, 10).is_err());
        assert!(
            parse_sweep(br#"{"scenes":["SHIP"],"configs":["RB_8"],"render":"huge"}"#, 10).is_err()
        );
        assert!(parse_sweep(&[0xff, 0xfe], 10).unwrap_err().contains("UTF-8"));
    }

    #[test]
    fn stream_roundtrip_including_failures() {
        let stream = concat!(
            r#"{"event":"job_queued","job":0,"scene":"WKND","config":"RB_8","workload":"16x16x1","key":"k0"}"#,
            "\n",
            r#"{"event":"job_queued","job":1,"scene":"SHIP","config":"RB_8","workload":"16x16x1","key":"k1"}"#,
            "\n",
            r#"{"event":"job_finished","job":0,"worker":0,"cache":"hit","cycles":5,"duration_us":1,"stats":{"cycles":5,"thread_instructions":0,"node_visits":0,"rays_traced":0,"shadow_rays":0,"rb_spills":0,"rb_reloads":0,"sh_spills":0,"sh_reloads":0,"ra_flushes":0,"ra_borrows":0,"mem":{"l1_hits":0,"l1_misses":0,"l2_hits":0,"l2_misses":0,"stores":0,"stack_transactions":0,"stack_l1_hits":0,"stack_l1_misses":0,"data_transactions":0,"shared_accesses":0,"bank_conflict_cycles":0}},"breakdown":null}"#,
            "\n",
            r#"{"event":"run_failed","job":1,"worker":0,"kind":"panic","error":"boom","duration_us":2}"#,
            "\n",
            r#"{"event":"batch_end","jobs":2,"cache_hits":1,"cache_misses":1,"failed":1,"duration_us":3,"sim_cycles":5,"runs_per_sec":0,"sim_cycles_per_sec":0,"breakdown":null,"metrics":null}"#,
            "\n",
        );
        let outcome = SweepOutcome::parse(stream).unwrap();
        assert_eq!(outcome.records.len(), 2);
        assert_eq!(outcome.records[0].scene, "WKND");
        assert_eq!(outcome.records[0].cache, "hit");
        assert_eq!(outcome.records[0].outcome.as_ref().unwrap().cycles, 5);
        assert_eq!(outcome.records[1].outcome.as_ref().unwrap_err(), "boom");
        let summary = outcome.summary.unwrap();
        assert_eq!(summary.u64_field("failed"), Some(1));
    }

    #[test]
    fn truncated_stream_is_an_error() {
        assert!(SweepOutcome::parse("{\"event\":\"job_que").is_err());
        assert!(SweepOutcome::parse("{\"event\":\"job_finished\",\"job\":9}").is_err());
    }
}
