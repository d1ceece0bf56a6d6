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
//! Config labels are parsed by `StackConfig`'s `FromStr`, the exact
//! inverse of [`StackConfig::label`] — `RB_8`, `RB_FULL`, `RB_8+SH_8+SK+RA`
//! — so the strings clients send are the strings every table already
//! prints, and its error text is what a 4xx body carries.

use sms_harness::json::{parse, Json};
use sms_harness::RunRequest;
use sms_sim::config::RenderConfig;
use sms_sim::gpu::{GpuConfig, SimStats};
use sms_sim::rtunit::StackConfig;
use sms_sim::scene::SceneId;

/// Parses a render-mode name into the workload configuration.
pub fn parse_render(name: &str) -> Result<RenderConfig, String> {
    match name {
        "fast" => Ok(RenderConfig::fast()),
        "tiny" => Ok(RenderConfig::tiny()),
        "paper" => Ok(RenderConfig::paper()),
        other => Err(format!("unknown render mode `{other}` (expected fast, tiny or paper)")),
    }
}

/// The `/v1/sweep` body [`parse_sweep`] reads: the three fields in this
/// order. Built as a `Json` value, so a label holding `"` or `\` is escaped
/// and reaches the server's label check intact.
pub fn sweep_body(scenes: &[&str], configs: &[&str], render: &str) -> String {
    let list = |xs: &[&str]| Json::Arr(xs.iter().map(|x| Json::Str((*x).to_owned())).collect());
    let body = Json::Obj(vec![
        ("scenes".to_owned(), list(scenes)),
        ("configs".to_owned(), list(configs)),
        ("render".to_owned(), Json::Str(render.to_owned())),
    ]);
    body.to_string()
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

/// Parses and validates a sweep body: `scenes`, `configs` and an optional
/// `render`, each once; every label must parse; 1 to `max_jobs` cells.
pub fn parse_sweep(body: &[u8], max_jobs: usize) -> Result<SweepRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
    let doc = parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?;
    let Json::Obj(fields) = &doc else { return Err("body must be a JSON object".to_owned()) };
    for (i, (key, _)) in fields.iter().enumerate() {
        if !["scenes", "configs", "render"].contains(&key.as_str()) {
            return Err(format!("unknown field `{key}`"));
        }
        if fields[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate field `{key}`"));
        }
    }
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
        strings("configs")?.iter().map(|s| s.parse()).collect::<Result<_, _>>()?;
    let gpu = GpuConfig::default();
    for stack in &configs {
        let carve = stack.shared_carveout(gpu.max_warps_per_rt_unit);
        if !gpu.fits_shared_carveout(carve) {
            return Err(format!(
                "config `{stack}` carves {carve}B of SH stacks out of the {}B unified \
                 L1/shared array, leaving no L1D",
                gpu.unified_bytes
            ));
        }
    }
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
            configs.iter().map(move |&stack| RunRequest::new(id, stack, render).with_gpu(gpu))
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
    /// Parses a JSONL response body. Malformed lines, and a job queued or
    /// settled twice, are errors — the server promises a strict
    /// journal-codec stream; a line with an unknown event tag passes.
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
                "job_queued" => {
                    let job = field("job")?;
                    if queued.iter().any(|(j, ..)| *j == job) {
                        return Err(format!("job {job} queued twice"));
                    }
                    queued.push((
                        job,
                        text_field("scene")?,
                        text_field("config")?,
                        text_field("key")?,
                    ));
                }
                "job_finished" | "run_failed" | "run_timeout" => {
                    let job = field("job")?;
                    if out.records.iter().any(|r| r.job == job) {
                        return Err(format!("job {job} settled twice"));
                    }
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
            assert_eq!(config.label().parse(), Ok(config), "{}", config.label());
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
            // `str::parse` takes a sign and leading zeros; a label has neither
            // (a `+` inside `RB_` / `SH_` is also the separator).
            "RB_+8",
            "RB_08",
            "RB_8+SH_+8",
            "RB_8+SH_08",
            "PRED_+12",
        ] {
            assert!(bad.parse::<StackConfig>().is_err(), "`{bad}` should not parse");
        }
    }

    /// Labels generated from the grammar (`RB_n`, `RB_FULL`, `+SH_m`, `+SK`,
    /// `+RA`, `SL`, `PRED_b`), then mangled: a sign or leading zero on a
    /// count, a truncation at any byte, a doubled or dropped `+`, swapped
    /// suffixes, lower case, counts past `u32::MAX`. Parsing never panics,
    /// an accepted string is byte for byte the label of its parse, and a
    /// refusal quotes the input.
    #[test]
    fn generated_labels_parse_to_themselves_or_are_quoted() {
        use sms_sim::geom::check::{for_cases, Gen};
        let count = |g: &mut Gen| match g.int(0, 9) {
            0..=3 => ["0", "4294967295", "4294967296", "99999999999999999999"][g.int(0, 3)].into(),
            _ => g.int(1, 24).to_string(),
        };
        // A byte index of one of the `c`s in `label`, if it has one.
        let pick = |g: &mut Gen, label: &str, c: char| {
            let at: Vec<usize> = label.match_indices(c).map(|(i, _)| i).collect();
            at.get(g.int(0, at.len())).copied()
        };
        for_cases(10_000, 38, |g| {
            let mut label = match g.int(0, 4) {
                0 => "SL".to_owned(),
                1 => format!("PRED_{}", count(g)),
                2 => "RB_FULL".to_owned(),
                3 => format!("RB_{}", count(g)),
                _ => format!("RB_{}+SH_{}", count(g), count(g)),
            } + ["", "+SK", "+RA", "+SK+RA"][g.int(0, 3)];
            for _ in 0..g.int(0, 3) {
                match g.int(0, 5) {
                    0 => {
                        if let Some(i) = pick(g, &label, '_') {
                            label.insert(i + 1, ['+', '-', '0'][g.int(0, 2)]);
                        }
                    }
                    1 => label.truncate(g.int(0, label.len())),
                    2 => match pick(g, &label, '+') {
                        Some(i) if g.chance(0.5) => drop(label.remove(i)),
                        Some(i) => label.insert(i, '+'),
                        None => {}
                    },
                    3 => label = label.replace("+SK+RA", "+RA+SK").replace("+SH_", "+SK+SH_"),
                    4 => label.make_ascii_lowercase(),
                    _ => label += &count(g),
                }
            }
            match label.parse::<StackConfig>() {
                Ok(config) => assert_eq!(config.label(), label, "`{label}` is not its label"),
                Err(err) => assert!(err.contains(&format!("`{label}`")), "`{label}`: {err}"),
            }
        });
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
        // A config the request's GPU cannot hold is refused by label, not
        // run into the carve-out assertion on every cell.
        let err =
            parse_sweep(br#"{"scenes":["SHIP"],"configs":["RB_8","RB_8+SH_64"]}"#, 10).unwrap_err();
        assert!(err.contains("`RB_8+SH_64`") && err.contains("leaving no L1D"), "{err}");
        assert!(parse_sweep(br#"{"scenes":["SHIP"],"configs":["RB_8+SH_63+SK+RA"]}"#, 10).is_ok());
        // A misspelt or repeated key is refused by name, not ignored.
        for (body, want) in [
            (
                &br#"{"scenes":["WKND"],"configs":["RB_8"],"rendr":"tiny"}"#[..],
                "unknown field `rendr`",
            ),
            (
                br#"{"scenes":["WKND"],"configs":["RB_8"],"scenes":["SHIP"]}"#,
                "duplicate field `scenes`",
            ),
            (
                br#"{"scenes":["WKND"],"configs":["RB_8"],"render":"tiny","render":"fast"}"#,
                "duplicate field `render`",
            ),
            (br#"["WKND"]"#, "JSON object"),
        ] {
            let err = parse_sweep(body, 10).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
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

    /// One record per job: no tier queues or settles a job twice, so a
    /// stream that does is refused by job id, not read as two records.
    #[test]
    fn a_job_queued_or_settled_twice_is_an_error() {
        let queued = r#"{"event":"job_queued","job":0,"scene":"WKND","config":"RB_8","key":"k0"}"#;
        let failed = r#"{"event":"run_failed","job":0,"error":"boom"}"#;
        let timeout = r#"{"event":"run_timeout","job":0,"error":"slow"}"#;
        let info = r#"{"event":"span","name":"dispatch"}"#;
        let records =
            |lines: &[&str]| SweepOutcome::parse(&lines.join("\n")).map(|o| o.records.len());
        assert_eq!(records(&[queued, info, failed]), Ok(1));
        assert_eq!(records(&[queued, queued, failed]), Err("job 0 queued twice".to_owned()));
        assert_eq!(records(&[queued, failed, failed]), Err("job 0 settled twice".to_owned()));
        assert_eq!(records(&[queued, failed, timeout]), Err("job 0 settled twice".to_owned()));
    }
}
