//! Opt-in time-series trace export (Chrome trace-event / Perfetto JSON).
//!
//! A [`TraceSpec`] (`SMS_TRACE=1`, read at the process edge, writes
//! `<scene>.<config>.<id>.trace.json` into the `SMS_OUT` run directory) arms
//! the cycle-attribution layer and makes the simulator emit a trace file
//! loadable in Perfetto or `chrome://tracing`:
//!
//! * one *process* per SM with one *thread* per RT-unit warp slot, carrying
//!   a `ph:"X"` slice for every warp residency (admission → retirement);
//! * `ph:"C"` counter tracks per SM, one event at every multiple of
//!   [`crate::sim::SAMPLE_PERIOD`] cycles (the metrics series' period):
//!   resident warps, busy RT slots, memory event-queue depth, and
//!   cumulative shared-memory bank-conflict cycles. The simulator's loop
//!   reads one [`crate::metrics::Snapshot`] for both and stamps each
//!   sample with its boundary's cycle, so what they hold does not depend
//!   on which cycles the loop visits;
//! * top-level `cycles` and `stallBreakdown` keys (extra keys are tolerated
//!   by both viewers) so one file carries the whole diagnosis.
//!
//! Timestamps are simulated cycles, written as microseconds — absolute
//! units are meaningless for a simulator trace; relative spans are what the
//! viewer is for.
//!
//! The recorder is pure observation layered on the attribution plumbing:
//! it reads counters and the RT units' residency slices but never feeds
//! anything back, so `SimStats` are bit-identical with tracing on or off
//! (asserted by `crates/core/tests/attribution.rs`).

use crate::metrics::Snapshot;
use sms_gpu::StallBreakdown;
use sms_mem::Cycle;
use sms_rtunit::RtSlice;
use std::fmt::Write as _;
use std::path::PathBuf;

/// Where to trace, and what to stamp the file with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpec {
    /// Output path.
    pub path: PathBuf,
    /// The request-correlation trace id (16 lowercase hex digits) written
    /// as the file's top-level `"traceId"`, so the `sms-trace` merger can
    /// link a request's spans to its per-warp timeline. Filled at the
    /// process edge from an explicit `SMS_TRACE_CTX=<trace>-<span>`; the
    /// wire format and its one parser live in `sms_harness::TraceContext`.
    pub trace_id: Option<String>,
}

/// One SM's counters at a period boundary.
#[derive(Debug, Clone, Copy)]
pub struct SmCounters {
    /// Warps resident on the SM (compute side).
    pub resident_warps: usize,
    /// Occupied RT-unit warp slots.
    pub rt_busy: usize,
    /// Pending entries in the SM's memory completion heap.
    pub mem_queue: usize,
    /// Cumulative shared-memory bank-conflict replay cycles.
    pub conflict_cycles: u64,
}

/// Accumulates trace events during a run and writes the JSON file at the
/// end. Events are kept pre-serialized (one JSON object string each) — the
/// recorder never builds a document tree.
#[derive(Debug)]
pub struct TraceRecorder {
    spec: TraceSpec,
    events: Vec<String>,
}

impl TraceRecorder {
    /// Creates a recorder and emits the metadata events naming one process
    /// per SM and one thread per RT-unit warp slot.
    pub fn new(spec: TraceSpec, num_sms: usize, rt_slots: usize) -> Self {
        let mut events = Vec::new();
        for sm in 0..num_sms {
            events.push(format!(
                r#"{{"name":"process_name","ph":"M","pid":{sm},"tid":0,"args":{{"name":"SM{sm}"}}}}"#
            ));
            for slot in 0..rt_slots {
                events.push(format!(
                    r#"{{"name":"thread_name","ph":"M","pid":{sm},"tid":{slot},"args":{{"name":"RT slot {slot}"}}}}"#
                ));
            }
        }
        TraceRecorder { spec, events }
    }

    /// Records the two `ph:"C"` counter events of each SM of `snapshot`,
    /// stamped `now`.
    pub fn sample(&mut self, now: Cycle, snapshot: &Snapshot) {
        for (sm, c) in snapshot.sms.iter().enumerate() {
            self.events.push(format!(
                r#"{{"name":"SM{sm} queues","ph":"C","ts":{now},"pid":{sm},"args":{{"resident_warps":{},"rt_busy":{},"mem_queue":{}}}}}"#,
                c.resident_warps, c.rt_busy, c.mem_queue
            ));
            self.events.push(format!(
                r#"{{"name":"SM{sm} conflict cycles","ph":"C","ts":{now},"pid":{sm},"args":{{"cycles":{}}}}}"#,
                c.conflict_cycles
            ));
        }
    }

    /// Merges the metrics layer's sampled fleet-wide series as one
    /// `ph:"C"` counter track (one event per sample, all columns as args),
    /// so a trace taken with `SMS_METRICS` armed carries the occupancy /
    /// hit-rate / IPC series alongside the per-SM queue counters.
    pub fn add_counter_series(&mut self, series: &sms_metrics::SeriesRecorder) {
        for (cycle, values) in series.rows() {
            let args: Vec<String> = series
                .columns()
                .iter()
                .zip(values)
                .map(|(c, v)| format!("\"{c}\":{}", crate::metrics::json_num(*v)))
                .collect();
            self.events.push(format!(
                r#"{{"name":"GPU metrics","ph":"C","ts":{cycle},"pid":0,"tid":0,"args":{{{}}}}}"#,
                args.join(",")
            ));
        }
    }

    /// Records one `ph:"X"` residency slice per retired warp of SM `sm`.
    pub fn add_slices(&mut self, sm: usize, slices: &[RtSlice]) {
        for s in slices {
            let dur = s.end - s.start;
            self.events.push(format!(
                r#"{{"name":"warp {}","cat":"rt","ph":"X","ts":{},"dur":{dur},"pid":{sm},"tid":{}}}"#,
                s.warp, s.start, s.slot
            ));
        }
    }

    /// Writes the trace file: the event array plus top-level `cycles` and
    /// `stallBreakdown` keys, and `traceId` when the spec carries one
    /// (extra keys are tolerated by both viewers). Returns the path written.
    pub fn finish(self, cycles: Cycle, breakdown: &StallBreakdown) -> std::io::Result<PathBuf> {
        let mut out = String::with_capacity(self.events.len() * 96 + 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(ev);
        }
        out.push_str("\n],\n\"cycles\":");
        let _ = write!(out, "{cycles}");
        if let Some(trace) = &self.spec.trace_id {
            let _ = write!(out, ",\n\"traceId\":\"{trace}\"");
        }
        out.push_str(",\n\"stallBreakdown\":");
        out.push_str(&breakdown_json(breakdown));
        out.push_str("\n}\n");
        std::fs::write(&self.spec.path, out)?;
        Ok(self.spec.path)
    }
}

/// Serializes a [`StallBreakdown`] as a flat JSON object: one snake_case
/// key per declared field ([`StallBreakdown::FIELDS`]), buckets and totals
/// alike, in declaration order.
pub fn breakdown_json(b: &StallBreakdown) -> String {
    let mut out = String::from("{");
    for (i, (name, value)) in StallBreakdown::FIELDS.iter().zip(b.values()).enumerate() {
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(out, "{sep}\"{name}\":{value}");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::RunExports;

    #[test]
    fn job_suffix_is_sanitized_and_keeps_directory() {
        let exports = RunExports {
            dir: Some(PathBuf::from("/tmp/traces")),
            trace: true,
            ..RunExports::default()
        };
        let path = exports.file("SHIP/SMS_8+SK", "trace.json");
        assert_eq!(path, Some(PathBuf::from("/tmp/traces/SHIP_SMS_8_SK.trace.json")));
        assert!(exports.traced());
        // No run directory: nowhere to write, so nothing is traced.
        let nowhere = RunExports { trace: true, ..RunExports::default() };
        assert_eq!((nowhere.file("SHIP.RB_8", "trace.json"), nowhere.traced()), (None, false));
    }

    #[test]
    fn every_boundary_is_sampled_once_at_its_own_cycle() {
        // Idle stretches are jumped over, but each boundary inside one still
        // gets its sample, stamped with the boundary and not the next visit.
        let render = crate::RenderConfig::tiny();
        let prepared = crate::render::PreparedScene::build(sms_scene::SceneId::Ship, &render);
        let config = crate::SimConfig::new(
            sms_gpu::GpuConfig::default(),
            sms_rtunit::StackConfig::baseline8(),
            render,
        );
        let path = std::env::temp_dir().join(format!("sms-boundary-{}.json", std::process::id()));
        let spec = TraceSpec { path: path.clone(), trace_id: None };
        let run = crate::sim::GpuSim::new(&prepared, config)
            .with_trace(spec)
            .with_sample_period(64)
            .run();
        let text = std::fs::read_to_string(&path).expect("the traced run wrote its file");
        let _ = std::fs::remove_file(&path);
        let stamps: Vec<Cycle> = (text.lines())
            .filter(|ev| ev.starts_with(r#"{"name":"SM0 queues""#))
            .map(|ev| ev.split(r#""ts":"#).nth(1).and_then(|t| t.split(',').next()).unwrap())
            .map(|t| t.parse().unwrap())
            .collect();
        let boundaries: Vec<Cycle> = (0..=run.stats.cycles).step_by(64).collect();
        assert_eq!(stamps, boundaries);
    }

    #[test]
    fn breakdown_json_lists_every_bucket() {
        let j = breakdown_json(&StallBreakdown::default());
        for key in StallBreakdown::FIELDS {
            assert!(j.contains(&format!("\"{key}\":0")), "missing {key} in {j}");
        }
        assert!(j.starts_with("{\"compute\":0,\"mem_wait\":0,"), "{j}");
        assert!(j.ends_with(",\"rt_idle\":0,\"rt_lane_cycles\":0}"), "{j}");
    }
}
