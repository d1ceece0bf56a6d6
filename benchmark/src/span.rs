//! In-memory spans around every call into a layer.
//!
//! Timing always happens (it is the measurement); a span is *kept* only
//! while the tracer is armed, so the untraced run allocates nothing per
//! call. Spans are written out as Chrome trace-event JSON when the
//! workload ends, never while it runs.

use crate::json::{num, obj, text, Json};
use std::time::Instant;

/// One completed (or still open) interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    pub rep: u32,
    /// Which matrix cell (or request) the span belongs to; may be empty.
    pub cell: String,
    /// Display lane: 0 for the driving thread, 1.. for client threads.
    pub lane: u32,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    armed: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Tracer {
    pub fn new(armed: bool) -> Tracer {
        Tracer { epoch: Instant::now(), armed, spans: Vec::new(), open: Vec::new(), rep: 0 }
    }

    /// Arms or disarms recording. Only call between top-level spans: an
    /// open span must be closed under the setting it was opened with.
    pub fn set_armed(&mut self, armed: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between spans");
        self.armed = armed;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn micros(&self, at: Instant) -> f64 {
        at.duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn push(&mut self, name: &'static str, cell: &str, start: Instant, lane: u32) -> usize {
        let start_us = self.micros(start);
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            rep: self.rep,
            cell: cell.to_owned(),
            lane,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span and returns its result with the wall time in
    /// seconds. Nested calls become child spans.
    pub fn timed<T>(
        &mut self,
        name: &'static str,
        cell: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let slot = self.armed.then(|| {
            let idx = self.push(name, cell, start, 0);
            self.open.push(idx);
            idx
        });
        let out = f(self);
        let end = Instant::now();
        if let Some(idx) = slot {
            self.open.pop();
            self.spans[idx].end_us = self.micros(end);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    /// Records an interval measured elsewhere (a client thread) as a child
    /// of the currently open span.
    pub fn record(
        &mut self,
        name: &'static str,
        cell: &str,
        start: Instant,
        end: Instant,
        lane: u32,
    ) {
        if self.armed {
            let idx = self.push(name, cell, start, lane);
            self.spans[idx].end_us = self.micros(end);
        }
    }

    /// Microseconds of `idx`'s interval covered by its direct children
    /// (overlapping children, as from two client threads, count once).
    pub fn child_cover_us(&self, idx: usize) -> f64 {
        let span = &self.spans[idx];
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_us.max(span.start_us), s.end_us.min(span.end_us)))
            .filter(|(a, b)| b > a)
            .collect();
        kids.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (a, b) in kids {
            if b > reach {
                covered += b - a.max(reach);
                reach = b;
            }
        }
        covered
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_us(&self, idx: usize) -> f64 {
        self.spans[idx].dur_us() - self.child_cover_us(idx)
    }

    /// The smallest share of any `name` span that its children cover, with
    /// the total self time of those spans in seconds; `None` if there is no
    /// such span.
    pub fn coverage(&self, name: &str) -> Option<(f64, f64)> {
        let mut worst: Option<f64> = None;
        let mut self_s = 0.0;
        for (idx, span) in self.spans.iter().enumerate().filter(|(_, s)| s.name == name) {
            let share =
                if span.dur_us() > 0.0 { self.child_cover_us(idx) / span.dur_us() } else { 1.0 };
            worst = Some(worst.map_or(share, |w| w.min(share)));
            self_s += self.self_us(idx) / 1e6;
        }
        worst.map(|w| (w, self_s))
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one complete
    /// ("X") event per span; `args` carries parent, repetition, cell and
    /// self time.
    pub fn chrome_json(&self, workload: &str) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(idx, s)| {
                obj([
                    ("name", text(s.name)),
                    ("cat", text(workload)),
                    ("ph", text("X")),
                    ("ts", num(s.start_us)),
                    ("dur", num(s.dur_us())),
                    ("pid", num(1u32)),
                    ("tid", num(s.lane)),
                    (
                        "args",
                        obj([
                            ("id", num(idx as f64)),
                            ("parent", s.parent.map_or(Json::Null, |p| num(p as f64))),
                            ("workload", text(workload)),
                            ("rep", num(s.rep)),
                            ("cell", text(s.cell.as_str())),
                            ("self_us", num(self.self_us(idx))),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([("displayTimeUnit", text("ms")), ("traceEvents", Json::Arr(events))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer with hand-placed spans (microsecond offsets from the epoch).
    fn with_spans(spans: &[(&'static str, u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(true);
        for &(name, a, b, parent) in spans {
            t.spans.push(Span {
                name,
                start_us: a as f64,
                end_us: b as f64,
                parent,
                rep: 0,
                cell: String::new(),
                lane: 0,
            });
        }
        t
    }

    #[test]
    fn self_time_is_span_minus_child_cover() {
        let t = with_spans(&[
            ("rep", 0, 1000, None),
            ("cell", 100, 400, Some(0)),
            ("cell", 500, 900, Some(0)),
            ("inner", 150, 200, Some(1)), // grandchild: not subtracted from rep
        ]);
        assert_eq!(t.child_cover_us(0), 700.0);
        assert_eq!(t.self_us(0), 300.0);
        assert_eq!(t.self_us(1), 250.0);
        assert_eq!(t.self_us(2), 400.0);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let t = with_spans(&[
            ("phase", 100, 1100, None),
            ("sweep", 0, 600, Some(0)), // starts before the parent: clipped to 100..600
            ("sweep", 400, 800, Some(0)), // overlaps the first by 200
            ("sweep", 1000, 2000, Some(0)), // runs past the parent: clipped to 1000..1100
        ]);
        assert_eq!(t.child_cover_us(0), 500.0 + 200.0 + 100.0);
        assert_eq!(t.self_us(0), 200.0);
    }

    #[test]
    fn coverage_reports_the_worst_span() {
        let t = with_spans(&[
            ("rep", 0, 100, None),
            ("cell", 0, 99, Some(0)),
            ("rep", 100, 200, None),
            ("cell", 100, 190, Some(2)),
        ]);
        let (worst, self_s) = t.coverage("rep").unwrap();
        assert!((worst - 0.90).abs() < 1e-12);
        assert!((self_s - 11e-6).abs() < 1e-12);
        assert_eq!(t.coverage("absent"), None);
    }

    #[test]
    fn timed_nests_and_disarmed_keeps_nothing() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let ((), outer) = t.timed("rep", "", |t| {
            let (v, inner) =
                t.timed("sim.cell", "SHIP/RB_8", |_| std::thread::sleep(Duration::from_millis(2)));
            assert!(inner >= 0.002);
            v
        });
        assert!(outer >= 0.002);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!((t.spans()[1].rep, t.spans()[1].cell.as_str()), (3, "SHIP/RB_8"));

        t.set_armed(false);
        let (v, secs) = t.timed("rep", "", |_| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.spans().len(), 2, "a disarmed tracer still times but keeps no span");
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let t = with_spans(&[("rep", 0, 10, None), ("cell", 2, 8, Some(0))]);
        let doc = t.chrome_json("sim_fast");
        let events = doc.get("traceEvents").unwrap().as_arr();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(events[1].get("args").unwrap().get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(events[0].get("args").unwrap().get("self_us").unwrap().as_f64(), Some(4.0));
    }
}
