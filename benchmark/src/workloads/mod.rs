//! The five workloads. Each runs in its own process, measures for
//! `--seconds`, checks what the program returned and fills a [`Report`].

pub mod build_trace;
pub mod serve;
pub mod sim;

use crate::golden::Checker;
use crate::host::Scratch;
use crate::pace::{Paced, Pacer};
use crate::span::Tracer;
use crate::stats::Summary;
use sms_sim::rtunit::StackConfig;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// What a workload needs besides its own fixed parameters.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measuring window.
    pub seconds: f64,
    /// The traced run: spans are kept and the (T) rows measured.
    pub traced: bool,
    /// Tiny sizes for `cargo test`; numbers mean nothing.
    pub smoke: bool,
    /// Recording goldens: serve workloads compute their reference in-process.
    pub bless: bool,
    /// Where `sms-serve` and `sms-fleet` live.
    pub bin_dir: PathBuf,
    pub scratch: Scratch,
    pub tracer: Tracer,
    pub pacer: Pacer,
    pub check: Checker,
}

impl Ctx {
    /// Whether the committed goldens pin in-process results at this seed.
    pub fn pinned(&self) -> bool {
        self.seed == crate::golden::GOLDEN_SEED
    }
}

/// What one workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub end_to_end: Vec<(&'static str, f64)>,
    pub per_layer: Vec<(&'static str, f64)>,
    /// Every timing series in seconds: median, quartiles, extremes, count.
    pub timings: Vec<(String, Summary)>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.end_to_end.push((name, value));
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.per_layer.push((name, value));
    }

    pub fn timing(&mut self, name: impl Into<String>, samples: &[f64]) {
        self.timings.push((name.into(), Summary::of(samples)));
    }

    /// The value of an end-to-end metric; 0 when the workload did not get
    /// far enough to measure it (which the caller reports as a failure).
    pub fn e2e_value(&self, name: &str) -> f64 {
        self.end_to_end.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v)
    }

    pub fn layer_value(&self, name: &str) -> Option<f64> {
        self.per_layer.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// The short alias of a stack configuration in metric names.
pub fn alias(stack: &StackConfig) -> &'static str {
    match stack {
        StackConfig::Baseline { .. } => "rb8",
        StackConfig::Sms(_) => "sms",
        StackConfig::FullOnChip => "full",
        StackConfig::Stackless => "sl",
        StackConfig::Predictor { .. } => "pred",
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work reports 0).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The measuring window: hands out passes until `--seconds` is used. A
/// pass starts only if one as long as the longest so far would still end
/// inside the window. In the traced run the passes alternate between kept
/// and dropped spans; the difference is the tracing overhead.
pub struct Passes {
    deadline: Instant,
    longest: Duration,
    traced: bool,
    /// Leading passes that warm up and are discarded.
    warmup: usize,
    /// For every pass started so far, whether its spans are kept.
    pub kept: Vec<bool>,
}

impl Passes {
    /// A window of `ctx.seconds` starting now.
    pub fn open(ctx: &Ctx, warmup: usize) -> Passes {
        Passes {
            deadline: Instant::now() + Duration::from_secs_f64(ctx.seconds.max(0.0)),
            longest: Duration::ZERO,
            traced: ctx.traced,
            warmup,
            kept: Vec::new(),
        }
    }

    /// Keeps the last `secs` of the window for work that follows the passes.
    pub fn reserve(&mut self, secs: f64) {
        let keep = Duration::from_secs_f64(secs.max(0.0));
        self.deadline = self.deadline.checked_sub(keep).unwrap_or(self.deadline);
    }

    /// Starts the next pass and returns its index.
    pub fn begin(&mut self, tracer: &mut Tracer) -> usize {
        let index = self.kept.len();
        let keep_spans = self.traced && index.is_multiple_of(2);
        tracer.set_armed(keep_spans);
        tracer.set_rep(index as u32);
        self.kept.push(keep_spans);
        index
    }

    /// Ends the pass, which took `secs` of the window. `true` when another
    /// should start: until one pass was measured (two in the traced run,
    /// one of each kind), then while another still fits.
    pub fn again(&mut self, secs: f64) -> bool {
        self.longest = self.longest.max(Duration::from_secs_f64(secs.max(0.0)));
        let wanted = if self.traced { 2 } else { 1 };
        self.measured() < wanted || Instant::now() + self.longest <= self.deadline
    }

    /// Passes measured so far (the warm-up does not count).
    pub fn measured(&self) -> usize {
        self.kept.len().saturating_sub(self.warmup)
    }
}

/// One in-process cell's time per pass: paced seconds and wall clock as
/// measured. Index 0 is the discarded warm-up pass.
pub struct Series {
    pub label: String,
    pub paced: Vec<f64>,
    pub raw: Vec<f64>,
}

impl Series {
    pub fn new(label: String) -> Series {
        Series { label, paced: Vec::new(), raw: Vec::new() }
    }

    pub fn push(&mut self, time: Paced) {
        self.paced.push(time.paced);
        self.raw.push(time.wall);
    }

    /// Median paced seconds over the measured passes.
    pub fn median(&self) -> f64 {
        crate::stats::median(&self.paced[1..])
    }

    /// Median wall clock over the measured passes.
    pub fn raw_median(&self) -> f64 {
        crate::stats::median(&self.raw[1..])
    }
}

/// Deterministic Fisher–Yates shuffle driven by SplitMix64, so the same
/// `--seed` always produces the same request bodies.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Share of the traced passes' time over the untraced passes' time, as a
/// percentage above 100; 0 unless both kinds of pass were measured.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if traced > 0.0 && untraced > 0.0 {
        (traced / untraced - 1.0) * 100.0
    } else {
        0.0
    }
}

/// The tracing overhead of a traced run: the sum of the cells' medians
/// over the passes with kept spans against the same sum over the passes
/// with dropped spans (pass 0, the warm-up, left out).
pub fn split_overhead<'a>(series: impl IntoIterator<Item = &'a Series>, kept: &[bool]) -> f64 {
    let (mut with, mut without) = (0.0, 0.0);
    for cell in series {
        let pick = |want: bool| -> Vec<f64> {
            (1..kept.len()).filter(|&i| kept[i] == want).map(|i| cell.paced[i]).collect()
        };
        with += crate::stats::median(&pick(true));
        without += crate::stats::median(&pick(false));
    }
    overhead_pct(with, without)
}

/// Reports how much of every kept in-process pass its child spans cover.
pub fn note_coverage(ctx: &Ctx, report: &mut Report) {
    if let Some((worst, self_s)) = ctx.tracer.coverage("rep") {
        report.layer("bench.rep_self_pct", (1.0 - worst) * 100.0);
        report.notes.push(format!(
            "child spans cover >= {:.3}% of every kept pass; the benchmark's own self time in them is {self_s:.6} s",
            worst * 100.0
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_overhead_compares_kept_with_dropped_passes() {
        // warm-up, kept, dropped, kept, dropped
        let kept = [true, true, false, true, false];
        let cell =
            |paced: &[f64]| Series { label: String::new(), paced: paced.to_vec(), raw: Vec::new() };
        let cells = [cell(&[9.0, 1.1, 1.0, 1.1, 1.0]), cell(&[9.0, 2.2, 2.0, 2.2, 2.0])];
        let pct = split_overhead(&cells, &kept);
        assert!((pct - 10.0).abs() < 1e-9, "{pct}");
        assert_eq!(split_overhead(&cells[..1], &[true, false]), 0.0, "no kept pass was measured");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let base: Vec<u32> = (0..16).collect();
        let mut a = base.clone();
        let mut b = base.clone();
        let mut c = base.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        shuffle(&mut c, 11);
        assert_eq!(a, b, "same seed, same order");
        assert_ne!(a, c, "another seed, another order");
        assert_ne!(a, base);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, base);
    }

    #[test]
    fn passes_alternate_spans_and_stop_when_the_longest_no_longer_fits() {
        let mut tracer = Tracer::new(true);
        let mut passes = Passes {
            deadline: Instant::now() + Duration::from_secs(60),
            longest: Duration::ZERO,
            traced: true,
            warmup: 1,
            kept: Vec::new(),
        };
        assert_eq!(passes.begin(&mut tracer), 0);
        assert!(passes.again(10.0), "the warm-up measured nothing yet");
        assert_eq!(passes.begin(&mut tracer), 1);
        assert!(passes.again(10.0), "a traced run wants a pass of each kind");
        assert_eq!(passes.begin(&mut tracer), 2);
        assert!(passes.again(10.0), "50 s are left and a pass takes 10");
        assert_eq!((passes.measured(), passes.kept.as_slice()), (2, &[true, false, true][..]));
        passes.reserve(55.0);
        assert!(!passes.again(10.0), "5 s are left and a pass takes 10");
    }
}
