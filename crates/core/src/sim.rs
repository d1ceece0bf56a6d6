//! The cycle-level GPU simulator.
//!
//! [`GpuSim`] launches one thread per `(pixel, sample)` path, groups
//! threads into warps, distributes warps round-robin over the SMs of
//! Table I, and advances everything cycle by cycle:
//!
//! * the SIMT compute model issues warp instructions (ray generation,
//!   shading, accumulation phases of the PT kernel) at `issue_width` warps
//!   per SM per cycle, oldest-first;
//! * trace-ray instructions enter the SM's RT unit (≤4 warps resident),
//!   which performs the actual BVH traversal with the configured stack
//!   architecture (see `sms-rtunit`);
//! * all memory traffic — node/primitive fetches, stack spills, material
//!   loads, framebuffer stores — flows through the per-SM L1D and shared
//!   memory and the device-wide L2/DRAM.
//!
//! Idle stretches are skipped per SM and globally: an SM whose warps are
//! all waiting is not visited until its next completion event, and when no
//! SM can act time jumps to the earliest such event; the result is
//! cycle-exact with respect to the non-skipping loop.
//!
//! The simulator's shading is *functionally exact*: it reuses
//! [`crate::driver`], so the image it produces is bit-identical to the
//! functional renderer's — asserted by integration tests.

use crate::config::SimConfig;
use crate::driver::{self, PathState, ACCUM_COST, RAYGEN_COST, SHADE_COST};
use crate::env::Env;
use crate::metrics::{MetricsReport, SampleCounts, SeriesSampler};
use crate::render::PreparedScene;
use crate::trace::{SmCounters, TraceRecorder, TraceSpec};
use sms_bvh::FlatBvh;
use sms_geom::{Ray, Vec3};
use sms_gpu::{SimStats, StallBreakdown, WarpId, WARP_SIZE};
use sms_mem::{coalesce_lines, AccessKind, Cycle, GlobalMemory, SharedMem, SmL1, SHADE_BASE_ADDR};
use sms_rtunit::{
    RayQuery, RtUnit, RtUnitConfig, StackViolation, ThreadTraceRecorder, TraceRequest, TraceResult,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Base address of the framebuffer (radiance accumulation) region.
const FRAMEBUFFER_BASE: u64 = 0xE000_0000;

/// Hard ceiling on simulated cycles — a runaway-model backstop far above
/// any real workload, applied even when no explicit budget is configured.
const HARD_CYCLE_CAP: Cycle = 1 << 40;

/// Default sample period in cycles of both sampled tracks: the trace's
/// per-SM counters and the metrics series.
pub const SAMPLE_PERIOD: Cycle = 1024;

/// Why a simulation run was aborted. Every variant carries enough context
/// to diagnose the run post-mortem without re-running it; the harness
/// journals these as structured `run_failed` / `run_timeout` events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFault {
    /// The run exceeded its configured (or the hard) cycle budget.
    CycleBudget {
        /// The budget in effect.
        limit: Cycle,
        /// Cycle at which the breach was detected.
        at_cycle: Cycle,
        /// Warp/stack state dump taken at abort time.
        snapshot: String,
    },
    /// No warp retired any work for the configured number of cycles.
    Stalled {
        /// The forward-progress window in effect.
        stall_cycles: Cycle,
        /// Cycle at which the detector fired.
        at_cycle: Cycle,
        /// Warp/stack state dump taken at abort time.
        snapshot: String,
    },
    /// Nothing is issuable and no completion event is pending (a model bug).
    Deadlock {
        /// Cycle at which the simulator wedged.
        at_cycle: Cycle,
        /// Warp/stack state dump taken at abort time.
        snapshot: String,
    },
    /// The stack validator latched an invariant violation.
    Invariant {
        /// The first violation observed.
        violation: StackViolation,
    },
}

impl SimFault {
    /// Stable snake_case tag (used in journal events).
    pub fn kind(&self) -> &'static str {
        match self {
            SimFault::CycleBudget { .. } => "cycle_budget",
            SimFault::Stalled { .. } => "stalled",
            SimFault::Deadlock { .. } => "deadlock",
            SimFault::Invariant { .. } => "invariant",
        }
    }

    /// `true` for the watchdog faults (budget/stall) that a re-run should
    /// not blindly retry with the same limits.
    pub fn is_timeout(&self) -> bool {
        matches!(self, SimFault::CycleBudget { .. } | SimFault::Stalled { .. })
    }
}

impl fmt::Display for SimFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimFault::CycleBudget { limit, at_cycle, snapshot } => {
                write!(f, "cycle budget of {limit} exceeded at cycle {at_cycle}\n{snapshot}")
            }
            SimFault::Stalled { stall_cycles, at_cycle, snapshot } => {
                write!(
                    f,
                    "no warp retired work for {stall_cycles} cycles (detected at cycle \
                     {at_cycle})\n{snapshot}"
                )
            }
            SimFault::Deadlock { at_cycle, snapshot } => {
                write!(f, "simulator deadlock at cycle {at_cycle}\n{snapshot}")
            }
            SimFault::Invariant { violation } => write!(f, "{violation}"),
        }
    }
}

/// Per-run watchdog limits and validation switch.
///
/// All fields default to off; the simulation behaves exactly as before and
/// produces bit-identical [`SimStats`] whether or not limits are armed
/// (the watchdog only observes, it never changes scheduling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunLimits {
    /// Abort when the simulated cycle count exceeds this budget.
    pub max_cycles: Option<Cycle>,
    /// Abort when no warp retires a trace (and no warp finishes) for this
    /// many consecutive cycles. Set it well above the worst memory latency:
    /// idle-stretch skipping can legitimately jump hundreds of cycles.
    pub stall_cycles: Option<Cycle>,
    /// Attach a `StackValidator` to every warp's stacks and abort with
    /// [`SimFault::Invariant`] on the first violation.
    pub validate: bool,
    /// Arm the cycle-attribution layer: charge every resident warp/lane
    /// cycle to a [`StallBreakdown`] bucket (returned on
    /// [`SimRun::breakdown`]). Pure observation like `validate`: no
    /// scheduling decision or [`SimStats`] counter changes.
    pub breakdown: bool,
    /// Arm the metrics layer: stack/traversal distributions plus a
    /// periodic time-series sampler (returned on [`SimRun::metrics`]).
    /// Pure observation like `validate` and `breakdown`.
    pub metrics: bool,
}

impl RunLimits {
    /// No limits, no validation (the default).
    pub fn none() -> Self {
        RunLimits::default()
    }

    /// `SMS_MAX_CYCLES`, `SMS_STALL_CYCLES`, `SMS_VALIDATE`, `SMS_BREAKDOWN`
    /// and `SMS_METRICS`.
    pub fn from_env(env: &Env) -> Self {
        RunLimits {
            max_cycles: env.positive("SMS_MAX_CYCLES"),
            stall_cycles: env.positive("SMS_STALL_CYCLES"),
            validate: env.flag("SMS_VALIDATE"),
            breakdown: env.flag("SMS_BREAKDOWN"),
            metrics: env.flag("SMS_METRICS"),
        }
    }

    /// Per-field fallback: `self` where set, else `fallback`.
    pub fn or(self, fallback: RunLimits) -> Self {
        RunLimits {
            max_cycles: self.max_cycles.or(fallback.max_cycles),
            stall_cycles: self.stall_cycles.or(fallback.stall_cycles),
            validate: self.validate || fallback.validate,
            breakdown: self.breakdown || fallback.breakdown,
            metrics: self.metrics || fallback.metrics,
        }
    }
}

/// Where a warp is in the PT kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// Ray-generation compute phase.
    GenCompute,
    /// Main (nearest-hit) trace in the RT unit.
    MainTrace,
    /// Shading compute phase.
    ShadeCompute,
    /// Material loads in flight.
    ShadeMem,
    /// Shadow (occlusion) trace in the RT unit.
    ShadowTrace,
    /// Accumulation compute phase.
    AccumCompute,
    /// Kernel complete.
    Finished,
}

#[derive(Debug, Clone)]
enum Phase {
    Compute { remaining: u32 },
    WaitMem { done: Cycle },
    TraceWait,
    InRt,
    Done,
}

/// Warp-level cycle attribution (armed by [`RunLimits::breakdown`]).
///
/// Charges the half-open interval `[since, now)` to the bucket of the
/// *outgoing* phase at every phase change, so each resident warp-cycle
/// lands in exactly one bucket. The per-warp invariant
/// `warp_sum() == warp_cycles` holds by construction (every flush adds the
/// same `dt` to one bucket and to the total); the run-level aggregate is
/// asserted at the end of the run.
#[derive(Debug, Default)]
struct WarpAttr {
    /// Start of the interval the current phase will be charged for.
    since: Cycle,
    /// Buckets accumulated by this warp (warp-level fields only).
    b: StallBreakdown,
}

impl WarpAttr {
    /// Charges `[since, now)` to `phase`'s bucket and restarts the interval.
    fn flush(&mut self, now: Cycle, phase: &Phase) {
        let dt = now - self.since;
        self.since = now;
        if dt == 0 {
            return;
        }
        match phase {
            Phase::Compute { .. } => self.b.compute += dt,
            Phase::WaitMem { .. } => self.b.mem_wait += dt,
            Phase::TraceWait => self.b.rt_admit += dt,
            Phase::InRt => self.b.in_rt += dt,
            // `Done` is assigned and retired within one cycle (step 4 then
            // step 5 of the same iteration), so its interval is empty.
            Phase::Done => unreachable!("Done phase retired with a non-empty interval"),
        }
        self.b.warp_cycles += dt;
    }
}

#[derive(Debug)]
struct WarpCtx {
    id: WarpId,
    paths: Vec<PathState>,
    /// Current radiance ray per lane.
    rays: [Option<Ray>; WARP_SIZE],
    /// Pending shadow query and its gated contribution per lane.
    shadow: [Option<(RayQuery, Vec3)>; WARP_SIZE],
    /// Next bounce ray per lane.
    bounce: [Option<Ray>; WARP_SIZE],
    /// Material record addresses to load during `ShadeMem`.
    mat_loads: Vec<u64>,
    /// Which lanes are real threads (the last warp may be partial).
    real: [bool; WARP_SIZE],
    step: Step,
    phase: Phase,
    /// Lanes participating in the current phase (instruction accounting).
    active: u32,
    pending_req: Option<TraceRequest>,
    /// Warp-level stall attribution (present iff attribution is armed).
    attr: Option<Box<WarpAttr>>,
}

struct Sm {
    l1: SmL1,
    shared: SharedMem,
    rt: RtUnit,
    warps: Vec<WarpCtx>,
    pending: VecDeque<WarpCtx>,
    done_warps: u64,
    total_warps: u64,
    /// Completion events of warps in `Phase::WaitMem` (min-heap on
    /// `(cycle, warp)`): warps leave that phase only at their recorded
    /// cycle, so the per-cycle wait scan reduces to a heap peek.
    mem_events: BinaryHeap<Reverse<(Cycle, WarpId)>>,
    /// `warps` needs re-sorting by id (perturbed by retire/refill).
    warps_dirty: bool,
    /// The first cycle at which this SM can change state again, as of its
    /// last visit; `None` once it has nothing left to wait for. Everything
    /// it is computed from is SM-local, so the main loop neither visits the
    /// SM nor advances time past it before then.
    next_activity: Option<Cycle>,
}

impl Sm {
    /// After the SM's visit at `now`: the next cycle while a warp can issue
    /// a compute instruction, enter the RT unit or issue inside it, else the
    /// earliest completion event. A sampler reads the first visited cycle
    /// at or after each period boundary, so while one is armed (`sampled`)
    /// the RT unit's node-data arrivals are visited too, as when each was a
    /// wake of its own; they change no state.
    fn next_activity_after(&self, now: Cycle, sampled: bool) -> Option<Cycle> {
        let issuable = self.rt.has_issuable()
            || self.warps.iter().any(|warp| match warp.phase {
                Phase::Compute { .. } => true,
                Phase::TraceWait => self.rt.has_free_slot(),
                _ => false,
            });
        if issuable {
            return Some(now + 1);
        }
        let mem_done = self.mem_events.peek().map(|&Reverse((c, _))| c);
        let arrival = if sampled { self.rt.next_arrival_after(now) } else { None };
        let next = [self.rt.next_completion(), mem_done, arrival].into_iter().flatten().min();
        next.map(|c| c.max(now + 1))
    }
}

/// Result of one cycle-level run.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Aggregated counters (cycles, instructions, traffic, stack events).
    pub stats: SimStats,
    /// The rendered image (bit-identical to the functional renderer).
    pub image: Vec<Vec3>,
    /// Image width.
    pub width: u32,
    /// Image height.
    pub height: u32,
    /// Per-thread stack traces (when `config.trace_warp_limit > 0`).
    pub thread_traces: Vec<(WarpId, u8, u32, u16)>,
    /// Cycle attribution (when [`RunLimits::breakdown`] or a trace spec is
    /// armed): every resident warp/lane cycle charged to one bucket, with
    /// both conservation laws asserted before this is returned.
    pub breakdown: Option<StallBreakdown>,
    /// Stack distributions and the sampled time series (when
    /// [`RunLimits::metrics`] is armed).
    pub metrics: Option<Box<MetricsReport>>,
}

/// The cycle-level GPU model.
pub struct GpuSim<'a> {
    prepared: &'a PreparedScene,
    config: SimConfig,
    trace_warp_limit: u32,
    limits: RunLimits,
    trace: Option<TraceSpec>,
    sample_period: Cycle,
}

impl<'a> GpuSim<'a> {
    /// Creates a simulator for a prepared scene.
    pub fn new(prepared: &'a PreparedScene, config: SimConfig) -> Self {
        GpuSim {
            prepared,
            config,
            trace_warp_limit: 0,
            limits: RunLimits::none(),
            trace: None,
            sample_period: SAMPLE_PERIOD,
        }
    }

    /// Arms the per-run watchdog and/or the stack validator.
    pub fn with_limits(mut self, limits: RunLimits) -> Self {
        self.limits = limits;
        self
    }

    /// Arms the time-series trace export (implies cycle attribution): the
    /// run writes a Chrome trace-event JSON file to `spec.path`.
    pub fn with_trace(mut self, spec: TraceSpec) -> Self {
        self.trace = Some(spec);
        self
    }

    /// Sets the sample period (cycles) of both sampled tracks: the trace's
    /// counters and the metrics series. Only consulted when tracing or
    /// [`RunLimits::metrics`] is armed.
    pub fn with_sample_period(mut self, period: Cycle) -> Self {
        assert!(period > 0, "sampling period must be positive");
        self.sample_period = period;
        self
    }

    /// Records per-thread depth traces for warps below `limit` (Fig. 10):
    /// one sample at every push and pop, numbered per thread across the
    /// run. Over all warps their depths are the functional renderer's
    /// stack-depth histogram (Figs. 4/5).
    pub fn trace_warps(mut self, limit: u32) -> Self {
        self.trace_warp_limit = limit;
        self
    }

    /// Runs the workload to completion.
    ///
    /// # Panics
    ///
    /// Panics if the model deadlocks (a bug), exceeds a cycle budget, or —
    /// when validation is armed — violates a stack invariant. Fault-aware
    /// callers should use [`GpuSim::try_run`] instead.
    pub fn run(self) -> SimRun {
        self.try_run().unwrap_or_else(|fault| panic!("{fault}"))
    }

    /// Runs the workload to completion, returning a structured
    /// [`SimFault`] instead of panicking when the run must be aborted.
    pub fn try_run(self) -> Result<SimRun, SimFault> {
        self.run_on(&self.prepared.bvh)
    }

    fn run_on(&self, bvh: &FlatBvh) -> Result<SimRun, SimFault> {
        let scene = &self.prepared.scene;
        let (w, h, spp) = self.config.render.workload(scene.id);
        let total_threads = (w * h * spp) as usize;
        let num_warps = total_threads.div_ceil(WARP_SIZE);
        let gpu = &self.config.gpu;
        // Tracing implies attribution (slices and counters reuse its
        // timestamps); either way the simulation itself is unchanged.
        let attribute = self.limits.breakdown || self.trace.is_some();
        let period = self.sample_period;
        let mut recorder = self.trace.as_ref().map(|spec| {
            TraceRecorder::new(spec.clone(), period, gpu.num_sms, gpu.max_warps_per_rt_unit)
        });
        let mut msampler = self.limits.metrics.then(|| SeriesSampler::new(period));
        let sampled = recorder.is_some() || msampler.is_some();

        // Build all warps and distribute round-robin over SMs.
        let mut sms: Vec<Sm> = (0..gpu.num_sms)
            .map(|_| {
                let mut rt_cfg = RtUnitConfig::new(self.config.stack);
                rt_cfg.max_warps = gpu.max_warps_per_rt_unit;
                rt_cfg.box_latency = gpu.box_latency;
                rt_cfg.tri_latency = gpu.tri_latency;
                rt_cfg.validate = self.limits.validate;
                rt_cfg.attribute = attribute;
                rt_cfg.metrics = self.limits.metrics;
                let mut rt = RtUnit::new(rt_cfg);
                if recorder.is_some() {
                    rt.record_slices();
                }
                if self.trace_warp_limit > 0 {
                    rt.thread_traces = Some(ThreadTraceRecorder::new(self.trace_warp_limit));
                }
                Sm {
                    l1: SmL1::new(gpu.l1),
                    shared: SharedMem::new(gpu.shared),
                    rt,
                    warps: Vec::new(),
                    pending: VecDeque::new(),
                    done_warps: 0,
                    total_warps: 0,
                    mem_events: BinaryHeap::new(),
                    warps_dirty: false,
                    next_activity: Some(0),
                }
            })
            .collect();

        for wid in 0..num_warps {
            let mut paths = Vec::with_capacity(WARP_SIZE);
            for lane in 0..WARP_SIZE {
                let t = wid * WARP_SIZE + lane;
                if t < total_threads {
                    let pixel = (t as u32) / spp;
                    let sample = (t as u32) % spp;
                    paths.push(PathState::new(
                        pixel % w,
                        pixel / w,
                        sample,
                        self.config.render.seed,
                    ));
                } else {
                    let mut dead = PathState::new(0, 0, 0, self.config.render.seed);
                    dead.alive = false;
                    paths.push(dead);
                }
            }
            let real: [bool; WARP_SIZE] = std::array::from_fn(|l| paths[l].alive);
            let active = real.iter().filter(|&&r| r).count() as u32;
            let ctx = WarpCtx {
                id: wid as WarpId,
                paths,
                real,
                rays: [None; WARP_SIZE],
                shadow: [None; WARP_SIZE],
                bounce: [None; WARP_SIZE],
                mat_loads: Vec::new(),
                step: Step::GenCompute,
                phase: Phase::Compute { remaining: RAYGEN_COST },
                active,
                pending_req: None,
                attr: None,
            };
            sms[wid % gpu.num_sms].pending.push_back(ctx);
        }
        for sm in &mut sms {
            sm.total_warps = sm.pending.len() as u64;
            while sm.warps.len() < gpu.resident_warps_per_sm {
                match sm.pending.pop_front() {
                    Some(mut wc) => {
                        if attribute {
                            wc.attr = Some(Box::default());
                        }
                        sm.warps.push(wc);
                    }
                    None => break,
                }
            }
        }

        let mut global = GlobalMemory::new(gpu.global);
        let mut stats = SimStats::default();
        let mut image = vec![Vec3::ZERO; (w * h) as usize];
        let mut now: Cycle = 0;
        let prims = self.prepared.prims();
        let max_depth = self.config.render.max_depth;
        let shadow_on = self.config.render.shadow_rays;
        let resident_cap = gpu.resident_warps_per_sm;
        let issue_width = gpu.issue_width;

        // Watchdog state: the effective cycle budget and a forward-progress
        // counter (traces retired by RT units + warps fully finished +
        // RT micro-events — issued node fetches, node-op commits and stack
        // micro-ops — so a long-but-live traversal is not mistaken
        // for a stall just because no full trace retired in the window).
        let budget = self.limits.max_cycles.map_or(HARD_CYCLE_CAP, |m| m.min(HARD_CYCLE_CAP));
        let mut retired_traces: u64 = 0;
        let mut last_progress: u64 = 0;
        let mut last_progress_cycle: Cycle = 0;

        // Run-level stall attribution: warp-level buckets flushed at retire,
        // lane-level buckets merged from the RT units at the end.
        let mut breakdown = StallBreakdown::default();

        loop {
            for sm in &mut sms {
                if sm.next_activity.is_none_or(|c| c > now) {
                    continue;
                }
                // 1. RT unit cycle; process retiring traces.
                let results = sm.rt.tick(
                    now,
                    bvh,
                    prims,
                    &mut sm.l1,
                    &mut sm.shared,
                    &mut global,
                    &mut stats,
                );
                retired_traces += results.len() as u64;
                for res in results {
                    let warp = sm
                        .warps
                        .iter_mut()
                        .find(|wc| wc.id == res.warp)
                        .expect("retired warp resident");
                    if let Some(a) = warp.attr.as_deref_mut() {
                        a.flush(now, &warp.phase); // charge InRt
                    }
                    Self::on_trace_result(warp, &res, scene, max_depth, shadow_on);
                    Self::advance_after_trace(warp, scene);
                }
                if self.limits.validate {
                    if let Some(violation) = sm.rt.take_violation() {
                        return Err(SimFault::Invariant { violation });
                    }
                }

                // 2. Memory-wait completions (event-driven: a warp leaves
                //    `WaitMem` only at its recorded completion cycle).
                while sm.mem_events.peek().is_some_and(|&Reverse((c, _))| c <= now) {
                    let Reverse((_, wid)) = sm.mem_events.pop().expect("peeked above");
                    let warp =
                        sm.warps.iter_mut().find(|wc| wc.id == wid).expect("waiting warp resident");
                    debug_assert!(matches!(warp.phase, Phase::WaitMem { done } if done <= now));
                    if let Some(a) = warp.attr.as_deref_mut() {
                        a.flush(now, &warp.phase); // charge WaitMem
                    }
                    Self::after_shade_mem(warp, scene);
                }

                // 3. Trace admission (oldest first).
                if sm.warps_dirty {
                    sm.warps.sort_by_key(|wc| wc.id);
                    sm.warps_dirty = false;
                }
                for warp in &mut sm.warps {
                    if matches!(warp.phase, Phase::TraceWait) && sm.rt.has_free_slot() {
                        if let Some(a) = warp.attr.as_deref_mut() {
                            a.flush(now, &warp.phase); // charge TraceWait
                        }
                        let req = warp.pending_req.take().expect("TraceWait has a request");
                        sm.rt.try_admit(now, req, &mut stats).expect("slot checked free");
                        warp.phase = Phase::InRt;
                    }
                }

                // 4. Compute issue: up to issue_width warps, oldest first.
                let mut issued = 0;
                for warp in &mut sm.warps {
                    if issued >= issue_width {
                        break;
                    }
                    if let Phase::Compute { remaining } = &mut warp.phase {
                        *remaining -= 1;
                        stats.thread_instructions += warp.active as u64;
                        issued += 1;
                        if *remaining == 0 {
                            if let Some(a) = warp.attr.as_deref_mut() {
                                a.flush(now, &warp.phase); // charge Compute
                            }
                            Self::on_compute_done(
                                warp,
                                scene,
                                now,
                                &mut sm.l1,
                                &mut global,
                                &mut image,
                                &mut sm.mem_events,
                            );
                        }
                    }
                }

                // 5. Retire finished warps; pull in pending ones.
                let mut i = 0;
                while i < sm.warps.len() {
                    if matches!(sm.warps[i].phase, Phase::Done) {
                        let mut wc = sm.warps.swap_remove(i);
                        if let Some(mut a) = wc.attr.take() {
                            a.flush(now, &wc.phase); // empty interval: Done is same-cycle
                            debug_assert_eq!(a.b.warp_sum(), a.b.warp_cycles);
                            breakdown.merge(&a.b);
                        }
                        sm.done_warps += 1;
                        sm.warps_dirty = true;
                    } else {
                        i += 1;
                    }
                }
                while sm.warps.len() < resident_cap {
                    match sm.pending.pop_front() {
                        Some(mut wc) => {
                            if attribute {
                                wc.attr = Some(Box::new(WarpAttr {
                                    since: now,
                                    b: StallBreakdown::default(),
                                }));
                            }
                            sm.warps.push(wc);
                            sm.warps_dirty = true;
                        }
                        None => break,
                    }
                }
                sm.next_activity = sm.next_activity_after(now, sampled);
            }
            // Time-series sampler (pure observation; see `crate::trace`).
            if let Some(rec) = recorder.as_mut() {
                if rec.sample_due(now) {
                    rec.sample(
                        now,
                        sms.iter().map(|sm| SmCounters {
                            resident_warps: sm.warps.len(),
                            rt_busy: sm.rt.busy_warps(),
                            mem_queue: sm.mem_events.len(),
                            conflict_cycles: sm.shared.conflict_cycles,
                        }),
                    );
                }
            }
            // Metrics time-series sampler: same pure-observation contract
            // and jump-tolerant re-arming as the trace sampler above.
            if let Some(s) = msampler.as_mut() {
                if s.sample_due(now) {
                    let l1: (u64, u64) = sms.iter().fold((0, 0), |(h, m), sm| {
                        (h + sm.l1.stats.l1_hits, m + sm.l1.stats.l1_misses)
                    });
                    s.sample(
                        now,
                        SampleCounts {
                            resident_warps: sms.iter().map(|sm| sm.warps.len()).sum(),
                            rt_busy: sms.iter().map(|sm| sm.rt.busy_warps()).sum(),
                            mem_queue: sms.iter().map(|sm| sm.mem_events.len()).sum(),
                            instructions: stats.instructions(),
                            l1_hits: l1.0,
                            l1_misses: l1.1,
                            l2_hits: global.stats.l2_hits,
                            l2_misses: global.stats.l2_misses,
                        },
                    );
                }
            }
            if sms.iter().all(|sm| sm.done_warps == sm.total_warps) {
                break;
            }

            // Forward-progress watchdog: nothing completed since the last
            // productive cycle, for longer than the configured window. The
            // RT units' micro-event counters keep slow traversals alive.
            let progress =
                retired_traces + sms.iter().map(|sm| sm.done_warps + sm.rt.progress()).sum::<u64>();
            if progress != last_progress {
                last_progress = progress;
                last_progress_cycle = now;
            } else if let Some(stall) = self.limits.stall_cycles {
                if now - last_progress_cycle >= stall {
                    return Err(SimFault::Stalled {
                        stall_cycles: stall,
                        at_cycle: now,
                        snapshot: snapshot(&sms, now),
                    });
                }
            }

            // Advance time to the first cycle at which some SM can act:
            // the next one while anything is issuable, else the earliest
            // completion event.
            now = match sms.iter().filter_map(|sm| sm.next_activity).min() {
                Some(c) => c,
                None => {
                    return Err(SimFault::Deadlock { at_cycle: now, snapshot: snapshot(&sms, now) })
                }
            };
            if now >= budget {
                return Err(SimFault::CycleBudget {
                    limit: budget,
                    at_cycle: now,
                    snapshot: snapshot(&sms, now),
                });
            }
        }

        stats.cycles = now;
        let mut thread_traces = Vec::new();
        let mut stack_metrics = sms_rtunit::StackMetrics::default();
        for (i, mut sm) in sms.into_iter().enumerate() {
            stats.mem.merge(&sm.l1.stats);
            if attribute {
                breakdown.merge(sm.rt.breakdown());
            }
            if let Some(m) = &sm.rt.stack_metrics {
                stack_metrics.merge(m);
            }
            if let Some(rec) = recorder.as_mut() {
                rec.add_slices(i, &sm.rt.take_slices());
            }
            if let Some(tr) = sm.rt.thread_traces {
                thread_traces.extend(tr.samples);
            }
        }
        stats.mem.merge(&global.stats);
        let breakdown = attribute.then(|| {
            // The taxonomy's conservation laws: every resident warp-cycle
            // and every RT-resident lane-cycle attributed exactly once, and
            // the two levels agree on RT residency.
            assert_eq!(
                breakdown.warp_sum(),
                breakdown.warp_cycles,
                "warp-level stall buckets must sum to resident warp-cycles"
            );
            assert_eq!(
                breakdown.lane_sum(),
                breakdown.rt_lane_cycles,
                "lane-level stall buckets must sum to RT-resident lane-cycles"
            );
            assert_eq!(
                breakdown.in_rt * WARP_SIZE as u64,
                breakdown.rt_lane_cycles,
                "warp-level and lane-level views must agree on RT residency"
            );
            breakdown
        });
        let metrics = self.limits.metrics.then(|| {
            Box::new(MetricsReport {
                stacks: stack_metrics,
                series: msampler.map(SeriesSampler::into_series).unwrap_or_default(),
                period: self.sample_period,
            })
        });
        if let Some(mut rec) = recorder {
            // With both layers armed, the sampled metrics series rides
            // along as a counter track in the trace file.
            if let Some(m) = &metrics {
                rec.add_counter_series(&m.series);
            }
            let b = breakdown.expect("tracing arms attribution");
            match rec.finish(now, &b) {
                Ok(path) => eprintln!("SMS_TRACE: wrote {}", path.display()),
                Err(e) => eprintln!("warning: SMS_TRACE: failed to write trace: {e}"),
            }
        }
        Ok(SimRun { stats, image, width: w, height: h, thread_traces, breakdown, metrics })
    }

    /// Consumes a trace result: shading (main) or shadow application.
    fn on_trace_result(
        warp: &mut WarpCtx,
        res: &TraceResult,
        scene: &sms_scene::Scene,
        max_depth: u32,
        shadow_on: bool,
    ) {
        match warp.step {
            Step::MainTrace => {
                warp.mat_loads.clear();
                for lane in 0..WARP_SIZE {
                    let Some(ray) = warp.rays[lane] else { continue };
                    let hit = res.hits[lane];
                    if let Some(h) = hit {
                        // Fetch the hit primitive's shading record (normals,
                        // uvs, material id): divergent per-lane addresses,
                        // as in a real PT hit shader.
                        warp.mat_loads.push(SHADE_BASE_ADDR + h.prim as u64 * 64);
                    }
                    let path = &mut warp.paths[lane];
                    let out = driver::shade(scene, path, &ray, hit, max_depth, shadow_on);
                    warp.shadow[lane] = out.shadow;
                    warp.bounce[lane] = out.bounce;
                }
            }
            Step::ShadowTrace => {
                for lane in 0..WARP_SIZE {
                    if let Some((_, contrib)) = warp.shadow[lane].take() {
                        driver::apply_shadow(&mut warp.paths[lane], contrib, res.occluded[lane]);
                    }
                }
            }
            _ => unreachable!("trace result in step {:?}", warp.step),
        }
    }

    /// Decides what follows a completed trace.
    fn advance_after_trace(warp: &mut WarpCtx, _scene: &sms_scene::Scene) {
        match warp.step {
            Step::MainTrace => {
                warp.step = Step::ShadeCompute;
                warp.phase = Phase::Compute { remaining: SHADE_COST };
            }
            Step::ShadowTrace => {
                warp.step = Step::AccumCompute;
                warp.phase = Phase::Compute { remaining: ACCUM_COST };
            }
            _ => unreachable!(),
        }
    }

    /// A compute phase finished: issue follow-up memory or traces.
    #[allow(clippy::too_many_arguments)]
    fn on_compute_done(
        warp: &mut WarpCtx,
        scene: &sms_scene::Scene,
        now: Cycle,
        l1: &mut SmL1,
        global: &mut GlobalMemory,
        image: &mut [Vec3],
        mem_events: &mut BinaryHeap<Reverse<(Cycle, WarpId)>>,
    ) {
        match warp.step {
            Step::GenCompute => {
                for lane in 0..WARP_SIZE {
                    warp.rays[lane] = if warp.paths[lane].alive {
                        Some(warp.paths[lane].primary_ray(scene))
                    } else {
                        None
                    };
                }
                Self::request_main_trace(warp);
            }
            Step::ShadeCompute => {
                if warp.mat_loads.is_empty() {
                    Self::after_shade_mem(warp, scene);
                } else {
                    let mut done = now + 1;
                    for line in coalesce_lines(warp.mat_loads.iter().map(|&a| (a, 64))) {
                        done = done.max(l1.access_line(global, line, AccessKind::Load, now, false));
                    }
                    warp.step = Step::ShadeMem;
                    warp.phase = Phase::WaitMem { done };
                    mem_events.push(Reverse((done, warp.id)));
                }
            }
            Step::AccumCompute => {
                Self::after_accum(warp, scene, now, l1, global, image);
            }
            _ => unreachable!("compute completion in step {:?}", warp.step),
        }
    }

    /// Material loads returned (or were skipped): shadow trace or accumulate.
    fn after_shade_mem(warp: &mut WarpCtx, _scene: &sms_scene::Scene) {
        let any_shadow = warp.shadow.iter().any(Option::is_some);
        if any_shadow {
            let rays: [Option<RayQuery>; WARP_SIZE] =
                std::array::from_fn(|l| warp.shadow[l].map(|(q, _)| q));
            warp.active = rays.iter().filter(|r| r.is_some()).count() as u32;
            warp.pending_req = Some(TraceRequest::new(warp.id, rays));
            warp.step = Step::ShadowTrace;
            warp.phase = Phase::TraceWait;
        } else {
            warp.step = Step::AccumCompute;
            warp.phase = Phase::Compute { remaining: ACCUM_COST };
        }
    }

    /// Accumulation finished: bounce or retire the warp.
    fn after_accum(
        warp: &mut WarpCtx,
        scene: &sms_scene::Scene,
        now: Cycle,
        l1: &mut SmL1,
        global: &mut GlobalMemory,
        image: &mut [Vec3],
    ) {
        let mut any = false;
        for lane in 0..WARP_SIZE {
            warp.rays[lane] = warp.bounce[lane].take();
            any |= warp.rays[lane].is_some();
        }
        if any {
            Self::request_main_trace(warp);
        } else {
            // Write radiance to the framebuffer (posted stores) and retire.
            let w = scene.camera.width;
            let stores = warp
                .paths
                .iter()
                .zip(&warp.real)
                .filter(|(_, &real)| real)
                .map(|(p, _)| (FRAMEBUFFER_BASE + (p.py * w + p.px) as u64 * 16, 16u32));
            for line in coalesce_lines(stores) {
                let _ = l1.access_line(global, line, AccessKind::Store, now, false);
            }
            for (p, &real) in warp.paths.iter().zip(&warp.real) {
                if real {
                    image[(p.py * w + p.px) as usize] += p.radiance;
                }
            }
            warp.step = Step::Finished;
            warp.phase = Phase::Done;
        }
    }

    fn request_main_trace(warp: &mut WarpCtx) {
        let rays: [Option<RayQuery>; WARP_SIZE] =
            std::array::from_fn(|l| warp.rays[l].map(|ray| RayQuery::nearest(ray, 0.0)));
        warp.active = rays.iter().filter(|r| r.is_some()).count() as u32;
        warp.pending_req = Some(TraceRequest::new(warp.id, rays));
        warp.step = Step::MainTrace;
        warp.phase = Phase::TraceWait;
    }
}

/// Formats the per-SM warp/RT-unit state dump attached to watchdog and
/// deadlock faults, so an aborted run can be diagnosed from its journal
/// entry alone.
fn snapshot(sms: &[Sm], now: Cycle) -> String {
    use std::fmt::Write as _;
    let mut out = format!("  state at cycle {now}:\n");
    for (i, sm) in sms.iter().enumerate() {
        let _ = writeln!(
            out,
            "  SM{i}: done {}/{}, pending {}, rt busy {}, rt issuable {}, rt next {:?}",
            sm.done_warps,
            sm.total_warps,
            sm.pending.len(),
            sm.rt.busy_warps(),
            sm.rt.has_issuable(),
            sm.rt.next_completion()
        );
        for warp in &sm.warps {
            let _ =
                writeln!(out, "    warp {} step {:?} phase {:?}", warp.id, warp.step, warp.phase);
        }
        out.push_str(&sm.rt.slot_summary());
    }
    out
}

/// Runs the workload and divides the framebuffer by the sample count,
/// yielding the same image as [`crate::render::render`].
pub fn run_to_image(prepared: &PreparedScene, config: &SimConfig) -> SimRun {
    let mut run = GpuSim::new(prepared, *config).run();
    let spp = config.render.spp(prepared.scene.id) as f32;
    for px in &mut run.image {
        *px /= spp;
    }
    run
}
