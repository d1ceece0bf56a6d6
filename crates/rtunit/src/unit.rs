//! The RT unit proper: warp buffer, traversal state machines, memory issue.
//!
//! Per cycle ([`RtUnit::tick`]):
//!
//! 1. **Operation commits** (all warps): a node operation whose data has
//!    arrived and whose unit latency has passed commits: intersected
//!    children are sorted nearest-first, the nearest is visited next, the
//!    rest are pushed; leaf hits shrink `t_max`; exhausted rays pop. Pushes
//!    and pops go through the [`WarpStacks`] stack manager, which emits
//!    timed memory micro-ops. Finished blocking stack micro-ops release
//!    their lanes.
//! 2. **Warp scheduling** (GTO, §II-B): one warp is scheduled; its threads'
//!    node fetches are collected and coalesced into line transactions, and
//!    the head stack micro-op of each stalled thread is issued — shared-
//!    memory ops batch into one warp-wide banked transaction, global ops
//!    coalesce by line. Loads block their thread; stores are posted. A
//!    fetched node's data passes through the response FIFO into the
//!    matching operation unit (ray-box for internal nodes, ray-triangle for
//!    leaves — §II-B), so its operation is worked out at issue and the lane
//!    waits once, until `arrival + unit latency`: the operation reads only
//!    the ray, the node and the lane's own `t_max`, which nothing but the
//!    lane's own commit changes.
//! 3. Completed warps retire and their [`TraceResult`] returns to the SM.
//!
//! Host-side scheduling is indexed by what can happen next: every wait
//! state (`TState`) transitions only at its recorded completion cycle, so
//! each warp slot keeps that cycle per lane (with the slot's minimum cached)
//! and one bitmask per issuable state. A tick with no due wake, no issuable
//! lane and no finished warp returns at once; phase 1 visits only the lanes
//! whose wake cycle has come, phase 2 walks the set bits, and the SM-facing
//! queries [`RtUnit::has_issuable`] / [`RtUnit::next_completion`] read the
//! masks and the cached minimum instead of rescanning all 128 thread
//! contexts — the transitions themselves are unchanged, so timing is
//! cycle-identical to the scanning implementation.

use crate::metrics::StackMetrics;
use crate::microop::{MicroOp, Space, StackLevel};
use crate::predictor::RayPredictor;
use crate::stack::{StackConfig, WarpStacks};
use crate::trace::{RayQuery, TraceRequest, TraceResult};
use crate::validator::StackViolation;
use sms_bvh::traverse::{LeafOutcome, NodeStep, QueryState, StacklessStep};
use sms_bvh::{BvhLayout, FlatBvh, Hit, NodeId, Primitive};
use sms_gpu::{GtoScheduler, SimStats, StallBreakdown, WarpId, WARP_SIZE};
use sms_mem::{coalesce_lines_into, AccessKind, Cycle, GlobalMemory, SharedMem, SmL1};

/// Static configuration of one RT unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtUnitConfig {
    /// Traversal-stack architecture.
    pub stack: StackConfig,
    /// Warp-buffer capacity (Table I: 4).
    pub max_warps: usize,
    /// Ray-box operation-unit latency in cycles.
    pub box_latency: u64,
    /// Ray-triangle operation-unit latency in cycles.
    pub tri_latency: u64,
    /// Attach a [`crate::validator::StackValidator`] to every admitted
    /// warp's stacks. Violations are latched (see [`RtUnit::take_violation`])
    /// instead of asserting; simulation results are unaffected either way.
    pub validate: bool,
    /// Attribute every resident lane-cycle to a [`StallBreakdown`] bucket.
    /// Pure observation, like `validate`: no counter, micro-op or timing
    /// decision changes whether this is on or off.
    pub attribute: bool,
    /// Record stack/traversal distributions into [`crate::StackMetrics`].
    /// Pure observation, like `validate` and `attribute`.
    pub metrics: bool,
}

impl RtUnitConfig {
    /// Table I defaults with the given stack architecture.
    pub fn new(stack: StackConfig) -> Self {
        RtUnitConfig {
            stack,
            max_warps: 4,
            box_latency: 10,
            tri_latency: 20,
            validate: false,
            attribute: false,
            metrics: false,
        }
    }
}

/// Records per-thread depth traces for the paper's Fig. 10: one sample at
/// every push and pop (over all warps, the depths of Figs. 4/5), logged by
/// each traced warp's stacks and appended here when its trace retires.
#[derive(Debug, Clone, Default)]
pub struct ThreadTraceRecorder {
    /// Record only warps with id below this bound.
    pub warp_limit: WarpId,
    /// `(warp, lane, access index, depth after op)` samples. A thread's
    /// access index runs across every trace its warp issues in the run.
    pub samples: Vec<(WarpId, u8, u32, u16)>,
    /// The next access index of each recorded warp's lanes.
    next_index: Vec<[u32; WARP_SIZE]>,
}

impl ThreadTraceRecorder {
    /// Records the first `warp_limit` warps.
    pub fn new(warp_limit: WarpId) -> Self {
        ThreadTraceRecorder { warp_limit, ..Self::default() }
    }

    /// Appends one retired trace's `(lane, depth)` log, numbering each
    /// thread's accesses on from the warp's earlier traces.
    fn append(&mut self, warp: WarpId, log: &[(u8, u16)]) {
        let w = warp as usize;
        if self.next_index.len() <= w {
            self.next_index.resize(w + 1, [0; WARP_SIZE]);
        }
        let next = &mut self.next_index[w];
        for &(lane, depth) in log {
            let index = &mut next[usize::from(lane)];
            self.samples.push((warp, lane, *index, depth));
            *index += 1;
        }
    }
}

/// Per-thread traversal state.
#[derive(Debug, Clone, Copy)]
enum TState {
    /// Has a current node; needs its data fetched.
    NeedFetch,
    /// Node visit in flight: the fetched data arrives at the lane's
    /// [`WarpSlot::fetched`] cycle, passes through the operation unit, and
    /// [`ThreadCtx::step`] commits at `done`.
    OpWait { done: Cycle },
    /// Stack micro-ops pending; head not yet issued.
    StackIssue,
    /// Head stack micro-op (a load) in flight.
    StackWait { done: Cycle },
    /// Traversal finished (or lane inactive).
    Idle,
}

/// Result of one node operation, under either traversal discipline. A
/// stacked visit ([`NodeStep`]) tests *child* boxes and pushes/pops; a
/// stackless visit ([`StacklessStep`]) tests the node's *own* box and
/// follows first-child / escape links, touching no stack at all.
#[derive(Debug, Clone)]
enum StepOutcome {
    Stacked(NodeStep),
    Stackless(StacklessStep),
}

/// How a finishing lane leaves its stacks ([`RtUnit::finish_lane`]).
#[derive(Debug, Clone, Copy)]
enum LaneEnd {
    /// The walk ran out (or a stackless / predicted walk ended): the empty
    /// stack is released (its SH stack may be borrowed, §VI-B).
    Exhausted,
    /// A stacked any-hit query hit: its entries are discarded in place.
    Occluded,
}

#[derive(Debug, Clone)]
struct ThreadCtx {
    query: Option<RayQuery>,
    /// What the query has found so far (the leaf rule's state).
    result: QueryState,
    state: TState,
    /// The node operation in flight while `state` is `OpWait`.
    step: Option<StepOutcome>,
    /// The node to visit next; `None` once the lane is done (or inactive).
    current: Option<NodeId>,
    ops: std::collections::VecDeque<MicroOp>,
    /// `true` while the lane is probing the predictor's guessed leaf
    /// (`PRED_*` only); cleared when the probe confirms or mispredicts.
    speculative: bool,
    /// The ray's predictor hash, computed once at admission (`PRED_*`).
    pred_hash: u64,
    /// Leaf that produced the ray's current best hit (or its occlusion
    /// hit); written back to the predictor table at warp retirement.
    hit_leaf: Option<NodeId>,
}

/// Attribution class of one lane's *current* interval. The class is set
/// when the lane transitions and the interval is charged to the matching
/// [`StallBreakdown`] bucket when the next transition flushes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneClass {
    /// Issuable (`NeedFetch` / `StackIssue`) but not yet scheduled.
    SchedWait,
    /// Node fetch in flight, served by the L1. The three fetch classes
    /// end at the lane's data arrival; the rest of the visit is `OpWait`.
    FetchL1,
    /// Node fetch in flight, served by the L2.
    FetchL2,
    /// Node fetch in flight, served by DRAM.
    FetchDram,
    /// Ray-box / ray-triangle operation unit busy.
    OpWait,
    /// Blocking RB↔SH stack micro-op in flight.
    StackRbSh,
    /// Blocking SH↔global (or RB↔global) stack micro-op in flight.
    StackShGlobal,
    /// Blocking phase of an RA flush burst in flight.
    StackFlush,
    /// Speculative predictor probe in flight (fetch or operation wait of
    /// the predicted-leaf visit, confirmed or not).
    Predictor,
    /// Lane finished (or inactive in the request).
    Idle,
}

/// Per-slot lane-attribution state. Boxed behind an `Option` so an
/// attribution-off run pays one pointer per slot and no per-cycle work.
#[derive(Debug)]
struct SlotAttr {
    /// Start of each lane's current interval.
    since: [Cycle; WARP_SIZE],
    /// Class each lane's current interval will be charged to.
    class: [LaneClass; WARP_SIZE],
    /// Bank-conflict replay cycles to carve out of the lane's current
    /// stack-wait interval when it flushes.
    pending_conflict: [u64; WARP_SIZE],
    breakdown: StallBreakdown,
}

impl SlotAttr {
    fn new(now: Cycle, threads: &[ThreadCtx]) -> Self {
        SlotAttr {
            since: [now; WARP_SIZE],
            class: std::array::from_fn(|lane| {
                if threads[lane].current.is_none() {
                    LaneClass::Idle
                } else {
                    LaneClass::SchedWait
                }
            }),
            pending_conflict: [0; WARP_SIZE],
            breakdown: StallBreakdown::default(),
        }
    }

    /// Charges the lane's interval `[since, now)` to its current class. A
    /// node visit's interval splits at its data's arrival `fetched`: the
    /// fetch class takes `[since, fetched)` and the operation unit the rest.
    fn flush_lane(&mut self, lane: usize, now: Cycle, fetched: Cycle) {
        let fetching = matches!(
            self.class[lane],
            LaneClass::FetchL1 | LaneClass::FetchL2 | LaneClass::FetchDram
        );
        if fetching && fetched < now {
            self.charge(lane, fetched);
            self.class[lane] = LaneClass::OpWait;
        }
        self.charge(lane, now);
    }

    /// Charges `[since, now)` to the lane's current class.
    fn charge(&mut self, lane: usize, now: Cycle) {
        let dt = now - self.since[lane];
        self.since[lane] = now;
        if dt == 0 {
            return;
        }
        let b = &mut self.breakdown;
        match self.class[lane] {
            LaneClass::SchedWait => b.rt_sched_wait += dt,
            LaneClass::FetchL1 => b.fetch_wait_l1 += dt,
            LaneClass::FetchL2 => b.fetch_wait_l2 += dt,
            LaneClass::FetchDram => b.fetch_wait_dram += dt,
            LaneClass::OpWait => b.op_wait += dt,
            LaneClass::Predictor => b.predictor_wait += dt,
            LaneClass::Idle => b.rt_idle += dt,
            stack @ (LaneClass::StackRbSh | LaneClass::StackShGlobal | LaneClass::StackFlush) => {
                let replay = dt.min(self.pending_conflict[lane]);
                self.pending_conflict[lane] = 0;
                b.bank_conflict_replay += replay;
                let rest = dt - replay;
                match stack {
                    LaneClass::StackRbSh => b.stack_wait_rb_sh += rest,
                    LaneClass::StackShGlobal => b.stack_wait_sh_global += rest,
                    _ => b.stack_wait_flush += rest,
                }
            }
        }
    }

    /// Final flush at warp retirement: closes every lane interval, records
    /// the total, and checks the conservation law for this warp.
    fn finish(&mut self, now: Cycle, slot: &WarpSlot) -> &StallBreakdown {
        let (admitted_at, warp) = (slot.admitted_at, slot.warp);
        for lane in 0..WARP_SIZE {
            self.flush_lane(lane, now, slot.fetched[lane]);
        }
        self.breakdown.rt_lane_cycles = (now - admitted_at) * WARP_SIZE as u64;
        assert_eq!(
            self.breakdown.lane_sum(),
            self.breakdown.rt_lane_cycles,
            "warp {warp}: lane-attribution buckets must sum to resident lane-cycles"
        );
        &self.breakdown
    }
}

/// The class a blocking stack micro-op's wait is charged to.
fn stack_class(level: StackLevel) -> LaneClass {
    match level {
        StackLevel::RbSh => LaneClass::StackRbSh,
        StackLevel::ShGlobal => LaneClass::StackShGlobal,
        StackLevel::Flush => LaneClass::StackFlush,
    }
}

/// `WarpSlot::wake` of a lane that is not in a wait state.
const NOT_WAITING: Cycle = Cycle::MAX;

#[derive(Debug)]
struct WarpSlot {
    warp: WarpId,
    /// Cycle the warp was admitted to the warp buffer.
    admitted_at: Cycle,
    stacks: WarpStacks,
    threads: Vec<ThreadCtx>,
    done_count: usize,
    /// Completion cycle of each lane's in-flight wait; `NOT_WAITING` for a
    /// lane in any other state.
    wake: [Cycle; WARP_SIZE],
    /// The earliest entry of `wake`. It may lag behind (too early) while
    /// phase 1 consumes due wakes, which recomputes it before returning.
    next_wake: Cycle,
    /// Arrival cycle of each lane's latest node fetch; an `OpWait` lane
    /// commits its latency after it.
    fetched: [Cycle; WARP_SIZE],
    /// Lanes in `NeedFetch`, one bit each.
    need_fetch: u32,
    /// Lanes in `StackIssue`, one bit each.
    stack_issue: u32,
    /// Cycle-attribution state; `None` unless `RtUnitConfig::attribute`.
    attr: Option<Box<SlotAttr>>,
}

impl WarpSlot {
    /// Routes every post-admission thread state change, keeping the
    /// issuable-lane masks and the wake cycles in sync. The
    /// attribution class is derived from the new state; issue sites that
    /// know more (which memory level serves a wait) use
    /// [`WarpSlot::transition_traced`] instead.
    fn transition(&mut self, now: Cycle, lane: usize, state: TState) {
        if self.attr.is_some() {
            let class = match state {
                TState::NeedFetch | TState::StackIssue => LaneClass::SchedWait,
                TState::Idle => LaneClass::Idle,
                // Issue sites classify these via transition_traced; the
                // fallbacks here are never reached on those paths.
                TState::OpWait { .. } => LaneClass::OpWait,
                TState::StackWait { .. } => LaneClass::StackRbSh,
            };
            self.note_class(now, lane, class);
        }
        self.apply_transition(lane, state);
    }

    /// [`WarpSlot::transition`] with an explicit attribution class, for
    /// issue sites that know which memory level serves the wait.
    fn transition_traced(&mut self, now: Cycle, lane: usize, state: TState, class: LaneClass) {
        if self.attr.is_some() {
            self.note_class(now, lane, class);
        }
        self.apply_transition(lane, state);
    }

    fn note_class(&mut self, now: Cycle, lane: usize, class: LaneClass) {
        if let Some(attr) = &mut self.attr {
            attr.flush_lane(lane, now, self.fetched[lane]);
            attr.class[lane] = class;
        }
    }

    fn apply_transition(&mut self, lane: usize, state: TState) {
        let bit = 1u32 << lane;
        self.need_fetch &= !bit;
        self.stack_issue &= !bit;
        self.wake[lane] = match state {
            TState::NeedFetch => {
                self.need_fetch |= bit;
                NOT_WAITING
            }
            TState::StackIssue => {
                self.stack_issue |= bit;
                NOT_WAITING
            }
            TState::OpWait { done } | TState::StackWait { done } => done,
            TState::Idle => NOT_WAITING,
        };
        self.next_wake = self.next_wake.min(self.wake[lane]);
        self.threads[lane].state = state;
    }

    /// `true` when some lane could issue work if this warp were scheduled.
    fn issuable(&self) -> bool {
        self.need_fetch | self.stack_issue != 0
    }

    /// The earliest in-flight completion, if any lane is waiting.
    fn next_completion(&self) -> Option<Cycle> {
        (self.next_wake != NOT_WAITING).then_some(self.next_wake)
    }
}

/// The lanes whose bit is set in `mask`, ascending.
fn set_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let lane = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            lane
        })
    })
}

/// One lane's pending node fetch: at most two `(addr, bytes)` spans (the
/// node record, plus the primitive records for leaves).
#[derive(Debug, Clone, Copy)]
struct FetchSpans {
    lane: usize,
    spans: [(u64, u32); 2],
    len: usize,
}

/// Reusable per-issue working buffers: one warp issue per cycle needs a
/// handful of scratch lists, reused across cycles instead of reallocated.
#[derive(Debug, Default)]
struct IssueScratch {
    /// Pending node fetches of lanes in `NeedFetch`.
    fetch_lanes: Vec<FetchSpans>,
    /// Distinct lines touched by the whole warp's fetches.
    all_lines: Vec<u64>,
    /// Distinct lines of one lane's accesses.
    lane_lines: Vec<u64>,
    /// `line -> completion` map for this issue (small; linear scan).
    line_done: Vec<(u64, Cycle)>,
    /// Attribution class per entry of `line_done` (fetch path only).
    line_class: Vec<LaneClass>,
    /// `(lane, blocking)` for shared-space stack ops.
    shared_batch: Vec<(usize, bool)>,
    /// Gathered shared-space addresses for the warp-wide banked access.
    shared_addrs: Vec<(u64, u32)>,
    /// Lanes with global-space stack ops, in lane order.
    global_lanes: Vec<usize>,
}

/// One retired warp's residency interval in an RT-unit slot, for the
/// Chrome-trace export (`SMS_TRACE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RtSlice {
    /// Warp-buffer slot index (one trace track per slot).
    pub slot: u8,
    /// The warp that was resident.
    pub warp: WarpId,
    /// Admission cycle.
    pub start: Cycle,
    /// Retirement cycle.
    pub end: Cycle,
}

/// One ray-tracing acceleration unit (one per SM, Table I).
#[derive(Debug)]
pub struct RtUnit {
    config: RtUnitConfig,
    slots: Vec<Option<WarpSlot>>,
    /// Occupied entries of `slots`.
    resident: usize,
    sched: GtoScheduler,
    shared_stride: u64,
    scratch: IssueScratch,
    op_buf: Vec<MicroOp>,
    /// Stack/traversal distributions (when [`RtUnitConfig::metrics`]).
    pub stack_metrics: Option<Box<StackMetrics>>,
    /// Optional per-thread traces (Fig. 10).
    pub thread_traces: Option<ThreadTraceRecorder>,
    /// First invariant violation observed by any warp's validator.
    violation: Option<StackViolation>,
    /// Lane-level attribution accumulated from retired warps
    /// ([`RtUnitConfig::attribute`] only).
    breakdown: StallBreakdown,
    /// Micro-events (issued node fetches, operation commits, finished stack
    /// ops): the fine-grained forward-progress signal the stall
    /// watchdog reads, so a single long-but-live trace is not mistaken for
    /// a livelock.
    progress: u64,
    /// Warp-residency intervals of retired warps, recorded when slice
    /// recording is enabled (implies attribution).
    slices: Option<Vec<RtSlice>>,
    /// Ray-path prediction table; `Some` only for `PRED_*` configurations.
    predictor: Option<Box<RayPredictor>>,
}

impl RtUnit {
    /// Creates an idle RT unit.
    pub fn new(config: RtUnitConfig) -> Self {
        RtUnit {
            shared_stride: config.stack.shared_bytes_per_warp(),
            slots: (0..config.max_warps).map(|_| None).collect(),
            resident: 0,
            sched: GtoScheduler::new(),
            stack_metrics: config.metrics.then(Box::default),
            config,
            scratch: IssueScratch::default(),
            op_buf: Vec::new(),
            thread_traces: None,
            violation: None,
            breakdown: StallBreakdown::default(),
            progress: 0,
            slices: None,
            predictor: config.stack.predictor_bits().map(|bits| Box::new(RayPredictor::new(bits))),
        }
    }

    /// Takes the first invariant violation seen so far, if any. Only ever
    /// `Some` when [`RtUnitConfig::validate`] is set.
    pub fn take_violation(&mut self) -> Option<StackViolation> {
        self.violation.take()
    }

    /// Lane-level stall attribution of all warps retired so far. All zeros
    /// unless [`RtUnitConfig::attribute`] is set.
    pub fn breakdown(&self) -> &StallBreakdown {
        &self.breakdown
    }

    /// Monotonic count of micro-events (issued node fetches, node
    /// operations, stack micro-ops) — the watchdog's progress signal.
    pub fn progress(&self) -> u64 {
        self.progress
    }

    /// Starts recording per-warp residency slices for the trace export.
    /// Requires [`RtUnitConfig::attribute`] (slices reuse its timestamps).
    pub fn record_slices(&mut self) {
        assert!(self.config.attribute, "slice recording requires attribution");
        self.slices = Some(Vec::new());
    }

    /// Drains the recorded residency slices.
    pub fn take_slices(&mut self) -> Vec<RtSlice> {
        self.slices.as_mut().map(std::mem::take).unwrap_or_default()
    }

    /// One-line-per-warp summary of resident warp state, for watchdog
    /// diagnostics. Empty string when the unit is idle.
    pub fn slot_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for slot in self.slots.iter().flatten() {
            let next = slot.next_completion();
            let depths: usize = (0..WARP_SIZE).map(|l| slot.stacks.depth(l)).sum();
            let _ = writeln!(
                out,
                "      warp {}: done {}/{}, issuable {}, next event {:?}, total depth {}",
                slot.warp,
                slot.done_count,
                WARP_SIZE,
                (slot.need_fetch | slot.stack_issue).count_ones(),
                next,
                depths
            );
        }
        out
    }

    /// The configuration in use.
    pub fn config(&self) -> &RtUnitConfig {
        &self.config
    }

    /// Number of warps currently resident.
    pub fn busy_warps(&self) -> usize {
        self.resident
    }

    /// `true` when a new warp can be admitted.
    pub fn has_free_slot(&self) -> bool {
        self.resident < self.config.max_warps
    }

    /// Admits a warp trace request into the warp buffer at cycle `now`.
    ///
    /// Returns the request back when the buffer is full.
    // The Err variant hands the (large, by-value) request back for a
    // retry; callers gate on `has_free_slot`, so that path is cold.
    #[allow(clippy::result_large_err)]
    pub fn try_admit(
        &mut self,
        now: Cycle,
        req: TraceRequest,
        stats: &mut SimStats,
    ) -> Result<(), TraceRequest> {
        let Some(slot_idx) = self.slots.iter().position(Option::is_none) else {
            return Err(req);
        };
        let region_base = slot_idx as u64 * self.shared_stride;
        let tid_base = req.warp * WARP_SIZE as u32;
        let mut stacks = WarpStacks::new(&self.config.stack, region_base, tid_base);
        if self.config.validate {
            stacks.enable_validator();
        }
        if self.config.metrics {
            stacks.enable_metrics();
        }
        if self.thread_traces.as_ref().is_some_and(|t| req.warp < t.warp_limit) {
            stacks.enable_depth_log();
        }
        let mut threads = Vec::with_capacity(WARP_SIZE);
        for query in req.rays {
            match query {
                Some(q) if q.any_hit => stats.shadow_rays += 1,
                Some(_) => stats.rays_traced += 1,
                None => {}
            }
            // A predictor hit starts the ray at the predicted leaf
            // (speculative probe); otherwise at the root.
            let (predicted, pred_hash) = match (&self.predictor, query) {
                (Some(pred), Some(q)) => {
                    let hash = RayPredictor::hash(&q.ray);
                    (pred.predict(hash), hash)
                }
                _ => (None, 0),
            };
            threads.push(ThreadCtx {
                query,
                result: query.map(|q| q.start()).unwrap_or_default(),
                state: if query.is_some() { TState::NeedFetch } else { TState::Idle },
                step: None,
                current: query.map(|_| predicted.unwrap_or(0)),
                ops: std::collections::VecDeque::new(),
                speculative: predicted.is_some(),
                pred_hash,
                hit_leaf: None,
            });
        }
        // Inactive lanes release their SH stacks to the idle pool at once.
        let attr = self.config.attribute.then(|| Box::new(SlotAttr::new(now, &threads)));
        let mut slot = WarpSlot {
            warp: req.warp,
            admitted_at: now,
            stacks,
            threads,
            done_count: WARP_SIZE - req.active_lanes(),
            wake: [NOT_WAITING; WARP_SIZE],
            next_wake: NOT_WAITING,
            fetched: [0; WARP_SIZE],
            need_fetch: 0,
            stack_issue: 0,
            attr,
        };
        for lane in 0..WARP_SIZE {
            if slot.threads[lane].current.is_none() {
                slot.stacks.mark_done(lane);
            } else {
                slot.need_fetch |= 1 << lane;
            }
        }
        self.slots[slot_idx] = Some(slot);
        self.resident += 1;
        Ok(())
    }

    /// `true` when some thread could issue work if its warp were scheduled.
    pub fn has_issuable(&self) -> bool {
        self.slots.iter().flatten().any(WarpSlot::issuable)
    }

    /// The earliest future cycle at which some waiting thread completes,
    /// if any thread is waiting.
    pub fn next_completion(&self) -> Option<Cycle> {
        self.slots.iter().flatten().filter_map(WarpSlot::next_completion).min()
    }

    /// Advances the RT unit by one cycle. Returns trace results of warps
    /// that completed this cycle.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware port list
    pub fn tick<P: Primitive>(
        &mut self,
        now: Cycle,
        bvh: &FlatBvh,
        prims: &[P],
        l1: &mut SmL1,
        shared: &mut SharedMem,
        global: &mut GlobalMemory,
        stats: &mut SimStats,
    ) -> Vec<TraceResult> {
        // Nothing can change state this cycle unless a wait completes, a
        // lane can issue, or a warp is ready to retire (which includes one
        // admitted with no active lane).
        let busy = |s: &WarpSlot| s.next_wake <= now || s.issuable() || s.done_count == WARP_SIZE;
        if !self.slots.iter().flatten().any(busy) {
            return Vec::new();
        }

        // Phase 1: operation commits and finished stack micro-ops. Wait
        // states only transition at their recorded completion cycle, so a
        // slot whose earliest wake is still in the future has nothing to do.
        let mut op_buf = std::mem::take(&mut self.op_buf);
        for slot in self.slots.iter_mut().flatten() {
            if slot.next_wake <= now {
                Self::advance_threads(slot, now, stats, &mut op_buf, &mut self.progress);
            }
        }
        self.op_buf = op_buf;

        // Phase 2: schedule one warp (GTO) and issue its memory work.
        let ready = self.slots.iter().flatten().filter(|s| s.issuable()).map(|s| s.warp);
        if let Some(warp) = self.sched.pick(ready) {
            let mut scratch = std::mem::take(&mut self.scratch);
            let slot = self
                .slots
                .iter_mut()
                .flatten()
                .find(|s| s.warp == warp)
                .expect("scheduled warp resident");
            Self::issue_warp(
                slot,
                now,
                &self.config,
                bvh,
                prims,
                l1,
                shared,
                global,
                stats,
                &mut scratch,
                &mut self.progress,
            );
            self.scratch = scratch;
        }

        // Latch the first invariant violation before retiring warps, so a
        // violation on a warp's final transition is not lost with its slot.
        if self.config.validate && self.violation.is_none() {
            for slot in self.slots.iter_mut().flatten() {
                if let Some(v) = slot.stacks.take_violation() {
                    self.violation = Some(v);
                    break;
                }
            }
        }

        // Phase 3: retire completed warps.
        let mut results = Vec::new();
        for idx in 0..self.slots.len() {
            let entry = &mut self.slots[idx];
            let finished = entry.as_ref().map(|s| s.done_count == WARP_SIZE).unwrap_or(false);
            if finished {
                let mut slot = entry.take().expect("checked above");
                self.resident -= 1;
                self.sched.evict(slot.warp);
                if let Some(pred) = &mut self.predictor {
                    // Train on retirement: each finished ray records the
                    // leaf that produced its final (or occluding) hit.
                    for t in &slot.threads {
                        if let (Some(_), Some(leaf)) = (t.query, t.hit_leaf) {
                            pred.update(t.pred_hash, leaf);
                        }
                    }
                }
                if let Some(mut attr) = slot.attr.take() {
                    self.breakdown.merge(attr.finish(now, &slot));
                    if let Some(slices) = &mut self.slices {
                        slices.push(RtSlice {
                            slot: idx as u8,
                            warp: slot.warp,
                            start: slot.admitted_at,
                            end: now,
                        });
                    }
                }
                if let Some(record) = slot.stacks.take_record() {
                    if let (Some(m), Some(all)) = (&record.metrics, &mut self.stack_metrics) {
                        all.merge(m);
                    }
                    if let (Some(log), Some(tr)) = (&record.depths, &mut self.thread_traces) {
                        tr.append(slot.warp, log);
                    }
                }
                results.push(TraceResult {
                    warp: slot.warp,
                    hits: std::array::from_fn(|l| slot.threads[l].result.best),
                    occluded: std::array::from_fn(|l| slot.threads[l].result.occluded),
                });
            }
        }
        results
    }

    /// Phase 1: state transitions that do not need the warp scheduler.
    fn advance_threads(
        slot: &mut WarpSlot,
        now: Cycle,
        stats: &mut SimStats,
        op_buf: &mut Vec<MicroOp>,
        progress: &mut u64,
    ) {
        for lane in 0..WARP_SIZE {
            // Ascending lane order: commits borrow and release SH stacks,
            // so the order in which due lanes commit is observable.
            while slot.wake[lane] <= now {
                match slot.threads[lane].state {
                    TState::OpWait { .. } => {
                        // The commit sets the next state; that transition
                        // replaces the consumed wake cycle and flushes the
                        // OpWait interval.
                        let step = slot.threads[lane].step.take().expect("OpWait holds its step");
                        stats.node_visits += 1;
                        *progress += 1; // node operation committed
                        match step {
                            StepOutcome::Stacked(step) if slot.threads[lane].speculative => {
                                Self::resolve_speculation(slot, now, lane, step, stats);
                            }
                            StepOutcome::Stacked(step) => {
                                Self::commit_step(slot, now, lane, step, stats, op_buf);
                            }
                            StepOutcome::Stackless(step) => {
                                Self::commit_stackless(slot, now, lane, step);
                            }
                        }
                    }
                    TState::StackWait { .. } => {
                        slot.threads[lane].ops.pop_front();
                        *progress += 1; // blocking stack micro-op completed
                        let next = Self::after_ops_state(&slot.threads[lane]);
                        slot.transition(now, lane, next);
                    }
                    TState::NeedFetch | TState::StackIssue | TState::Idle => {
                        unreachable!("only wait states carry a wake cycle")
                    }
                }
            }
        }
        slot.next_wake = slot.wake.iter().copied().min().expect("a warp has lanes");
    }

    /// The state a thread enters once its current micro-op finished.
    fn after_ops_state(t: &ThreadCtx) -> TState {
        if !t.ops.is_empty() {
            TState::StackIssue
        } else if t.current.is_none() {
            TState::Idle
        } else {
            TState::NeedFetch
        }
    }

    /// Ends a lane's traversal: the one "lane done" path of every commit.
    /// The ray's latency is stamped on its stacks' record.
    fn finish_lane(slot: &mut WarpSlot, now: Cycle, lane: usize, end: LaneEnd) {
        let t = &mut slot.threads[lane];
        t.current = None;
        let next = match end {
            LaneEnd::Exhausted => {
                slot.stacks.mark_done(lane);
                TState::Idle
            }
            LaneEnd::Occluded => {
                slot.stacks.clear_lane(lane);
                Self::after_ops_state(t)
            }
        };
        slot.done_count += 1;
        slot.stacks.ray_done(lane, now - slot.admitted_at);
        slot.transition(now, lane, next);
    }

    /// Applies a leaf's hit to the lane's query ([`RayQuery::apply_leaf`],
    /// the rule every traversal shares). A hit the query keeps records the
    /// leaf for the predictor.
    fn apply_leaf(t: &mut ThreadCtx, hit: Option<Hit>) -> LeafOutcome {
        let q = t.query.as_ref().expect("active thread");
        let outcome = q.apply_leaf(&mut t.result, hit);
        if outcome != LeafOutcome::Ignored {
            t.hit_leaf = t.current;
        }
        outcome
    }

    /// Resolves a `PRED_*` lane's speculative predicted-leaf probe.
    ///
    /// * Any-hit query whose predicted leaf produced a hit: the ray is
    ///   occluded and retires right here — the probe replaced the whole
    ///   traversal (`pred_hits`).
    /// * Nearest query whose predicted leaf produced a hit: the hit primes
    ///   `t_max`/`best`, then the full stacked traversal re-runs from the
    ///   root with the tightened interval culling subtrees (`pred_hits`).
    /// * No hit in the predicted leaf: pure overhead; restart from the
    ///   root as if no prediction existed (`pred_misses`).
    fn resolve_speculation(
        slot: &mut WarpSlot,
        now: Cycle,
        lane: usize,
        step: NodeStep,
        stats: &mut SimStats,
    ) {
        let t = &mut slot.threads[lane];
        t.speculative = false;
        let hit = match step {
            NodeStep::Leaf(hit) => hit,
            NodeStep::Inner(_) => None,
        };
        if hit.is_some() {
            stats.pred_hits += 1;
        } else {
            stats.pred_misses += 1;
        }
        if Self::apply_leaf(t, hit) == LeafOutcome::Occluded {
            return Self::finish_lane(slot, now, lane, LaneEnd::Exhausted);
        }
        slot.threads[lane].current = Some(0);
        slot.transition(now, lane, TState::NeedFetch);
    }

    /// Applies a completed *stackless* node visit: follow the descend /
    /// escape link, with the leaf rule of the stacked path. No stack
    /// exists, so there are no micro-ops and no spills — the only cost is
    /// the extra node visits the escape order incurs.
    fn commit_stackless(slot: &mut WarpSlot, now: Cycle, lane: usize, step: StacklessStep) {
        let next_node = match step {
            StacklessStep::Descend { child } => Some(child),
            StacklessStep::Leaf { hit, escape } => {
                if Self::apply_leaf(&mut slot.threads[lane], hit) == LeafOutcome::Occluded {
                    None
                } else {
                    escape
                }
            }
            StacklessStep::Miss { escape } => escape,
        };
        match next_node {
            Some(node) => {
                slot.threads[lane].current = Some(node);
                slot.transition(now, lane, TState::NeedFetch);
            }
            None => Self::finish_lane(slot, now, lane, LaneEnd::Exhausted),
        }
    }

    /// Applies a completed node visit: child ordering, stack pushes/pops,
    /// the leaf rule (§II-B "BVH operation complete" path).
    fn commit_step(
        slot: &mut WarpSlot,
        now: Cycle,
        lane: usize,
        step: NodeStep,
        stats: &mut SimStats,
        new_ops: &mut Vec<MicroOp>,
    ) {
        new_ops.clear();
        let visit = match step {
            NodeStep::Inner(hits) if !hits.is_empty() => {
                // Push the non-nearest intersected children far-to-near.
                for i in (1..hits.len()).rev() {
                    slot.stacks.push(lane, hits.get(i).1, stats, new_ops);
                }
                Some(hits.get(0).1)
            }
            NodeStep::Inner(_) => None,
            NodeStep::Leaf(hit) => {
                if Self::apply_leaf(&mut slot.threads[lane], hit) == LeafOutcome::Occluded {
                    // Occlusion query: terminate immediately.
                    return Self::finish_lane(slot, now, lane, LaneEnd::Occluded);
                }
                None
            }
        };
        let visit = match visit {
            Some(node) => node,
            None if slot.stacks.is_empty(lane) => {
                return Self::finish_lane(slot, now, lane, LaneEnd::Exhausted);
            }
            None => slot.stacks.pop(lane, stats, new_ops),
        };
        slot.threads[lane].current = Some(visit);
        slot.threads[lane].ops.extend(new_ops.drain(..));
        let next = Self::after_ops_state(&slot.threads[lane]);
        slot.transition(now, lane, next);
    }

    /// Ranks fetch classes so a lane waiting on several lines is charged
    /// to the slowest level among the lines that bound its wait.
    fn fetch_rank(class: LaneClass) -> u8 {
        match class {
            LaneClass::FetchDram => 2,
            LaneClass::FetchL2 => 1,
            _ => 0,
        }
    }

    /// Classifies which level served a fetched line, from the hit/miss
    /// counter deltas around its `access_line` call (pure observation). A
    /// ride-along on an in-flight MSHR line bumps no counter; its level is
    /// estimated from the remaining wait.
    fn classify_fetch(
        l1: &SmL1,
        global: &GlobalMemory,
        counters_before: (u64, u64, u64, u64),
        now: Cycle,
        done: Cycle,
    ) -> LaneClass {
        let (l1_hits, l1_misses, l2_hits, l2_misses) = counters_before;
        if global.stats.l2_misses > l2_misses {
            LaneClass::FetchDram
        } else if global.stats.l2_hits > l2_hits {
            LaneClass::FetchL2
        } else if l1.stats.l1_hits > l1_hits || l1.stats.l1_misses == l1_misses {
            // A hit — or no lookup at all (L1 MSHR ride-along with a short
            // remaining wait falls through to the estimate below).
            if l1.stats.l1_hits > l1_hits {
                LaneClass::FetchL1
            } else {
                let wait = done.saturating_sub(now);
                if wait > l1.config().latency + global.config().l2_latency {
                    LaneClass::FetchDram
                } else if wait > l1.config().latency {
                    LaneClass::FetchL2
                } else {
                    LaneClass::FetchL1
                }
            }
        } else {
            // L1 miss that merged into an in-flight L2/DRAM fetch.
            let wait = done.saturating_sub(now);
            if wait > l1.config().latency + global.config().l2_latency {
                LaneClass::FetchDram
            } else {
                LaneClass::FetchL2
            }
        }
    }

    /// The operation a lane's fetched node feeds, and the latency of the
    /// unit that runs it.
    fn node_operation<P: Primitive>(
        config: &RtUnitConfig,
        bvh: &FlatBvh,
        prims: &[P],
        t: &ThreadCtx,
    ) -> (StepOutcome, Cycle) {
        let node = t.current.expect("fetching requires a node");
        let q = t.query.expect("active thread has a query");
        let (ray, t_min, t_max) = (&q.ray, q.t_min, t.result.t_max);
        let step = if config.stack.is_stackless() {
            StepOutcome::Stackless(bvh.stackless_step(prims, ray, node, t_min, t_max))
        } else {
            StepOutcome::Stacked(bvh.node_step(prims, ray, node, t_min, t_max))
        };
        // Only a leaf's primitive tests reach the triangle unit; an own-box
        // miss, even on a leaf, is a box test.
        let lat = match step {
            StepOutcome::Stacked(NodeStep::Leaf(_))
            | StepOutcome::Stackless(StacklessStep::Leaf { .. }) => config.tri_latency,
            _ => config.box_latency,
        };
        (step, lat)
    }

    /// Phase 2: issue the scheduled warp's node fetches and stack micro-ops.
    #[allow(clippy::too_many_arguments)]
    fn issue_warp<P: Primitive>(
        slot: &mut WarpSlot,
        now: Cycle,
        config: &RtUnitConfig,
        bvh: &FlatBvh,
        prims: &[P],
        l1: &mut SmL1,
        shared: &mut SharedMem,
        global: &mut GlobalMemory,
        stats: &mut SimStats,
        sc: &mut IssueScratch,
        progress: &mut u64,
    ) {
        // --- Node fetches: collect, coalesce, issue per line. ---
        sc.fetch_lanes.clear();
        for lane in set_bits(slot.need_fetch) {
            let node = slot.threads[lane].current.expect("NeedFetch has a node");
            let mut spans = [BvhLayout::node_fetch(node); 2];
            let mut len = 1;
            if let Some((first, count)) = bvh.leaf_range(node) {
                if count > 0 {
                    spans[1] = BvhLayout::leaf_fetch(first, count);
                    len = 2;
                }
            }
            sc.fetch_lanes.push(FetchSpans { lane, spans, len });
        }
        let attributing = slot.attr.is_some();
        if !sc.fetch_lanes.is_empty() {
            coalesce_lines_into(
                &mut sc.all_lines,
                sc.fetch_lanes.iter().flat_map(|f| f.spans[..f.len].iter().copied()),
            );
            sc.line_done.clear();
            sc.line_class.clear();
            for i in 0..sc.all_lines.len() {
                let line = sc.all_lines[i];
                let before = if attributing {
                    (
                        l1.stats.l1_hits,
                        l1.stats.l1_misses,
                        global.stats.l2_hits,
                        global.stats.l2_misses,
                    )
                } else {
                    (0, 0, 0, 0)
                };
                let done = l1.access_line(global, line, AccessKind::Load, now, false);
                sc.line_done.push((line, done));
                sc.line_class.push(if attributing {
                    Self::classify_fetch(l1, global, before, now, done)
                } else {
                    LaneClass::FetchL1
                });
            }
            for i in 0..sc.fetch_lanes.len() {
                let FetchSpans { lane, spans, len } = sc.fetch_lanes[i];
                coalesce_lines_into(&mut sc.lane_lines, spans[..len].iter().copied());
                let mut done = now + 1;
                let mut class = LaneClass::FetchL1;
                for j in 0..sc.lane_lines.len() {
                    let line = sc.lane_lines[j];
                    let k = sc
                        .line_done
                        .iter()
                        .position(|(dl, _)| *dl == line)
                        .expect("lane lines subset of warp lines");
                    let d = sc.line_done[k].1;
                    let c = sc.line_class[k];
                    if d > done || (d == done && Self::fetch_rank(c) >= Self::fetch_rank(class)) {
                        done = d;
                        class = c;
                    }
                }
                if slot.threads[lane].speculative {
                    // A speculative probe's fetch and operation waits are
                    // predictor cost, whatever memory level serves it.
                    class = LaneClass::Predictor;
                }
                let (step, lat) = Self::node_operation(config, bvh, prims, &slot.threads[lane]);
                *progress += 1; // node fetch issued
                slot.threads[lane].step = Some(step);
                slot.fetched[lane] = done;
                slot.transition_traced(now, lane, TState::OpWait { done: done + lat }, class);
            }
        }

        // --- Stack micro-ops: one per stalled thread, batched by space. ---
        sc.shared_batch.clear();
        sc.shared_addrs.clear();
        sc.global_lanes.clear();
        for lane in set_bits(slot.stack_issue) {
            let op = slot.threads[lane].ops.front().expect("StackIssue implies pending op");
            match op.space {
                Space::Shared => {
                    sc.shared_addrs.extend(op.addrs.iter().copied());
                    sc.shared_batch.push((lane, op.is_blocking()));
                }
                Space::Global => {
                    sc.global_lanes.push(lane);
                }
            }
        }

        if !sc.shared_batch.is_empty() {
            stats.mem.shared_accesses += 1;
            let before = shared.conflict_cycles;
            let done = shared.access_warp(now, sc.shared_addrs.iter().copied());
            let extra = shared.conflict_cycles - before;
            stats.mem.bank_conflict_cycles += extra;
            for i in 0..sc.shared_batch.len() {
                let (lane, blocking) = sc.shared_batch[i];
                if blocking {
                    let level =
                        slot.threads[lane].ops.front().expect("shared lane has pending op").level;
                    if let Some(attr) = &mut slot.attr {
                        // This lane's wait includes the warp's bank-conflict
                        // replay passes; carved out when the wait flushes.
                        attr.pending_conflict[lane] = extra;
                    }
                    slot.transition_traced(
                        now,
                        lane,
                        TState::StackWait { done },
                        stack_class(level),
                    );
                } else {
                    slot.threads[lane].ops.pop_front();
                    *progress += 1; // posted store accepted
                    let next = Self::after_ops_state(&slot.threads[lane]);
                    slot.transition(now, lane, next);
                }
            }
        }

        if !sc.global_lanes.is_empty() {
            // Loads and stores share the issue path; kind resolved per lane,
            // with one `line -> completion` map across the whole warp.
            sc.line_done.clear();
            for i in 0..sc.global_lanes.len() {
                let lane = sc.global_lanes[i];
                let op = slot.threads[lane].ops.front().expect("global lane has pending op");
                let blocking = op.is_blocking();
                let level = op.level;
                let kind = if blocking { AccessKind::Load } else { AccessKind::Store };
                coalesce_lines_into(&mut sc.lane_lines, op.addrs.iter().copied());
                let mut done = now + 1;
                for j in 0..sc.lane_lines.len() {
                    let line = sc.lane_lines[j];
                    let d = match sc.line_done.iter().find(|(dl, _)| *dl == line) {
                        Some(&(_, d)) => d,
                        None => {
                            let d = l1.access_line(global, line, kind, now, true);
                            sc.line_done.push((line, d));
                            d
                        }
                    };
                    done = done.max(d);
                }
                if blocking {
                    slot.transition_traced(
                        now,
                        lane,
                        TState::StackWait { done },
                        stack_class(level),
                    );
                } else {
                    slot.threads[lane].ops.pop_front();
                    *progress += 1; // posted store accepted
                    let next = Self::after_ops_state(&slot.threads[lane]);
                    slot.transition(now, lane, next);
                }
            }
        }
    }
}
