//! The RT unit: the paper's modified ray-tracing acceleration unit.
//!
//! One RT unit per SM accepts warps executing a trace-ray instruction and
//! performs BVH traversal for all 32 rays (§II-B). This crate models the
//! unit's microarchitecture:
//!
//! * [`stack`] — the heart of the reproduction: per-thread hierarchical
//!   traversal stacks. The primary **RB stack** lives in the ray buffer
//!   (free to access), and depending on [`stack::StackConfig`] overflow
//!   entries spill either directly to thread-local global memory
//!   (baseline), or into a per-thread **SH stack** in shared memory with
//!   optional *skewed bank access* and *dynamic intra-warp reallocation*
//!   (the SMS architecture, §IV–§VI).
//! * [`microop`] — the ordered memory micro-operations the stack manager
//!   emits (e.g. a pop with both levels overflowed = shared load → global
//!   load → shared store, issued sequentially as §VI-A specifies).
//! * [`unit`](mod@unit) — the warp buffer (≤4 warps), GTO warp scheduling, node-fetch
//!   coalescing, operation-unit latencies, response handling, and
//!   per-thread traversal state machines.
//! * [`trace`] — the trace-ray request/result interface used by the SM
//!   model.
//!
//! Traversal order is computed by `sms_bvh::FlatBvh::node_step` (or
//! `stackless_step` under `SL`) and every leaf ends in
//! `sms_bvh::RayQuery::apply_leaf`: the kernel and the leaf rule the
//! functional drivers use, so results are bit-identical to the reference
//! and traversal *work* is identical across stack configurations.

pub mod metrics;
pub mod microop;
pub mod overhead;
pub mod predictor;
pub mod stack;
pub mod trace;
pub mod unit;
pub mod validator;

pub use metrics::StackMetrics;
pub use microop::{MicroOp, Space, StackLevel};
pub use overhead::OverheadReport;
pub use predictor::RayPredictor;
pub use stack::{SmsParams, StackConfig, WarpStacks};
pub use trace::{RayQuery, TraceRequest, TraceResult};
pub use unit::{RtSlice, RtUnit, RtUnitConfig, ThreadTraceRecorder};
pub use validator::{StackValidator, StackViolation, ViolationKind};
