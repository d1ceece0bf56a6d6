//! SMS: cycle-level reproduction of *"Hierarchical Traversal Stack Design
//! Using Shared Memory for GPU Ray Tracing"* (ISPASS 2025).
//!
//! This is the top-level crate tying the substrates together:
//!
//! * [`config`] — [`SimConfig`]: GPU (Table I), stack architecture, and
//!   render workload configuration.
//! * [`driver`] — the path-tracing kernel logic (Lumibench PT shader stand-
//!   in) shared verbatim between the functional renderer and the cycle
//!   simulator, so both trace *identical* rays.
//! * [`render`] — the functional renderer: images, reference hit results
//!   and stack-depth statistics without timing.
//! * [`sim`] — [`GpuSim`]: the cycle-level model (SMs, GTO-scheduled SIMT
//!   compute, RT units, L1/shared/L2/DRAM) that produces the paper's IPC
//!   and traffic numbers.
//! * [`env`](mod@env) — the one declaration and reader of every `SMS_*` variable.
//! * [`experiments`] — one entry point per paper table/figure.
//! * [`report`] — plain-text table rendering used by the bench harnesses.
//!
//! # Quickstart
//!
//! ```
//! use sms_sim::{config::RenderConfig, experiments};
//! use sms_rtunit::StackConfig;
//! use sms_scene::SceneId;
//!
//! let render = RenderConfig::tiny();
//! let base = experiments::run_scene(SceneId::Ship, StackConfig::baseline8(), &render);
//! let sms = experiments::run_scene(SceneId::Ship, StackConfig::sms_default(), &render);
//! // Identical traversal work, different cycle counts:
//! assert_eq!(base.stats.node_visits, sms.stats.node_visits);
//! assert!(sms.stats.cycles > 0);
//! ```

pub mod analyze;
pub mod config;
pub mod driver;
pub mod env;
pub mod experiments;
pub mod metrics;
pub mod render;
pub mod report;
pub mod sim;
pub mod trace;

pub use config::{RenderConfig, SimConfig};
pub use env::Env;
pub use experiments::{RunExports, RunResult};
pub use metrics::MetricsReport;
pub use sim::{GpuSim, RunLimits, SimFault};
pub use trace::TraceSpec;

// Re-export the component crates so downstream users need one dependency.
pub use sms_bvh as bvh;
pub use sms_geom as geom;
pub use sms_gpu as gpu;
pub use sms_mem as mem;
pub use sms_rtunit as rtunit;
pub use sms_scene as scene;
