//! `sms-serve`: the sweep harness as a resident service.
//!
//! Every figure in the paper is a sweep over `(scene, stack-config)`
//! cells, and the CLI harness pays the same startup tax for each one:
//! scene + BVH builds, a cold result cache, a fresh journal. This crate
//! keeps all of that warm in one long-lived process and puts a wire
//! protocol in front of it:
//!
//! * [`service`] — the HTTP/1.1 skeleton both tiers instantiate: one
//!   accept loop, one route table, one sweep frame. `POST /v1/sweep`
//!   streams one journal-codec JSONL record per job as it finishes; `GET
//!   /v1/jobs/<scene>/<config>` probes the cache without simulating;
//!   `GET /metrics` exposes the live Prometheus registry; `GET /healthz`
//!   and `POST /v1/drain` handle orchestration.
//! * [`server`] — the backend tier: identical in-flight jobs from
//!   different clients are coalesced (single-flight), simulations run
//!   under global permits, and overload is shed with `503` +
//!   `Retry-After` instead of queueing.
//! * [`client`] — the matching client with bounded, deadline-capped
//!   retries and backoff jitter.
//! * [`http`] — the strictly-parsed, dependency-free HTTP layer both
//!   sides share (the build environment is offline; no hyper).
//! * [`protocol`] — sweep-request parsing and the stream codec. The
//!   response stream *is* the harness journal format, so a saved response
//!   body is a valid journal and every journal tool reads it unchanged.
//! * [`metrics`] — the backend's instrument set (`sms_serve_*`) and the
//!   counters the skeleton keeps for either tier.
//! * [`fleet`] — the fault-tolerant front tier: one `sms-fleet` process
//!   routing cells over N `sms-serve` backends with circuit breakers,
//!   work-stealing retries, one inline dispatch per attempt, and
//!   cache-only degraded serving when every backend is down.
//!
//! Results are byte-identical to the CLI harness: both funnel into
//! `sms_sim::experiments::try_run_prepared` and share one on-disk
//! [`sms_harness::ResultCache`], so a cell simulated by either path is a
//! cache hit for the other.

pub mod client;
pub mod fleet;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod service;

pub use client::{Client, ClientConfig, ClientError};
pub use fleet::{FleetConfig, FleetServer};
pub use protocol::{JobRecord, SweepOutcome};
pub use server::{ServeConfig, Server};
