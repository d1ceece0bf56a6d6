//! Structured per-run errors.
//!
//! A failed run is data, not a crash: the pool isolates panics, the
//! simulator's watchdog surfaces [`SimFault`]s, and both are folded into
//! one [`RunError`] value that the batch API returns in the failed
//! request's slot while every other run completes normally.

use sms_sim::sim::SimFault;
use std::fmt;

/// Why one run of a batch produced no result. `Clone + Eq` so tests can
/// assert on exact failure values and batches can share one error across
/// deduplicated requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The run panicked; the panic was caught at the pool boundary.
    Panicked {
        /// Worker that ran the job.
        worker: usize,
        /// The panic payload, rendered to a string.
        message: String,
    },
    /// Watchdog: the run exceeded its cycle budget.
    CycleBudget {
        /// The budget in effect.
        limit: u64,
        /// Cycle at which the breach was detected.
        at_cycle: u64,
        /// Warp/stack state dump taken at abort time.
        snapshot: String,
    },
    /// Watchdog: no warp retired work for the configured window.
    Stalled {
        /// The forward-progress window in effect.
        stall_cycles: u64,
        /// Cycle at which the detector fired.
        at_cycle: u64,
        /// Warp/stack state dump taken at abort time.
        snapshot: String,
    },
    /// The simulator wedged with nothing issuable and no event pending.
    Deadlock {
        /// Cycle at which the simulator wedged.
        at_cycle: u64,
        /// Warp/stack state dump taken at abort time.
        snapshot: String,
    },
    /// The stack validator latched an invariant violation.
    Invariant {
        /// The lane whose transition tripped the check.
        lane: usize,
        /// Invariant class (snake_case, e.g. `borrow_chain`).
        kind: String,
        /// Human-readable description with the offending values.
        detail: String,
    },
    /// A serving fleet got no stats for the cell: every dispatch attempt
    /// failed, or a backend answered with its own failure.
    Fleet {
        /// The fleet's diagnostic, which is the whole rendering.
        message: String,
    },
}

impl RunError {
    /// Folds a simulator fault into a run error.
    pub fn from_fault(fault: SimFault) -> Self {
        match fault {
            SimFault::CycleBudget { limit, at_cycle, snapshot } => {
                RunError::CycleBudget { limit, at_cycle, snapshot }
            }
            SimFault::Stalled { stall_cycles, at_cycle, snapshot } => {
                RunError::Stalled { stall_cycles, at_cycle, snapshot }
            }
            SimFault::Deadlock { at_cycle, snapshot } => RunError::Deadlock { at_cycle, snapshot },
            SimFault::Invariant { violation } => RunError::Invariant {
                lane: violation.lane,
                kind: violation.kind.name().to_owned(),
                detail: violation.detail,
            },
        }
    }

    /// Stable snake_case tag (used in journal events).
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Panicked { .. } => "panic",
            RunError::CycleBudget { .. } => "cycle_budget",
            RunError::Stalled { .. } => "stalled",
            RunError::Deadlock { .. } => "deadlock",
            RunError::Invariant { .. } => "invariant",
            RunError::Fleet { .. } => "fleet",
        }
    }

    /// `true` for the watchdog aborts (journalled as `run_timeout`;
    /// everything else is `run_failed`).
    pub fn is_timeout(&self) -> bool {
        matches!(self, RunError::CycleBudget { .. } | RunError::Stalled { .. })
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Panicked { worker, message } => {
                write!(f, "run panicked on worker {worker}: {message}")
            }
            RunError::CycleBudget { limit, at_cycle, snapshot } => {
                write!(f, "cycle budget of {limit} exceeded at cycle {at_cycle}\n{snapshot}")
            }
            RunError::Stalled { stall_cycles, at_cycle, snapshot } => {
                write!(
                    f,
                    "no warp retired work for {stall_cycles} cycles (detected at cycle \
                     {at_cycle})\n{snapshot}"
                )
            }
            RunError::Deadlock { at_cycle, snapshot } => {
                write!(f, "simulator deadlock at cycle {at_cycle}\n{snapshot}")
            }
            RunError::Invariant { lane, kind, detail } => {
                write!(f, "stack invariant `{kind}` violated on lane {lane}: {detail}")
            }
            RunError::Fleet { message } => f.write_str(message),
        }
    }
}

impl std::error::Error for RunError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_conversion_keeps_diagnostics() {
        let fault = SimFault::CycleBudget { limit: 100, at_cycle: 101, snapshot: "s".into() };
        let err = RunError::from_fault(fault);
        assert_eq!(err, RunError::CycleBudget { limit: 100, at_cycle: 101, snapshot: "s".into() });
        assert!(err.is_timeout());
        assert_eq!(err.kind(), "cycle_budget");
        let err = RunError::Panicked { worker: 3, message: "boom".into() };
        assert!(!err.is_timeout());
        assert!(err.to_string().contains("boom"));
    }
}
