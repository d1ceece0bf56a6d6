//! A minimal `std::thread` worker pool over an indexed job list.
//!
//! Jobs are claimed from a shared atomic counter (work stealing degenerates
//! to self-scheduling for uniform claim cost, which is all we need) and
//! results land in a slot array indexed by job id — callers therefore see
//! results in *submission order* no matter which worker finished when,
//! which is what keeps parallel batches byte-identical to serial ones.
//!
//! Panics are isolated per job: [`try_run_indexed`] catches a panicking
//! job at the pool boundary and returns it as a [`JobPanic`] in that job's
//! slot while every other job runs to completion — one poisoned run cannot
//! take down an hour-scale sweep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// A job that panicked, caught at the pool boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Worker index that ran the job.
    pub worker: usize,
    /// The panic payload rendered to a string (`&str`/`String` payloads
    /// verbatim, anything else as a placeholder).
    pub message: String,
}

/// Renders a caught panic payload.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs `f(job_index, worker_index)` for every `job_index in 0..jobs` on up
/// to `workers` threads; returns the results indexed by job, with each
/// panicking job isolated into its own `Err(JobPanic)` slot.
pub fn try_run_indexed<T, F>(workers: usize, jobs: usize, f: F) -> Vec<Result<T, JobPanic>>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let run_one = |job: usize, worker: usize| {
        catch_unwind(AssertUnwindSafe(|| f(job, worker)))
            .map_err(|payload| JobPanic { worker, message: panic_message(payload) })
    };
    let threads = workers.max(1).min(jobs);
    if threads <= 1 {
        return (0..jobs).map(|i| run_one(i, 0)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        (0..jobs).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for worker in 0..threads {
            let run_one = &run_one;
            let next = &next;
            let slots = &slots;
            scope.spawn(move || loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= jobs {
                    break;
                }
                let result = run_one(job, worker);
                // The lock is only ever held for this assignment and the
                // job body runs outside it, so poisoning is impossible;
                // recover anyway rather than propagate a second panic.
                *slots[job].lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| match slot.into_inner().unwrap_or_else(PoisonError::into_inner) {
            Some(result) => result,
            // The claim counter hands out every index exactly once and the
            // scope joins all workers before we get here.
            None => unreachable!("pool job was claimed but never stored a result"),
        })
        .collect()
}

/// Runs `f(job_index, worker_index)` for every `job_index in 0..jobs` on up
/// to `workers` threads; returns the results indexed by job.
///
/// A panicking job propagates the panic to the caller after all other jobs
/// finished, like the serial loop it replaces would. Fault-tolerant callers
/// should use [`try_run_indexed`].
pub fn run_indexed<T, F>(workers: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    try_run_indexed(workers, jobs, f)
        .into_iter()
        .enumerate()
        .map(|(job, result)| match result {
            Ok(v) => v,
            Err(p) => panic!("pool job {job} panicked on worker {}: {}", p.worker, p.message),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn results_are_in_job_order() {
        let out = run_indexed(4, 100, |job, _| job * job);
        assert_eq!(out, (0..100).map(|j| j * j).collect::<Vec<_>>());
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let out = run_indexed(8, 37, |job, _| job);
        let distinct: HashSet<usize> = out.iter().copied().collect();
        assert_eq!(distinct.len(), 37);
    }

    #[test]
    fn zero_jobs_and_single_worker_edge_cases() {
        assert_eq!(run_indexed(4, 0, |_, _| 0u8), Vec::<u8>::new());
        assert_eq!(run_indexed(0, 3, |job, worker| (job, worker)), vec![(0, 0), (1, 0), (2, 0)]);
    }

    #[test]
    fn panicking_job_is_isolated() {
        for workers in [1, 4] {
            let out = try_run_indexed(workers, 5, |job, _| {
                if job == 2 {
                    panic!("injected failure in job {job}");
                }
                job * 10
            });
            for (job, result) in out.iter().enumerate() {
                if job == 2 {
                    let p = result.as_ref().unwrap_err();
                    assert!(p.message.contains("injected failure in job 2"));
                } else {
                    assert_eq!(*result.as_ref().unwrap(), job * 10);
                }
            }
        }
    }

    #[test]
    fn run_indexed_still_propagates_panics() {
        let caught = std::panic::catch_unwind(|| {
            run_indexed(2, 3, |job, _| {
                if job == 1 {
                    panic!("boom");
                }
                job
            })
        });
        assert!(caught.is_err());
    }
}
