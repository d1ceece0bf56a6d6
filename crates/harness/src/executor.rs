//! The per-cell executor, written once: [`Harness::try_run_batch`]
//! runs its misses through it on the batch pool, and the `sms-serve`
//! backend keeps one resident and runs each cell of a sweep through it.
//!
//! * [`Flight`] — single flight per key: concurrent callers share one
//!   run of the work and its result. The executor uses it for scenes; the
//!   backend uses a second one to share cells across requests.
//! * The scene table ([`Executor::scene`]) — one [`PreparedScene`] per
//!   `(scene, render)`, built on first use with the default tree (the one
//!   every cache key means) and kept for the executor's lifetime.
//! * The simulate step ([`Executor::simulate`]) — a simulation permit
//!   held by a drop guard, the request's limits over the executor's, the
//!   one job-running function, the cache store, `SimFault` → [`RunError`].
//!
//! [`Harness::try_run_batch`]: crate::Harness::try_run_batch

use crate::{
    pool, CacheKey, FaultPlan, KeyTail, ResultCache, RunError, RunRequest, SIM_VERSION_SALT,
};
use sms_sim::config::RenderConfig;
use sms_sim::experiments::{try_run_exporting, RunExports, RunResult};
use sms_sim::render::PreparedScene;
use sms_sim::scene::SceneId;
use sms_sim::sim::RunLimits;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

/// Single flight per key: the first caller of [`Flight::run`] for a key
/// runs the work and every concurrent caller blocks on it, then all of
/// them get the one result. A panic in the work becomes that result, as
/// `RunError::Panicked` on worker 0 — no waiter can hang on it. The entry
/// leaves the table once published, except a success when the flight
/// retains them: a failure is retried by the next caller either way.
pub struct Flight<T> {
    slots: Mutex<HashMap<String, Arc<Slot<T>>>>,
    retain: bool,
    panic_prefix: &'static str,
}

/// One key's result, set once.
type Slot<T> = OnceLock<Result<T, RunError>>;

impl<T: Clone> Flight<T> {
    /// A flight that keeps successes when `retain`; a caught panic's
    /// message is prefixed with `panic_prefix`.
    pub fn new(retain: bool, panic_prefix: &'static str) -> Self {
        Flight { slots: Mutex::default(), retain, panic_prefix }
    }

    /// The result of `work` for `key`, and whether this caller ran it.
    pub fn run(
        &self,
        key: &str,
        work: impl FnOnce() -> Result<T, RunError>,
    ) -> (Result<T, RunError>, bool) {
        let lock = || self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let slot = Arc::clone(lock().entry(key.to_owned()).or_default());
        let mut led = false;
        let result = slot
            .get_or_init(|| {
                led = true;
                catch_unwind(AssertUnwindSafe(work)).unwrap_or_else(|payload| {
                    let message = format!("{}{}", self.panic_prefix, pool::panic_message(payload));
                    Err(RunError::Panicked { worker: 0, message })
                })
            })
            .clone();
        if led && !(self.retain && result.is_ok()) {
            let mut slots = lock();
            if slots.get(key).is_some_and(|current| Arc::ptr_eq(current, &slot)) {
                slots.remove(key);
            }
        }
        (result, led)
    }
}

/// Counting semaphore over concurrent simulations.
struct Permits {
    free: Mutex<usize>,
    cv: Condvar,
}

/// One permit, given back on drop — a simulator panic unwinds through it.
struct Permit<'a>(&'a Permits);

impl Permits {
    fn acquire(&self) -> Permit<'_> {
        let free = self.free.lock().unwrap_or_else(PoisonError::into_inner);
        *self.cv.wait_while(free, |n| *n == 0).unwrap_or_else(PoisonError::into_inner) -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.free.lock().unwrap_or_else(PoisonError::into_inner) += 1;
        self.0.cv.notify_one();
    }
}

/// The scene table, the permits and the simulate step behind one cache.
pub struct Executor {
    cache: Option<ResultCache>,
    pub(crate) limits: RunLimits,
    pub(crate) exports: RunExports,
    scenes: Flight<Arc<PreparedScene>>,
    /// Scene builds started, for the single-flight tests: a statistic, so
    /// `Relaxed`.
    pub(crate) scene_builds: AtomicU64,
    permits: Permits,
    faults: Option<Arc<FaultPlan>>,
}

impl Executor {
    /// At most `permits` concurrent simulations, `limits` under every
    /// request's own, every simulated run writing `exports` and stored to
    /// `cache`.
    pub fn new(
        cache: Option<ResultCache>,
        permits: usize,
        limits: RunLimits,
        exports: RunExports,
    ) -> Self {
        Executor {
            cache,
            limits,
            exports,
            scenes: Flight::new(true, "scene preparation panicked: "),
            scene_builds: AtomicU64::new(0),
            permits: Permits { free: Mutex::new(permits.max(1)), cv: Condvar::new() },
            faults: None,
        }
    }

    /// The executor with `faults`' `sim_panic` clause armed in
    /// [`Executor::simulate`].
    pub fn with_faults(mut self, faults: Option<Arc<FaultPlan>>) -> Self {
        self.faults = faults;
        self
    }

    /// The result cache, if there is one.
    pub fn cache(&self) -> Option<&ResultCache> {
        self.cache.as_ref()
    }

    /// `req`'s cache key (under the cache's salt, if there is a cache),
    /// through `tail` (see [`CacheKey::with_tail`]).
    pub fn key(&self, req: &RunRequest, tail: &mut KeyTail) -> CacheKey {
        let salt = self.cache.as_ref().map_or(SIM_VERSION_SALT, ResultCache::salt);
        CacheKey::with_tail(req, salt, tail)
    }

    /// The prepared `(id, render)` scene, built on first use and shared
    /// with every concurrent requester, and whether this call built it. A
    /// build that panicked is every waiter's error and is not kept.
    pub fn scene(
        &self,
        id: SceneId,
        render: &RenderConfig,
    ) -> (Result<Arc<PreparedScene>, RunError>, bool) {
        self.prepare(format!("{id:?}|{render:?}"), || PreparedScene::build(id, render))
    }

    fn prepare(
        &self,
        key: String,
        build: impl FnOnce() -> PreparedScene,
    ) -> (Result<Arc<PreparedScene>, RunError>, bool) {
        self.scenes.run(&key, || {
            self.scene_builds.fetch_add(1, Ordering::Relaxed);
            Ok(Arc::new(build()))
        })
    }

    /// Simulates `req` on its prepared `scene` under a permit, then stores
    /// the stats under `key`. A panic unwinds to the caller with the
    /// permit returned.
    pub fn simulate(
        &self,
        scene: &PreparedScene,
        req: &RunRequest,
        key: &CacheKey,
    ) -> Result<RunResult, RunError> {
        let run = {
            let _permit = self.permits.acquire();
            if self.faults.as_ref().is_some_and(|f| f.sim_panics()) {
                panic!("injected simulator panic (SMS_FAULT sim_panic)");
            }
            let limits = req.limits.or(self.limits);
            let exports = &self.exports;
            try_run_exporting(scene, req.stack, req.gpu, &req.render, &limits, exports, key.hash)
        }
        .map_err(RunError::from_fault)?;
        if let Some(cache) = &self.cache {
            cache.store(key, &run.stats);
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn executor() -> Executor {
        Executor::new(None, 1, RunLimits::none(), RunExports::default())
    }

    /// Runs `request` on `n` threads released together; their results.
    fn race<T: Send>(n: usize, request: impl Fn() -> T + Sync) -> Vec<T> {
        let barrier = std::sync::Barrier::new(n);
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        request()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("requester panicked")).collect()
        })
    }

    /// The fleet keeps up to four single-cell sweeps open per backend, and
    /// preparation runs before a permit is taken: a table that is only
    /// checked and then filled lets every thread that misses build the
    /// scene for itself.
    #[test]
    fn concurrent_requests_for_a_cold_scene_share_one_build() {
        let exec = executor();
        let render = RenderConfig::tiny();
        let scenes = race(6, || exec.scene(SceneId::Fox, &render).0.expect("FOX builds"));
        assert_eq!(exec.scene_builds.load(Ordering::Relaxed), 1, "one build for six requesters");
        assert!(scenes.iter().all(|s| Arc::ptr_eq(s, &scenes[0])), "and one scene shared");
        // Retained: a later request builds nothing.
        exec.scene(SceneId::Fox, &render).0.expect("warm");
        assert_eq!(exec.scene_builds.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn a_panicking_build_fails_every_waiter_and_is_not_retained() {
        let exec = executor();
        let failures = race(6, || exec.prepare("k".to_owned(), || panic!("no such mesh")).0);
        for failure in failures {
            let Err(RunError::Panicked { message, .. }) = failure else {
                panic!("a waiter was handed a scene from a build that panicked");
            };
            assert_eq!(message, "scene preparation panicked: no such mesh");
        }
        assert!(exec.scenes.slots.lock().unwrap().is_empty(), "the failed slot was dropped");
        let builds = exec.scene_builds.load(Ordering::Relaxed);
        let render = RenderConfig::tiny();
        let retried =
            exec.prepare("k".to_owned(), || PreparedScene::build(SceneId::Wknd, &render)).0;
        assert!(retried.is_ok(), "a later request retries the build");
        assert_eq!(exec.scene_builds.load(Ordering::Relaxed), builds + 1);
    }
}
