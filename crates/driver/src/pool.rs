//! A small thread pool for embarrassingly-parallel job batches with
//! cooperative cancellation.
//!
//! Every job is known up front, so the workers share one queue: a mutexed
//! iterator over the jobs in submission order, from which an idle worker
//! takes the next job. Portfolio jobs run for milliseconds to seconds, so
//! contention on the one lock is noise, and one lock has no lock order to
//! get wrong. Every job produces exactly one output; cancellation is
//! cooperative via [`CancelToken`], which the job closure is expected to
//! consult so already-queued work can drain as cheap skips.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Shared cancellation flag ("stop starting new work").
///
/// ```
/// use driver::pool::CancelToken;
///
/// let t = CancelToken::new();
/// let u = t.clone();
/// assert!(!u.is_cancelled());
/// t.cancel();
/// assert!(u.is_cancelled());
/// ```
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Flip the flag; every clone observes it.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Has any clone cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// Fixed-width pool over one shared job queue; see the module docs.
///
/// ```
/// use driver::pool::{CancelToken, WorkerPool};
///
/// let pool = WorkerPool::new(4);
/// let jobs: Vec<u64> = (0..100).collect();
/// let out = pool.run(jobs, &CancelToken::new(), |_idx, job, _cancel| job * 2);
/// assert_eq!(out[21], 42);
/// assert_eq!(out.len(), 100);
/// ```
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// `workers` is clamped to at least 1.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// The effective worker count (after clamping).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run every job, returning outputs in job order. The closure receives
    /// the job's original index, the job itself, and the cancel token; it
    /// is called exactly once per job (cancelled batches still call it so
    /// the caller can record a "skipped" output).
    pub fn run<J, O, F>(&self, jobs: Vec<J>, cancel: &CancelToken, f: F) -> Vec<O>
    where
        J: Send,
        O: Send,
        F: Fn(usize, J, &CancelToken) -> O + Sync,
    {
        self.run_traced(jobs, cancel, None, f)
    }

    /// [`WorkerPool::run`] with an optional [`trace::Tracer`]: when
    /// given, each worker thread installs a `worker-<i>` lane for its
    /// lifetime, so spans opened anywhere inside the job closure land on
    /// that worker's timeline. With `None` this is exactly `run` —
    /// tracing stays zero-cost. A batch with fewer jobs than workers
    /// starts one thread per job, not idle ones.
    pub fn run_traced<J, O, F>(
        &self,
        jobs: Vec<J>,
        cancel: &CancelToken,
        tracer: Option<&trace::Tracer>,
        f: F,
    ) -> Vec<O>
    where
        J: Send,
        O: Send,
        F: Fn(usize, J, &CancelToken) -> O + Sync,
    {
        let n = jobs.len();
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let results: Vec<Mutex<Option<O>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            for me in 0..self.workers.min(n) {
                let queue = &queue;
                let results = &results;
                let f = &f;
                scope.spawn(move || {
                    let _lane = tracer.map(|t| t.install(&format!("worker-{me}")));
                    loop {
                        // Take the next job in its own statement so the
                        // queue lock is released before the job runs.
                        let next = queue.lock().unwrap().next();
                        let Some((idx, job)) = next else { break };
                        let out = f(idx, job, cancel);
                        *results[idx].lock().unwrap() = Some(out);
                    }
                });
            }
        });

        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("every queued job produces exactly one output")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn all_jobs_run_exactly_once_in_order() {
        let pool = WorkerPool::new(3);
        let ran = AtomicUsize::new(0);
        let out = pool.run(
            (0..50).collect(),
            &CancelToken::new(),
            |idx, job: usize, _| {
                ran.fetch_add(1, Ordering::SeqCst);
                (idx, job * job)
            },
        );
        assert_eq!(ran.load(Ordering::SeqCst), 50);
        for (i, (idx, sq)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*sq, i * i);
        }
    }

    #[test]
    fn zero_workers_degrades_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        let out = pool.run(vec![7u64], &CancelToken::new(), |_, j, _| j + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn cancellation_is_visible_to_later_jobs() {
        // Single worker => deterministic order: job 0 cancels, the rest see it.
        let pool = WorkerPool::new(1);
        let out = pool.run(
            (0..10).collect(),
            &CancelToken::new(),
            |idx, _: usize, cancel| {
                if idx == 0 {
                    cancel.cancel();
                }
                cancel.is_cancelled()
            },
        );
        assert!(out.iter().all(|&seen| seen));
    }

    #[test]
    fn no_thread_starts_without_a_job() {
        let tracer = trace::Tracer::new();
        let pool = WorkerPool::new(8);
        let out = pool.run_traced(
            vec![1u32, 2],
            &CancelToken::new(),
            Some(&tracer),
            |_, j, _| j * 10,
        );
        assert_eq!(out, vec![10, 20]);
        let lanes = tracer.lanes();
        assert!(lanes.len() <= 2, "{} worker lanes for 2 jobs", lanes.len());
        assert!(lanes.iter().all(|l| l.name.starts_with("worker-")));
        // The configured width is still what the pool reports.
        assert_eq!(pool.workers(), 8);
    }

    #[test]
    fn more_or_fewer_workers_than_jobs_all_complete() {
        // More workers than jobs and vice versa both complete.
        for workers in [1, 2, 8] {
            let pool = WorkerPool::new(workers);
            let out = pool.run((0..5).collect(), &CancelToken::new(), |_, j: u32, _| j);
            assert_eq!(out, vec![0, 1, 2, 3, 4]);
        }
    }
}
