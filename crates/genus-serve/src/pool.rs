//! A fixed worker pool with sharded queues, work stealing, and graceful
//! shutdown.
//!
//! Submissions are distributed round-robin over **per-worker queues**
//! (one `Mutex<VecDeque>` shard each), so concurrent producers and the
//! workers themselves contend on different locks instead of one global
//! queue. A worker drains its own shard first (locality: its submissions
//! stay FIFO) and, when empty, **steals** from the other shards — oldest
//! job first, so stolen work is the work that has waited longest. An
//! idle worker parks on a shared condvar guarded by a pending-jobs
//! counter; the submit side holds the park lock while notifying, which
//! closes the classic lost-wakeup race without making submitters wait on
//! sleeping workers.
//!
//! Each worker gets the interpreter's big stack
//! ([`genus_interp::INTERP_STACK_SIZE`]): the AST engine recurses on the
//! host stack and runs on the worker itself. A job that panics is
//! counted and its worker goes on to the next job, so a bad request
//! cannot shrink the pool. Shutdown is cooperative:
//! [`WorkerPool::shutdown`] lets queued jobs drain, then joins every
//! worker.

use genus_interp::INTERP_STACK_SIZE;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

struct PoolState {
    /// One queue shard per worker; `submit` round-robins across them.
    shards: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs enqueued and not yet claimed by any worker. Incremented
    /// before the job is visible in its shard, so a worker that reads 0
    /// under the park lock can safely sleep.
    pending: AtomicUsize,
    /// Round-robin submit cursor.
    next: AtomicUsize,
    /// Jobs a worker claimed from another worker's shard.
    steals: AtomicU64,
    /// Jobs that panicked.
    panics: AtomicU64,
    /// Park/wake coordination for idle workers.
    park: Mutex<()>,
    available: Condvar,
    shutting_down: AtomicBool,
}

impl PoolState {
    /// Claims one job for worker `who`: own shard first, then steal
    /// round-robin from the others.
    fn claim(&self, who: usize) -> Option<Job> {
        if let Some(job) = self.shards[who].lock().unwrap().pop_front() {
            self.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(job);
        }
        let n = self.shards.len();
        for off in 1..n {
            let victim = (who + off) % n;
            if let Some(job) = self.shards[victim].lock().unwrap().pop_front() {
                self.pending.fetch_sub(1, Ordering::AcqRel);
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some(job);
            }
        }
        None
    }
}

/// Fixed-size worker pool. Dropping the pool without calling
/// [`WorkerPool::shutdown`] also shuts it down (draining the queues
/// first), so tests cannot leak workers.
pub struct WorkerPool {
    state: Arc<PoolState>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one), each with its own queue
    /// shard.
    pub fn new(workers: usize) -> WorkerPool {
        let count = workers.max(1);
        let state = Arc::new(PoolState {
            shards: (0..count).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            next: AtomicUsize::new(0),
            steals: AtomicU64::new(0),
            panics: AtomicU64::new(0),
            park: Mutex::new(()),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
        });
        let workers = (0..count)
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("genus-serve-worker-{i}"))
                    .stack_size(INTERP_STACK_SIZE)
                    .spawn(move || worker_loop(&state, i))
                    .expect("spawn serve worker")
            })
            .collect();
        WorkerPool { state, workers }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that ran on a different worker than the one they were
    /// enqueued for (the `/metrics` scheduler-health signal: a heavily
    /// skewed load shows up as steals, not as idle workers).
    pub fn steals(&self) -> u64 {
        self.state.steals.load(Ordering::Relaxed)
    }

    /// Jobs that panicked. Their workers went on to the next job; a
    /// panicked job drops its request's reply channel, which the server
    /// answers with `worker dropped the request`.
    pub fn panics(&self) -> u64 {
        self.state.panics.load(Ordering::Relaxed)
    }

    /// Enqueues a job on the next shard round-robin. Jobs submitted
    /// after shutdown began are dropped (the queues are already
    /// draining).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        if self.state.shutting_down.load(Ordering::Acquire) {
            return;
        }
        let shard = self.state.next.fetch_add(1, Ordering::Relaxed) % self.state.shards.len();
        // pending rises before the job is visible; a worker that observes
        // pending > 0 will spin through another claim round instead of
        // parking, so the job cannot be stranded.
        self.state.pending.fetch_add(1, Ordering::AcqRel);
        self.state.shards[shard]
            .lock()
            .unwrap()
            .push_back(Box::new(job));
        // Holding the park lock while notifying means every worker is
        // either parked (gets the notify) or about to re-check `pending`
        // under this same lock (sees the increment) — no lost wakeup.
        let _park = self.state.park.lock().unwrap();
        self.state.available.notify_one();
    }

    /// Graceful shutdown: stops accepting work, lets the queues drain,
    /// and joins every worker.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    fn begin_shutdown(&self) {
        self.state.shutting_down.store(true, Ordering::Release);
        let _park = self.state.park.lock().unwrap();
        self.state.available.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.begin_shutdown();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(state: &PoolState, who: usize) {
    loop {
        if let Some(job) = state.claim(who) {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                state.panics.fetch_add(1, Ordering::Relaxed);
            }
            continue;
        }
        let park = state.park.lock().unwrap();
        if state.pending.load(Ordering::Acquire) > 0 {
            continue; // raced with a submit: go claim it
        }
        if state.shutting_down.load(Ordering::Acquire) {
            return;
        }
        drop(state.available.wait(park).unwrap());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn all_jobs_run_across_workers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU64::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.submit(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn shutdown_drains_queued_jobs() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for i in 0..10 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).unwrap());
        }
        pool.shutdown();
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>(), "single worker: FIFO");
    }

    #[test]
    fn blocked_worker_does_not_stall_the_pool() {
        // Fill every shard round-robin while worker 0 is wedged on a
        // blocking job: the other workers must steal the jobs that landed
        // on shard 0 and finish everything.
        let pool = WorkerPool::new(4);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            release_rx.recv().unwrap();
        });
        // Give the blocker a moment to be claimed so the follow-up jobs
        // round-robin onto all shards, including the blocked worker's.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let done = Arc::new(AtomicU64::new(0));
        for _ in 0..40 {
            let d = Arc::clone(&done);
            pool.submit(move || {
                d.fetch_add(1, Ordering::Relaxed);
            });
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while done.load(Ordering::Relaxed) < 40 {
            assert!(
                std::time::Instant::now() < deadline,
                "stalled: {}/40 jobs done, {} steals",
                done.load(Ordering::Relaxed),
                pool.steals()
            );
            std::thread::yield_now();
        }
        assert!(
            pool.steals() > 0,
            "jobs behind the wedged worker must have been stolen"
        );
        release_tx.send(()).unwrap();
        pool.shutdown();
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("job failed"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7).unwrap());
        let got = rx.recv_timeout(std::time::Duration::from_secs(10));
        assert_eq!(got, Ok(7), "the only worker must survive the panic");
        assert_eq!(pool.panics(), 1);
        pool.shutdown();
    }

    #[test]
    fn workers_have_big_stacks() {
        // A deep host-stack recursion that would overflow a default
        // 2 MiB thread must be fine on a pool worker.
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.submit(move || {
            fn grow(n: usize) -> usize {
                let pad = [0u8; 4096];
                if n == 0 {
                    pad[0] as usize
                } else {
                    grow(n - 1) + pad.len().min(1)
                }
            }
            tx.send(grow(10_000)).unwrap();
        });
        assert_eq!(rx.recv().unwrap(), 10_000);
        pool.shutdown();
    }
}
