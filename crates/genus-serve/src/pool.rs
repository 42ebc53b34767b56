//! A fixed worker pool over one FIFO job queue, with graceful shutdown.
//!
//! Every submission goes to the back of one `Mutex<VecDeque>`, and the
//! shutdown flag lives under the same lock. An idle worker waits on one
//! condvar; `submit` notifies one worker after the push, and a worker
//! re-checks the queue under the lock before it waits, so no wakeup is
//! lost. Any free worker takes the oldest job, so a worker wedged on a
//! long job never strands the jobs behind it.
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
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue and the shutdown flag, guarded together.
#[derive(Default)]
struct Queue {
    jobs: VecDeque<Job>,
    shutting_down: bool,
}

#[derive(Default)]
struct PoolState {
    queue: Mutex<Queue>,
    available: Condvar,
    /// Jobs that panicked.
    panics: AtomicU64,
}

impl PoolState {
    /// Locks the queue. Jobs run outside the lock.
    fn queue(&self) -> MutexGuard<'_, Queue> {
        self.queue
            .lock()
            .expect("no code panics while holding the queue lock")
    }
}

/// Fixed-size worker pool. Dropping the pool without calling
/// [`WorkerPool::shutdown`] also shuts it down (draining the queue
/// first), so tests cannot leak workers.
pub struct WorkerPool {
    state: Arc<PoolState>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let state = Arc::new(PoolState::default());
        let workers = (0..workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("genus-serve-worker-{i}"))
                    .stack_size(INTERP_STACK_SIZE)
                    .spawn(move || worker_loop(&state))
                    .expect("spawn serve worker")
            })
            .collect();
        WorkerPool { state, workers }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that panicked. Their workers went on to the next job; a
    /// panicked job drops its request's reply channel, which the server
    /// answers with `worker dropped the request`.
    pub fn panics(&self) -> u64 {
        self.state.panics.load(Ordering::Relaxed)
    }

    /// Enqueues a job at the back of the queue. Jobs submitted after
    /// shutdown began are dropped (the queue is already draining).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.state.queue();
        if queue.shutting_down {
            return;
        }
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.state.available.notify_one();
    }

    /// Graceful shutdown: stops accepting work, lets the queue drain,
    /// and joins every worker.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.state.queue().shutting_down = true;
        self.state.available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(state: &PoolState) {
    loop {
        let job = {
            let mut queue = state.queue();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutting_down {
                    return;
                }
                queue = state
                    .available
                    .wait(queue)
                    .expect("no code panics while holding the queue lock");
            }
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            state.panics.fetch_add(1, Ordering::Relaxed);
        }
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
        // While one worker is wedged on a blocking job, the others must
        // take every job queued behind it and finish everything.
        let pool = WorkerPool::new(4);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            release_rx.recv().unwrap();
        });
        // Give the blocker a moment to be claimed before the follow-up
        // jobs arrive.
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
                "stalled: {}/40 jobs done",
                done.load(Ordering::Relaxed)
            );
            std::thread::yield_now();
        }
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
