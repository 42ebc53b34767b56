//! The execution service: request scheduling over the worker pool and the
//! program cache, plus the JSON-lines session loops (stdin/stdout and TCP).
//!
//! Guarantees:
//!
//! - **One compile per distinct program** — all compilation goes through
//!   the shared [`ProgramCache`].
//! - **Deterministic, non-interleaved output** — each run captures its
//!   program's prints privately (engines never write to process stdout),
//!   and a session emits exactly one response line per request, *in
//!   request order*, even though execution is pipelined across workers.
//! - **Resource governance** — fuel and memory budgets ride into the
//!   engines' meters; wall-clock deadlines are enforced by the scheduler:
//!   time spent queued counts against the deadline, and a request whose
//!   deadline expired before a worker picked it up is rejected with the
//!   same `R0009` trap it would have earned by running.
//! - **Graceful shutdown** — a session ends at EOF; [`Server::shutdown`]
//!   drains queued jobs and joins every worker. (`SIGINT` falls back to
//!   the OS default of terminating the process: the runtime has no
//!   signal-handling dependency, and serve holds no on-disk state that
//!   could be corrupted mid-request.)

use crate::cache::{CachedProgram, ProgramCache, ProgramCacheStats, DEFAULT_CAPACITY};
use crate::metrics::ServerMetrics;
use crate::persist::DiskCache;
use crate::pool::WorkerPool;
use crate::proto::{Action, EngineKind, Outcome, Request, Response};
use crate::session::SessionRegistry;
use genus_check::CheckedBase;
use genus_interp::{Interp, Limits, ResourceStats, RuntimeError};
use genus_vm::Vm;
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// Default per-request fuel budget applied by the `genus serve` / `genus
/// batch` CLI when the caller does not set one: generous enough for every
/// shipped sample by orders of magnitude, small enough to stop an
/// infinite loop promptly.
pub const DEFAULT_FUEL: u64 = 50_000_000;

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads in the pool.
    pub workers: usize,
    /// Budgets applied to requests that do not carry their own.
    pub default_limits: Limits,
    /// `engine: "auto"` promotion: run on the bytecode VM once a cache
    /// entry's invocation count **exceeds** this (below it, the AST
    /// interpreter runs and the entry never pays for a bytecode
    /// compile).
    pub vm_threshold: u64,
    /// `engine: "auto"` promotion: run on the closure-compiled Tier 2
    /// once the invocation count exceeds this (`--tier-threshold=<n>`
    /// on the CLI).
    pub tier_threshold: u64,
    /// Artifact directory for persistent bytecode (`--cache-dir=<path>`
    /// on the CLI). `None` keeps the cache purely in-memory.
    pub cache_dir: Option<PathBuf>,
    /// Bound on resident program-cache entries (`--cache-cap=<n>`).
    pub cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            default_limits: Limits::default(),
            vm_threshold: 2,
            tier_threshold: 8,
            cache_dir: None,
            cache_capacity: DEFAULT_CAPACITY,
        }
    }
}

/// The multi-threaded execution service. See the module docs for the
/// scheduling and isolation guarantees.
pub struct Server {
    cache: Arc<ProgramCache>,
    pool: WorkerPool,
    sessions: SessionRegistry,
    metrics: Arc<ServerMetrics>,
    config: ServeConfig,
}

impl Server {
    /// Builds a server with its worker pool running. A configured
    /// `cache_dir` that cannot be created is ignored (the server still
    /// works, purely in-memory). The shared checked stdlib base that
    /// cache misses extend is built on the pool, without blocking
    /// construction; a miss that arrives first waits for it.
    pub fn new(config: ServeConfig) -> Server {
        let disk = config
            .cache_dir
            .as_ref()
            .and_then(|dir| DiskCache::open(dir).ok());
        let server = Server {
            cache: Arc::new(ProgramCache::with_config(config.cache_capacity, disk)),
            pool: WorkerPool::new(config.workers),
            sessions: SessionRegistry::new(),
            metrics: Arc::new(ServerMetrics::new()),
            config,
        };
        server.pool.submit(|| {
            CheckedBase::get(true);
        });
        server
    }

    /// The incremental compile-session registry backing sessionful
    /// requests (`{"session": ..., "action": ...}`).
    pub fn sessions(&self) -> &SessionRegistry {
        &self.sessions
    }

    /// The shared program cache (counters back the `cache: hit|miss`
    /// response field and the tests' exactly-one-compile assertions).
    pub fn cache(&self) -> &Arc<ProgramCache> {
        &self.cache
    }

    /// The configured per-request default budgets.
    pub fn default_limits(&self) -> Limits {
        self.config.default_limits
    }

    /// Program-cache counter snapshot.
    pub fn cache_stats(&self) -> ProgramCacheStats {
        self.cache.stats()
    }

    /// The request counters and latency histogram.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// One metrics snapshot as a JSON line — the payload of a
    /// `{"action":"metrics"}` response and of `--metrics-on-start`.
    pub fn metrics_json(&self) -> String {
        self.metrics.to_json(
            &self.cache.stats(),
            self.cache.len(),
            self.pool.worker_count(),
            self.pool.steals(),
        )
    }

    /// Submits one request for asynchronous execution. The returned
    /// channel yields exactly one [`Response`].
    ///
    /// Sessionful requests are handled synchronously on the calling
    /// thread (the channel is already resolved when this returns): a
    /// session's actions must observe each other in submission order,
    /// which the worker pool does not guarantee, and the point of a
    /// session is that its re-checks are cheap.
    pub fn submit(&self, request: Request) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        // Metrics requests are answered by the scheduler itself —
        // synchronously, never queued behind execution work, so the
        // surface stays responsive when the pool is saturated. The
        // snapshot rides in the response's `value` field as a JSON
        // string.
        if request.action == Action::Metrics {
            let _ = tx.send(Response {
                id: request.id,
                outcome: Outcome::Ok(self.metrics_json()),
                engine: request.engine,
                ..Response::error("", "")
            });
            return rx;
        }
        if request.session.is_some() {
            let submitted = Instant::now();
            let response = self.sessions.handle(request, submitted);
            self.metrics.record(&response, us_since(submitted));
            let _ = tx.send(response);
            return rx;
        }
        let cache = Arc::clone(&self.cache);
        let metrics = Arc::clone(&self.metrics);
        let config = self.config.clone();
        let submitted = Instant::now();
        self.pool.submit(move || {
            let response = handle_request(&cache, &config, request, submitted);
            metrics.record(&response, us_since(submitted));
            // The session may have hung up (e.g. a dropped TCP client);
            // losing the response then is correct.
            let _ = tx.send(response);
        });
        rx
    }

    /// Runs a whole batch, returning responses **in request order**
    /// (execution itself is pipelined across the pool).
    pub fn run_batch(&self, requests: Vec<Request>) -> Vec<Response> {
        let receivers: Vec<(String, mpsc::Receiver<Response>)> = requests
            .into_iter()
            .map(|r| (r.id.clone(), self.submit(r)))
            .collect();
        receivers
            .into_iter()
            .map(|(id, rx)| {
                rx.recv()
                    .unwrap_or_else(|_| Response::error(id, "worker dropped the request"))
            })
            .collect()
    }

    /// Drives one JSON-lines session: reads request lines from `reader`
    /// until EOF, writes exactly one response line per request to
    /// `writer` in request order, and returns the number of requests
    /// handled. Execution is pipelined — later requests run while
    /// earlier ones are still in flight — but emission is strictly
    /// ordered, so output is deterministic and never interleaved.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `reader`/`writer`.
    pub fn run_session<R: BufRead, W: Write>(
        &self,
        reader: R,
        writer: &mut W,
    ) -> std::io::Result<usize> {
        let mut pending: std::collections::VecDeque<(String, mpsc::Receiver<Response>)> =
            std::collections::VecDeque::new();
        let mut handled = 0usize;
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let (id, rx) = match Request::parse(&line, &self.config.default_limits) {
                Ok(req) => (req.id.clone(), self.submit(req)),
                Err(msg) => {
                    // Malformed lines still produce exactly one in-order
                    // response, carrying whatever id we could salvage.
                    let id = salvage_id(&line);
                    let (tx, rx) = mpsc::channel();
                    let _ = tx.send(Response::error(id.clone(), format!("bad request: {msg}")));
                    (id, rx)
                }
            };
            pending.push_back((id, rx));
            handled += 1;
            // Emit every response that is already complete at the head of
            // the queue, keeping latency low without breaking order.
            while let Some((_, front)) = pending.front() {
                match front.try_recv() {
                    Ok(resp) => {
                        writeln!(writer, "{}", resp.to_json_line())?;
                        pending.pop_front();
                    }
                    Err(_) => break,
                }
            }
        }
        // EOF: drain the rest in order. A dropped worker still answers
        // under the request's own id, so the client can correlate it.
        for (id, rx) in pending {
            let resp = rx
                .recv()
                .unwrap_or_else(|_| Response::error(id, "worker dropped the request"));
            writeln!(writer, "{}", resp.to_json_line())?;
        }
        writer.flush()?;
        Ok(handled)
    }

    /// Accepts TCP connections forever, driving an independent
    /// JSON-lines session per connection (concurrently — a slow client
    /// does not stall the others). Returns only on accept errors.
    ///
    /// # Errors
    ///
    /// Propagates `accept` failures.
    pub fn serve_tcp(&self, listener: &TcpListener) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            for conn in listener.incoming() {
                let stream = conn?;
                scope.spawn(move || {
                    let reader = std::io::BufReader::new(&stream);
                    let mut writer = &stream;
                    // A dropped client is that session's problem only.
                    let _ = self.run_session(reader, &mut writer);
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                });
            }
            Ok(())
        })
    }

    /// Graceful shutdown: queued requests finish, workers join.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

/// Best-effort id extraction from an unparseable request line, so the
/// error response still correlates.
fn salvage_id(line: &str) -> String {
    genus_common::json::parse(line)
        .ok()
        .and_then(|v| v.get("id").and_then(|id| id.as_str().map(String::from)))
        .unwrap_or_default()
}

/// Worker-side request lifecycle: compile (through the cache), resolve
/// `engine: "auto"` against the entry's hotness, enforce the scheduler
/// deadline, run, and shape the response.
fn handle_request(
    cache: &ProgramCache,
    config: &ServeConfig,
    req: Request,
    submitted: Instant,
) -> Response {
    let (compiled, cache_hit) = cache.get_or_compile(&req.source, req.stdlib, req.opt_level);
    let cached = match compiled {
        Ok(c) => c,
        Err(message) => {
            return Response {
                ms: ms_since(submitted),
                cache_hit,
                engine: req.engine,
                ..Response::error(req.id, message)
            };
        }
    };
    // Hotness promotion. Every run counts toward the entry's hotness;
    // `auto` requests read the count to climb AST → VM → Tier 2. The
    // tier compiles lazily in `execute` (behind the entry's `OnceLock`),
    // so a program that never gets hot never pays for it.
    let invocations = cached.bump_invocations();
    let engine = match req.engine {
        EngineKind::Auto => {
            if invocations > config.tier_threshold {
                EngineKind::Jit
            } else if invocations > config.vm_threshold || cached.is_disk_loaded() {
                // A disk-loaded entry already has its bytecode in hand
                // but no HIR bodies; starting it on the AST rung would
                // force the full compile persistence exists to skip.
                EngineKind::Vm
            } else {
                EngineKind::Ast
            }
        }
        explicit => explicit,
    };
    // Scheduler-enforced deadline: queue time counts. A request that
    // missed its deadline while waiting is rejected with the same trap
    // it would have earned by running past it.
    let mut limits = req.limits;
    if let Some(deadline) = limits.deadline_ms {
        let waited = ms_since(submitted);
        if waited >= deadline {
            return Response {
                id: req.id,
                outcome: Outcome::Trap {
                    code: "R0009".to_string(),
                    message: "wall-clock deadline exceeded".to_string(),
                },
                output: String::new(),
                fuel_used: 0,
                mem_used: 0,
                live_bytes: 0,
                peak_bytes: 0,
                collections: 0,
                cache_hit,
                ms: waited,
                engine,
                reuse: None,
            };
        }
        limits.deadline_ms = Some(deadline - waited);
    }
    let run = match execute(&cached, engine, limits) {
        Ok(run) => run,
        // Only the AST engine's lazy full compile of a disk-loaded
        // entry can fail here.
        Err(message) => {
            return Response {
                ms: ms_since(submitted),
                cache_hit,
                engine,
                ..Response::error(req.id, message)
            };
        }
    };
    Response {
        id: req.id,
        outcome: match run.outcome {
            Ok(value) => Outcome::Ok(value),
            Err(e) => Outcome::Trap {
                code: e.code().to_string(),
                message: e.to_string(),
            },
        },
        output: run.output,
        fuel_used: run.stats.fuel_used,
        mem_used: run.stats.mem_used,
        live_bytes: run.stats.live_bytes,
        peak_bytes: run.stats.peak_bytes,
        collections: run.stats.collections,
        cache_hit,
        ms: ms_since(submitted),
        engine,
        reuse: None,
    }
}

struct RunOutcome {
    outcome: Result<String, RuntimeError>,
    output: String,
    stats: ResourceStats,
}

/// Runs `main()` on the selected engine against the shared program. The
/// worker's big stack hosts the AST interpreter directly; the VM shares
/// the entry's compiled bytecode. Each run gets a **fresh heap** that
/// dies with the engine, so serve's resident memory stays flat across
/// requests regardless of how much a program allocates.
///
/// # Errors
///
/// The AST engine walks HIR bodies, which disk-loaded entries do not
/// carry — [`CachedProgram::ast_prog`] full-compiles lazily, and its
/// (cached) failure surfaces here as rendered diagnostics.
fn execute(
    cached: &CachedProgram,
    engine: EngineKind,
    limits: Limits,
) -> Result<RunOutcome, String> {
    Ok(match engine {
        EngineKind::Ast => {
            let mut interp = Interp::new(cached.ast_prog()?);
            interp.set_limits(limits);
            let outcome = interp.run_main().map(|v| interp.render(&v));
            RunOutcome {
                outcome,
                stats: interp.resource_stats(),
                output: interp.take_output(),
            }
        }
        EngineKind::Vm => {
            let mut vm = Vm::with_code(&cached.prog, cached.vm_code());
            vm.set_limits(limits);
            let outcome = vm.run_main().map(|v| vm.render(&v));
            RunOutcome {
                outcome,
                stats: vm.resource_stats(),
                output: vm.take_output(),
            }
        }
        EngineKind::Jit => {
            // `tier_code()` blocks racing requests on the entry's
            // `OnceLock` so exactly one thread tier-compiles.
            let tier = cached.tier_code();
            let mut vm = Vm::with_code(&cached.prog, Arc::clone(tier.code()));
            vm.set_limits(limits);
            let outcome = vm.run_main_tier(&tier).map(|v| vm.render(&v));
            RunOutcome {
                outcome,
                stats: vm.resource_stats(),
                output: vm.take_output(),
            }
        }
        // `Auto` is resolved in `handle_request` before execution; run
        // it like the default engine if a caller bypasses that path.
        EngineKind::Auto => execute(cached, EngineKind::Vm, limits)?,
    })
}

#[allow(clippy::cast_possible_truncation)]
fn ms_since(start: Instant) -> u64 {
    start.elapsed().as_millis() as u64
}

#[allow(clippy::cast_possible_truncation)]
fn us_since(start: Instant) -> u64 {
    start.elapsed().as_micros() as u64
}
