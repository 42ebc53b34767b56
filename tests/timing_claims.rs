//! Timing and memory claims:
//! - a warm one-token re-check in a compile session is at least 5x
//!   faster than the unshared full build, on a trivial stdlib program and
//!   on the largest sample;
//! - a cold stdlib check, which extends the shared checked base, is at
//!   least 5x faster than the unshared full build, which re-checks the
//!   whole stdlib;
//! - hot VM requests through the server scale with workers: 4 workers at
//!   least double 1 worker's throughput on 4 or more cores, and keep at
//!   least half of it on fewer, where CPU-bound work cannot scale;
//! - 1000 allocation-churn requests through one server keep its RSS
//!   within 64 MiB of where it started, and every run collects and keeps
//!   its live set within the collector's threshold.
//! - a restarted server's first request for a program that takes the
//!   full check (it declares a model for a stdlib constraint) is at least
//!   5x faster from the `--cache-dir` artifact than compiled cold.
//!
//! Each timing is the minimum of several runs (for throughput, the best),
//! since interference only adds time. The tests take one lock, so they
//! run one at a time even under a parallel test harness: each would
//! otherwise time the others. `ci.sh` also runs this file alone, in
//! release.

use genus_heap::heap::GC_INITIAL_THRESHOLD;
use genus_repro::CompileSession;
use genus_serve::{
    DiskCache, Engine, Outcome, ProgramCache, Request, Response, ServeConfig, Server,
};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    ONE_AT_A_TIME.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Minimum wall time of `f` in nanoseconds over `samples` runs, after
/// two warm-up runs.
fn min_ns(mut f: impl FnMut(), samples: usize) -> f64 {
    for _ in 0..2 {
        f();
    }
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

#[test]
fn warm_recheck_is_five_times_faster_than_cold() {
    let _one = one_at_a_time();
    let registry = include_str!("../samples/existential_registry.genus");
    let trivial = |n: u64| format!("int main() {{ return {n}; }}");
    // Every `n` gives a source the session has never seen, so each warm
    // re-check re-parses and re-checks the edited unit instead of
    // restoring an old verdict.
    let marked = |n: u64| registry.replacen("return", &format!("return /*w{n}*/"), 1);
    for (name, variant) in [
        ("stdlib_trivial", &trivial as &dyn Fn(u64) -> String),
        ("existential_registry", &marked),
    ] {
        // The cold side is the unshared full build: a cold session
        // would extend the shared base and skip the stdlib's check.
        let cold_ns = min_ns(
            || {
                let report = genus_check::check_unshared(true, &[("main.genus", &variant(0))]);
                assert!(!report.has_errors());
            },
            15,
        );
        let mut session = CompileSession::with_stdlib();
        session.update_source("main.genus", &variant(0));
        assert!(!session.check().has_errors());
        let mut n = 0;
        let warm_ns = min_ns(
            || {
                n += 1;
                session.update_source("main.genus", &variant(n));
                assert!(!session.check().has_errors());
            },
            15,
        );
        let speedup = cold_ns / warm_ns;
        assert!(
            speedup >= 5.0,
            "warm re-check of `{name}` only {speedup:.1}x faster than cold \
             ({cold_ns:.0} ns vs {warm_ns:.0} ns)"
        );
    }
}

#[test]
fn cold_stdlib_check_is_five_times_faster_than_the_full_build() {
    let _one = one_at_a_time();
    let src = "int main() { ArrayList[int] l = new ArrayList[int](); l.add(5); return l.get(0); }";
    let full_ns = min_ns(
        || {
            let report = genus_check::check_unshared(true, &[("main.genus", src)]);
            assert!(!report.has_errors());
        },
        15,
    );
    let shared_ns = min_ns(
        || {
            let mut session = CompileSession::with_stdlib();
            session.update_source("main.genus", src);
            session.check();
            assert_eq!(session.stats().units_rechecked, 1, "only the unit checks");
            assert!(!session.into_report().has_errors());
        },
        15,
    );
    let speedup = full_ns / shared_ns;
    assert!(
        speedup >= 5.0,
        "a cold stdlib check only {speedup:.1}x faster than the full build \
         ({full_ns:.0} ns vs {shared_ns:.0} ns)"
    );
}

/// Requests per scaling wave.
const REQUESTS: usize = 64;

/// Distinct programs in a wave (each compiles once).
const PROGRAMS: usize = 16;

/// Closed-loop clients: the offered concurrency, the same for every
/// worker count, so throughput differences are the scheduler's.
const CLIENTS: usize = 16;

/// A small dispatch-heavy program; distinct seeds are distinct cache
/// entries. Prelude-only, so a wave measures the service, not stdlib
/// checking.
fn scaling_src(seed: usize) -> String {
    format!(
        "constraint Ord[T] {{ boolean T.before(T other); }}
         model IntOrd for Ord[int] {{
           boolean before(int other) {{ return this < other; }}
         }}
         int count[T](T[] xs, T p) where Ord[T] {{
           int n = 0;
           for (int i = 0; i < xs.length; i = i + 1) {{
             if (xs[i].before(p)) {{ n = n + 1; }}
           }}
           return n;
         }}
         int main() {{
           int[] xs = new int[256];
           for (int i = 0; i < 256; i = i + 1) {{ xs[i] = (i * 7919 + {seed}) % 997; }}
           int s = 0;
           for (int r = 0; r < 40; r = r + 1) {{ s = s + count[int with IntOrd](xs, 500); }}
           return s;
         }}"
    )
}

fn assert_ok(resp: &Response) {
    assert!(
        matches!(resp.outcome, Outcome::Ok(_)),
        "request failed: {}",
        resp.to_json_line()
    );
}

/// Throughput in requests per second of one wave of VM requests driven
/// by `CLIENTS` threads, each keeping one request in flight until the
/// wave is drained.
fn wave_rps(server: &Server, wave: usize) -> f64 {
    let queue = Mutex::new(
        (0..REQUESTS)
            .map(|i| {
                let mut req = Request::new(format!("w{wave}r{i}"), scaling_src(i % PROGRAMS));
                req.engine = Some(Engine::Vm);
                req.stdlib = Some(false);
                req.limits.fuel = Some(genus_serve::DEFAULT_FUEL);
                req
            })
            .collect::<VecDeque<_>>(),
    );
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            s.spawn(|| loop {
                let Some(req) = queue.lock().unwrap().pop_front() else {
                    return;
                };
                assert_ok(&server.submit(req).recv().expect("response"));
            });
        }
    });
    REQUESTS as f64 / start.elapsed().as_secs_f64()
}

#[test]
fn hot_vm_throughput_scales_with_workers() {
    let _one = one_at_a_time();
    let hot_rps = |workers: usize| {
        let server = Server::new(ServeConfig {
            workers,
            ..ServeConfig::default()
        });
        wave_rps(&server, 0);
        let best = (1..=3).map(|w| wave_rps(&server, w)).fold(0.0, f64::max);
        assert_eq!(
            server.cache_stats().compiles as usize,
            PROGRAMS,
            "the first wave compiles each program once, the rest hit"
        );
        server.shutdown();
        best
    };
    let (w1, w4) = (hot_rps(1), hot_rps(4));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            w4 >= 2.0 * w1,
            "hot-VM throughput failed to scale on {cores} cores: w1={w1:.0} rps, w4={w4:.0} rps"
        );
    } else {
        assert!(
            w4 >= 0.5 * w1,
            "hot-VM throughput collapsed under sharding on {cores} core(s): \
             w1={w1:.0} rps, w4={w4:.0} rps"
        );
    }
}

/// Requests in the soak.
const SOAK_REQUESTS: usize = 1000;

/// Loop iterations of [`SOAK_SRC`].
const SOAK_ITERATIONS: u64 = 5000;

/// Allocation churn: a few megabytes of short-lived arrays and objects
/// per run, with only an int checksum live.
const SOAK_SRC: &str = "class Node {
       int v;
       Node(int v) { this.v = v; }
     }
     int main() {
       int s = 0;
       for (int i = 0; i < 5000; i = i + 1) {
         int[] a = new int[64];
         a[0] = i;
         Node n = new Node(i);
         s = s + a[0] - n.v + 1;
       }
       return s;
     }";

/// Resident-set size in KiB, from `/proc/self/statm` (`None` where that
/// does not exist, which skips the RSS assertion).
fn rss_kb() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096 / 1024)
}

/// Every run gets a heap that dies with its engine, so RSS must stay
/// flat while the requests churn gigabytes in aggregate. Each run's
/// collector must do the reclaiming: it collects, and the live set never
/// exceeds the threshold by more than the allocations of one loop
/// iteration (the engines poll for collection at least once per
/// iteration). Live bytes include garbage not yet collected, so the
/// bound is the threshold, not the run's true live set.
#[test]
fn soak_keeps_rss_flat_and_every_run_collects() {
    let _one = one_at_a_time();
    let server = Server::new(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let rss_before = rss_kb();
    // Waves of 50 keep peak concurrency near the worker count, so RSS
    // prices per-request cleanup, not queue depth.
    for wave in 0..SOAK_REQUESTS / 50 {
        let reqs = (0..50)
            .map(|i| {
                let mut req = Request::new(format!("soak{}", wave * 50 + i), SOAK_SRC);
                req.stdlib = Some(false);
                req.limits.fuel = Some(genus_serve::DEFAULT_FUEL);
                req
            })
            .collect();
        for resp in server.run_batch(reqs) {
            assert_ok(&resp);
            let per_iteration = resp.mem_used / SOAK_ITERATIONS;
            assert!(
                resp.collections > 0 && resp.peak_bytes <= GC_INITIAL_THRESHOLD + per_iteration,
                "soak run did not keep its live set down: {}",
                resp.to_json_line()
            );
        }
    }
    let rss_after = rss_kb();
    server.shutdown();
    if let (Some(before), Some(after)) = (rss_before, rss_after) {
        assert!(
            after.saturating_sub(before) < 64 * 1024,
            "serve soak leaked: RSS {before} KiB -> {after} KiB"
        );
    }
}

/// What `--cache-dir` buys a restarted server: its first request for a
/// known program loads verified bytecode instead of checking and
/// compiling. A fresh `ProgramCache` over a populated directory stands in
/// for the restarted process. `scheduler` declares a model for a stdlib
/// constraint, so a cold compile takes the full check, which the disk
/// load skips; a base-extend miss is already cheap, so it is not timed.
#[test]
fn restart_from_cache_dir_is_five_times_faster_than_cold() {
    let _one = one_at_a_time();
    let src = include_str!("../samples/scheduler.genus");
    let dir = std::env::temp_dir().join(format!("genus-timing-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first_request = |disk: Option<DiskCache>| {
        let cache = ProgramCache::with_config(4, disk);
        let (prog, hit) = cache.get_or_compile(src, true, 2);
        assert!(!hit);
        prog.expect("sample compiles").vm_code();
        cache.stats()
    };
    let populated = first_request(Some(DiskCache::open(&dir).expect("cache dir")));
    assert_eq!(populated.disk_writes, 1);
    let cold_ns = min_ns(
        || {
            let stats = first_request(None);
            assert_eq!(
                stats.full_checks, 1,
                "the cold side must take the full check"
            );
        },
        7,
    );
    let warm_ns = min_ns(
        || {
            let stats = first_request(Some(DiskCache::open(&dir).expect("cache dir")));
            assert_eq!(stats.disk_hits, 1, "the restarted side must load from disk");
            assert_eq!(stats.compiles, 0);
        },
        7,
    );
    let _ = std::fs::remove_dir_all(&dir);
    let speedup = cold_ns / warm_ns;
    assert!(
        speedup >= 5.0,
        "restart from disk only {speedup:.1}x faster than cold ({cold_ns:.0} ns vs {warm_ns:.0} ns)"
    );
}
