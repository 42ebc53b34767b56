//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1_sort|edit_loop|serve_mix> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints an environment line, a detail line and, last, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for what each workload is for.

mod driver;
mod edit;
mod fresh;
mod layers;
mod serve;
mod sys;
mod table1;
mod trace;

use driver::{fast_cycles, fast_median, fast_samples, measure, warm_up, Samples, Workload};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;
use trace::Tracer;

const WORKLOADS: [&str; 3] = ["table1_sort", "edit_loop", "serve_mix"];

/// Set-ups before the first measured cycle. The first also fills the
/// crates' process-wide parse memos; every set-up parses the prelude and
/// the stdlib itself (see [`parse_stdlib`]), so every one pays for that
/// parse.
const SETUP_REPS: usize = 11;

/// The single-thread workloads also time one set-up between cycles this
/// often, so that the set-ups, like the ops, sample the host's states
/// over the whole run. `setup_s` is the median of the fastest quarter
/// of all of them ([`driver::fast_median`]).
const SETUP_EVERY: std::time::Duration = std::time::Duration::from_secs(1);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0).max(0.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    // The AST reference engine recurses on the host stack.
    let worker = std::thread::Builder::new()
        .name("perfbench".to_string())
        .stack_size(genus::INTERP_STACK_SIZE)
        .spawn(move || run(&args))
        .expect("spawn benchmark thread");
    if worker.join().is_err() {
        std::process::exit(1);
    }
}

/// What a run reports.
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
    detail: String,
    tracer: Tracer,
}

fn run(args: &Args) {
    println!("{}", env_line(args));
    let report = match args.workload.as_str() {
        "table1_sort" => single(
            args,
            table1::prepare(args.seed),
            table1::Table1::setup,
            table1::Table1::into_prep,
        ),
        "edit_loop" => single(
            args,
            edit::prepare(args.seed),
            edit::EditLoop::setup,
            edit::EditLoop::into_prep,
        ),
        _ => serve_run(args),
    };
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Err(e) = report.tracer.write_jsonl(&path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    // For check_counts.py: the counts the seed alone decides, and the
    // counts that also depend on how serve requests interleave.
    let names = |exact: bool| -> String {
        report
            .metrics
            .iter()
            .filter(|(name, _, _)| {
                args.trace
                    && layers::is_count(name)
                    && layers::is_exact(name, &args.workload) == exact
            })
            .map(|(name, _, _)| format!("\"{name}\""))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!(
        "{{\"detail\":{},\"exact\":[{}],\"inexact\":[{}]}}",
        report.detail,
        names(true),
        names(false)
    );
    let mut metrics = String::new();
    for (i, (name, unit, value)) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            finite(*value)
        );
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed
    );
}

/// JSON has no NaN or infinity.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

fn env_line(args: &Args) -> String {
    let n = sys::nproc();
    format!(
        "{{\"env\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{n},\"cpu_model\":{},\"hw_counters\":{},\"rustc\":{},\"profile\":\"{}\",\"setup_reps\":{SETUP_REPS},\"serve\":{{\"workers\":{n},\"clients\":{n},\"cache_capacity\":{}}}}}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        genus_common::json::escape(&sys::cpu_model()),
        sys::hw_counters(),
        genus_common::json::escape(env!("PERFBENCH_RUSTC")),
        env!("PERFBENCH_PROFILE"),
        serve::CACHE_CAPACITY,
    )
}

/// Parses the prelude and every stdlib unit from source, as a one-shot
/// `genus` run does once per process. The crates keep these parses in
/// process-wide memos, so without this only the first set-up of a run
/// would pay for them and a slower stdlib parse would move no metric.
fn parse_stdlib() {
    use genus_check::prelude::{PRELUDE, PRELUDE_NAME};
    let mut sm = genus_common::SourceMap::new();
    let prelude = sm.add_file(PRELUDE_NAME, PRELUDE);
    std::hint::black_box(genus_syntax::parse_unit(&sm, prelude, PRELUDE_NAME));
    for (name, src) in genus_stdlib::sources() {
        let file = sm.add_file(*name, *src);
        std::hint::black_box(genus_syntax::parse_unit(&sm, file, name));
    }
}

/// One timed set-up: the stdlib parse, then the workload's own.
fn timed_setup<P, W>(prep: P, setup: fn(P) -> W, times: &mut Vec<f64>) -> W {
    let t = Instant::now();
    parse_stdlib();
    let w = setup(prep);
    times.push(t.elapsed().as_secs_f64());
    w
}

fn mean(v: &[f64]) -> f64 {
    sys::ratio(v.iter().sum(), v.len() as f64)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(
    lat_ms: &[f64],
    throughput: f64,
    cpu_ms_per_op: f64,
    rss_peak_mib: f64,
    setup_s: &[f64],
) -> Vec<(&'static str, &'static str, f64)> {
    let mut sorted = lat_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    vec![
        ("throughput_ops", "ops/s", throughput),
        ("latency_p50_ms", "ms", sys::percentile(&sorted, 0.5)),
        ("latency_p99_ms", "ms", sys::percentile(&sorted, 0.99)),
        ("cpu_ms_per_op", "ms", cpu_ms_per_op),
        ("rss_peak_mb", "MiB", rss_peak_mib),
        ("setup_s", "s", fast_median(setup_s)),
    ]
}

/// Times in ms as a JSON list body, to 0.01 ms.
fn join_ms(ms: impl Iterator<Item = f64>) -> String {
    ms.map(|v| format!("{v:.2}")).collect::<Vec<_>>().join(",")
}

/// The detail line: `samples` is how many op times the end-to-end
/// timings were taken over, `fast` of the `cycles` repeats of each op.
fn detail(
    samples: usize,
    cycles: usize,
    fast: usize,
    cycle_len: usize,
    setup_s: &[f64],
    extra: &str,
) -> String {
    // Samples strictly above the p99 sample.
    let beyond = samples - ((0.99 * samples as f64).ceil() as usize).min(samples);
    format!(
        "{{\"samples\":{samples},\"beyond_p99\":{beyond},\"cycles\":{cycles},\"fast_repeats\":{fast},\"cycle_len\":{cycle_len},\"setup_s\":{setup_s:?}{extra}}}"
    )
}

/// One of the single-thread workloads.
fn single<P: Clone, W: Workload>(
    args: &Args,
    prep: P,
    setup: fn(P) -> W,
    back: fn(W) -> P,
) -> Report {
    let mut setup_s = Vec::new();
    let spare = prep.clone();
    let mut w = timed_setup(prep, setup, &mut setup_s);
    for _ in 1..SETUP_REPS {
        let prep = back(w);
        w = timed_setup(prep, setup, &mut setup_s);
    }
    let mut tr = Tracer::new(Instant::now());
    warm_up(&mut w, &mut tr);
    let mut next = Instant::now() + SETUP_EVERY;
    let s: Samples = measure(&mut w, args.seconds, args.trace, &mut tr, || {
        if Instant::now() >= next {
            drop(timed_setup(spare.clone(), setup, &mut setup_s));
            next += SETUP_EVERY;
        }
    });
    // `lat_ms` holds the untraced cycles, in order, `len` ops each.
    let len = w.cycle_len();
    let fast = fast_samples(&s.lat_ms, len);
    let lat: Vec<f64> = fast.iter().map(|&j| s.lat_ms[j]).collect();
    let metrics = if args.trace {
        let ops = s.traced_lat_ms.len() as f64;
        layers::per_layer(&tr, ops, mean(&s.lat_ms), &BTreeMap::new())
    } else {
        let ops = lat.len() as f64;
        let busy_s = lat.iter().sum::<f64>() / 1e3;
        let cpu_ns: f64 = fast.iter().map(|&j| s.op_cpu_ns[j]).sum();
        end_to_end(
            &lat,
            sys::ratio(ops, busy_s),
            sys::ratio(cpu_ns, ops) / 1e6,
            s.rss_peak_mib,
            &setup_s,
        )
    };
    let detail = detail(
        lat.len(),
        s.cycles,
        lat.len() / len.max(1),
        len,
        &setup_s,
        &format!(
            ",\"warmup_cycles\":{},\"cycle_ms\":[{}]",
            w.warmup_cycles(),
            join_ms(s.cycle_busy_ms.iter().copied())
        ),
    );
    Report {
        attempted: s.attempted(),
        failed: s.failed,
        metrics,
        detail,
        tracer: tr,
    }
}

fn serve_run(args: &Args) -> Report {
    let prep = std::sync::Arc::new(serve::prepare(args.seed));
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut running: Option<serve::Serve> = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = running.take() {
            old.teardown();
        }
        let prep = std::sync::Arc::clone(&prep);
        running = Some(timed_setup(prep, serve::Serve::setup, &mut setup_s));
    }
    let serve = running.expect("at least one set-up");
    let mut tr = Tracer::new(Instant::now());
    let warm = serve.drive(0.0, 1, false, &mut tr).recs;
    let warm_failed = warm.iter().filter(|r| !r.ok).count();
    // The peak from here on is the server's and the clients': the
    // preparation's reference runs and the set-ups are behind it.
    sys::trim_heap();
    sys::reset_peak_rss();
    let c0 = serve.counters();
    let run = serve.drive(args.seconds, 1, args.trace, &mut tr);
    let recs = &run.recs;
    let rss_peak_mib = sys::status_mib("VmHWM");
    let c1 = serve.counters();
    let untraced: Vec<f64> = recs.iter().filter(|r| !r.traced).map(|r| r.ms).collect();
    let len = prep.seq.len();
    // With `--trace 0` every cycle is untraced.
    let fast = fast_cycles(&run.cycle_s, len);
    let lat: Vec<f64> = recs
        .iter()
        .filter(|r| !r.traced && fast.binary_search(&r.cycle).is_ok())
        .map(|r| r.ms)
        .collect();
    let metrics = if args.trace {
        let counters = [0, 1, 2, 3].map(|k| c1[k] - c0[k]);
        let extra = serve::layer_numbers(&serve, recs, counters, &mut tr);
        let traced = recs.iter().filter(|r| r.traced).count() as f64;
        layers::per_layer(&tr, traced, mean(&untraced), &extra)
    } else {
        let n = lat.len() as f64;
        let wall_s: f64 = fast.iter().map(|&k| run.cycle_s[k]).sum();
        let cpu_ns: f64 = fast.iter().map(|&k| run.cycle_cpu_ns[k]).sum();
        end_to_end(
            &lat,
            sys::ratio(n, wall_s),
            sys::ratio(cpu_ns, n) / 1e6,
            rss_peak_mib,
            &setup_s,
        )
    };
    let detail = detail(
        if args.trace { untraced.len() } else { lat.len() },
        recs.len() / len,
        fast.len(),
        len,
        &setup_s,
        &format!(
            ",\"warmup_cycles\":1,\"warmup_failed\":{warm_failed},\"cache_entries\":{},\"classes\":{},\"cycle_ms\":[{}]",
            serve.cache_len(),
            serve::class_detail(&prep, recs),
            join_ms(run.cycle_s.iter().map(|s| s * 1e3))
        ),
    );
    serve.teardown();
    Report {
        attempted: recs.len() as u64,
        failed: recs.iter().filter(|r| !r.ok).count() as u64,
        metrics,
        detail,
        tracer: tr,
    }
}
