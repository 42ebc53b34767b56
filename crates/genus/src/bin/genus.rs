//! The `genus` command-line driver: check, run, serve, and batch-run
//! Genus source files.
//!
//! ```console
//! $ genus run program.genus            # compile + execute main()
//! $ genus check program.genus ...      # type-check only
//! $ genus run --no-stdlib tiny.genus   # prelude only
//! $ genus run --engine=vm program.genus  # bytecode VM instead of the AST
//! $ genus run --error-format=json p.genus  # one JSON object per diagnostic
//! $ genus run --stats program.genus    # print cache/dispatch statistics
//! $ genus run --fuel=100000 p.genus    # trap R0009 past the step budget
//! $ genus serve --workers=4            # JSON-lines service on stdin/stdout
//! $ genus serve --listen=127.0.0.1:7878  # ... or over TCP
//! $ genus batch samples/               # run every .genus file in a dir
//! $ genus fuzz --seconds=20 --seed=1   # differential fuzz the engines
//! $ genus fuzz --replay fuzz/crashes/crash-1.genus  # re-run a repro
//! ```
//!
//! Exit codes are tiered so scripts and CI can distinguish failure modes:
//! `0` success, `1` compile errors (or warnings under `--deny-warnings`),
//! `2` usage or I/O errors, `3` runtime trap.

use genus::{CheckReport, Engine, ErrorFormat, Limits};
use genus_serve::{EngineKind, Outcome, Request, ServeConfig, Server, DEFAULT_FUEL};
use std::process::ExitCode;

/// Exit tier for compile errors (and denied warnings).
const EXIT_COMPILE: u8 = 1;
/// Exit tier for usage and I/O errors.
const EXIT_USAGE: u8 = 2;
/// Exit tier for a runtime trap.
const EXIT_TRAP: u8 = 3;

fn usage() -> ! {
    eprintln!(
        "usage: genus <run|check> [options] <file.genus> [more files...]\n\
         \x20      genus serve [options]\n\
         \x20      genus batch [options] <dir>\n\
         \x20      genus fuzz [options] [--replay <file.genus> ...]\n\
         \n\
         run     compile the files (with the standard library unless\n\
         \x20        --no-stdlib is given) and execute main()\n\
         check   type-check only and report diagnostics; with --watch,\n\
         \x20        keep an incremental session open and re-check the\n\
         \x20        files whenever they change on disk (end with EOF on\n\
         \x20        stdin or Ctrl-C)\n\
         serve   JSON-lines execution service: one request object per\n\
         \x20        line on stdin (or a TCP connection with --listen),\n\
         \x20        one response line each, in request order\n\
         batch   run every .genus file in <dir> through the service and\n\
         \x20        print a per-request stats line\n\
         fuzz    coverage-guided differential fuzzing: generate/mutate\n\
         \x20        well-typed programs and cross-check the AST\n\
         \x20        interpreter, VM (O0/O2), Tier 2, GC-stress, bytecode\n\
         \x20        round-trip, and incremental re-checks against each\n\
         \x20        other; with --replay, re-run saved repros instead\n\
         \n\
         options:\n\
         \x20 --no-stdlib        compile with only the built-in prelude\n\
         \x20 --engine=<ast|vm|jit>\n\
         \x20                    execution engine: the tree-walking\n\
         \x20                    interpreter (default), the bytecode VM,\n\
         \x20                    or the closure-compiled Tier 2 (jit)\n\
         \x20 --opt-level=<0|1|2>\n\
         \x20                    VM bytecode optimization: 0 none, 1 cleanup\n\
         \x20                    passes, 2 (default) adds specialization\n\
         \x20                    (heterogeneous translation); same observable\n\
         \x20                    behaviour at every level\n\
         \x20 --error-format=<human|short|json>\n\
         \x20                    diagnostic rendering: full snippets with\n\
         \x20                    carets (default), one line per diagnostic,\n\
         \x20                    or one JSON object per diagnostic\n\
         \x20 --deny-warnings    treat warnings as errors (exit 1)\n\
         \x20 --watch            check: poll the files' mtimes and\n\
         \x20                    incrementally re-check on every change,\n\
         \x20                    printing per-iteration reuse statistics\n\
         \x20 --stats            after running, print dispatch-cache,\n\
         \x20                    type-query-cache, resource, and (VM)\n\
         \x20                    bytecode-optimizer statistics to stderr\n\
         \x20 --fuel=<n>         trap R0009 after n interpreter steps\n\
         \x20                    (serve/batch default: {DEFAULT_FUEL})\n\
         \x20 --memory=<n>       trap R0010 past n allocated heap bytes\n\
         \x20 --deadline-ms=<n>  trap R0009 past a wall-clock deadline\n\
         \x20                    (serve: enforced by the scheduler, queue\n\
         \x20                    time included)\n\
         \x20 --workers=<n>      serve/batch worker threads (default 4)\n\
         \x20 --listen=<addr>    serve over TCP on addr instead of stdio\n\
         \x20 --tier-threshold=<n>\n\
         \x20                    serve/batch: `engine: \"auto\"` requests\n\
         \x20                    promote a cached program to Tier 2 after\n\
         \x20                    n invocations (default 8)\n\
         \x20 --cache-dir=<path> serve/batch: persist compiled bytecode as\n\
         \x20                    versioned artifacts in <path>; a restarted\n\
         \x20                    server answers known programs from disk\n\
         \x20                    without recompiling\n\
         \x20 --cache-cap=<n>    serve/batch: bound the in-memory program\n\
         \x20                    cache to n entries, evicting least-recently\n\
         \x20                    used (default 1024)\n\
         \x20 --metrics-on-start serve: print one metrics JSON line to\n\
         \x20                    stderr at boot (the same object a\n\
         \x20                    {{\"action\":\"metrics\"}} request returns)\n\
         \x20 --seed=<n>         fuzz: master PRNG seed (default 1); a\n\
         \x20                    fixed seed + corpus gives identical runs\n\
         \x20 --cases=<n>        fuzz: deterministic case budget (default\n\
         \x20                    400)\n\
         \x20 --seconds=<n>      fuzz: wall-clock cap checked between\n\
         \x20                    cases (a safety net, not a work driver)\n\
         \x20 --corpus=<dir>     fuzz: persist novelty-bearing inputs to\n\
         \x20                    <dir> and reload them next run\n\
         \x20 --crash-dir=<dir>  fuzz: write minimized divergence repros\n\
         \x20                    to <dir> (default fuzz/crashes)\n\
         \x20 --replay           fuzz: run the given .genus files through\n\
         \x20                    the oracle suite once each, no fuzzing\n\
         \n\
         exit codes: 0 success, 1 compile errors, 2 usage/IO, 3 runtime trap\n\
         \x20           (fuzz: 3 also means a divergence was found)"
    );
    std::process::exit(i32::from(EXIT_USAGE));
}

fn print_stats(ex: &genus::Execution) {
    let d = &ex.dispatch_stats;
    let c = &ex.cache_stats;
    eprintln!("--- dispatch stats ---");
    eprintln!(
        "inline cache:   {} hits / {} misses",
        d.ic_hits, d.ic_misses
    );
    eprintln!(
        "virtual memo:   {} hits / {} misses",
        d.virt_hits, d.virt_misses
    );
    eprintln!(
        "model dispatch: {} hits / {} misses",
        d.model_hits, d.model_misses
    );
    eprintln!("--- type-query cache stats ---");
    eprintln!(
        "subtype:  {} hits / {} misses",
        c.subtype_hits, c.subtype_misses
    );
    eprintln!(
        "prereq:   {} hits / {} misses",
        c.prereq_hits, c.prereq_misses
    );
    eprintln!(
        "conforms: {} hits / {} misses",
        c.conforms_hits, c.conforms_misses
    );
    eprintln!(
        "resolve:  {} hits / {} misses",
        c.resolve_hits, c.resolve_misses
    );
    eprintln!("total:    {} hits / {} misses", c.hits(), c.misses());
    eprintln!("--- resource stats ---");
    eprintln!("fuel used:    {} steps", ex.resource_stats.fuel_used);
    eprintln!("allocated:    {} bytes", ex.resource_stats.mem_used);
    eprintln!("live at end:  {} bytes", ex.resource_stats.live_bytes);
    eprintln!("peak live:    {} bytes", ex.resource_stats.peak_bytes);
    eprintln!("collections:  {}", ex.resource_stats.collections);
    if let Some(o) = &ex.opt_stats {
        eprintln!("--- bytecode optimizer stats (opt-level {}) ---", o.level);
        eprintln!("functions specialized:   {}", o.funcs_specialized);
        eprintln!("calls made direct:       {}", o.calls_directed);
        eprintln!("model calls devirted:    {}", o.call_model_devirted);
        eprintln!("budget fallbacks:        {}", o.budget_fallbacks);
        eprintln!("dynamic fallbacks:       {}", o.dynamic_fallbacks);
        eprintln!("constants folded:        {}", o.consts_folded);
        eprintln!("branches folded:         {}", o.branches_folded);
        eprintln!("moves coalesced:         {}", o.moves_coalesced);
        eprintln!("instructions eliminated: {}", o.ops_eliminated);
        eprintln!("types pre-reified:       {}", o.types_reified);
    }
    if let Some(t) = &ex.tier_stats {
        eprintln!("--- tier-2 compile stats ---");
        eprintln!("functions tiered:        {}", t.funcs_tiered);
        eprintln!("basic blocks compiled:   {}", t.blocks);
    }
}

/// Prints the report's warnings to stderr in the chosen format.
fn print_warnings(report: &CheckReport, format: ErrorFormat) {
    let sep = if format == ErrorFormat::Human {
        "\n\n"
    } else {
        "\n"
    };
    let rendered: Vec<String> = report
        .warnings()
        .map(|d| d.render_with(&report.sm, format))
        .collect();
    if !rendered.is_empty() {
        eprintln!("{}", rendered.join(sep));
    }
}

/// Parses a `--flag=<u64>` value, exiting with a usage error on garbage.
fn parse_u64(flag: &str, value: &str) -> u64 {
    match value.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: bad value `{value}` for --{flag} (expected an integer)");
            std::process::exit(i32::from(EXIT_USAGE));
        }
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else { usage() };
    let mut stdlib = true;
    let mut watch = false;
    let mut stats = false;
    let mut deny_warnings = false;
    let mut engine = Engine::Ast;
    let mut opt_level: u8 = 2;
    let mut format = ErrorFormat::Human;
    let mut limits = Limits::default();
    let mut workers: usize = 4;
    let mut tier_threshold: u64 = ServeConfig::default().tier_threshold;
    let mut listen: Option<String> = None;
    let mut cache_dir: Option<std::path::PathBuf> = None;
    let mut cache_capacity: usize = ServeConfig::default().cache_capacity;
    let mut metrics_on_start = false;
    let mut fuzz_seed: u64 = 1;
    let mut fuzz_cases: u64 = 400;
    let mut fuzz_seconds: Option<u64> = None;
    let mut fuzz_corpus: Option<std::path::PathBuf> = None;
    let mut fuzz_crash_dir: Option<std::path::PathBuf> = None;
    let mut fuzz_replay = false;
    let mut files: Vec<String> = Vec::new();
    for a in args {
        if a == "--no-stdlib" {
            stdlib = false;
        } else if a == "--watch" {
            watch = true;
        } else if a == "--stats" {
            stats = true;
        } else if a == "--deny-warnings" {
            deny_warnings = true;
        } else if let Some(name) = a.strip_prefix("--engine=") {
            let Some(e) = Engine::from_name(name) else {
                eprintln!("error: unknown engine `{name}` (expected `ast`, `vm`, or `jit`)");
                return ExitCode::from(EXIT_USAGE);
            };
            engine = e;
        } else if let Some(level) = a.strip_prefix("--opt-level=") {
            match level.parse::<u8>() {
                Ok(l) if l <= 2 => opt_level = l,
                _ => {
                    eprintln!("error: unknown opt level `{level}` (expected 0, 1, or 2)");
                    return ExitCode::from(EXIT_USAGE);
                }
            }
        } else if let Some(name) = a.strip_prefix("--error-format=") {
            let Some(f) = ErrorFormat::from_name(name) else {
                eprintln!(
                    "error: unknown error format `{name}` (expected `human`, `short`, or `json`)"
                );
                return ExitCode::from(EXIT_USAGE);
            };
            format = f;
        } else if let Some(v) = a.strip_prefix("--fuel=") {
            limits.fuel = Some(parse_u64("fuel", v));
        } else if let Some(v) = a.strip_prefix("--memory=") {
            limits.memory = Some(parse_u64("memory", v));
        } else if let Some(v) = a.strip_prefix("--deadline-ms=") {
            limits.deadline_ms = Some(parse_u64("deadline-ms", v));
        } else if let Some(v) = a.strip_prefix("--workers=") {
            workers = (parse_u64("workers", v) as usize).max(1);
        } else if let Some(v) = a.strip_prefix("--tier-threshold=") {
            tier_threshold = parse_u64("tier-threshold", v);
        } else if let Some(addr) = a.strip_prefix("--listen=") {
            listen = Some(addr.to_string());
        } else if let Some(dir) = a.strip_prefix("--cache-dir=") {
            cache_dir = Some(std::path::PathBuf::from(dir));
        } else if let Some(v) = a.strip_prefix("--cache-cap=") {
            cache_capacity = (parse_u64("cache-cap", v) as usize).max(1);
        } else if a == "--metrics-on-start" {
            metrics_on_start = true;
        } else if let Some(v) = a.strip_prefix("--seed=") {
            fuzz_seed = parse_u64("seed", v);
        } else if let Some(v) = a.strip_prefix("--cases=") {
            fuzz_cases = parse_u64("cases", v);
        } else if let Some(v) = a.strip_prefix("--seconds=") {
            fuzz_seconds = Some(parse_u64("seconds", v));
        } else if let Some(dir) = a.strip_prefix("--corpus=") {
            fuzz_corpus = Some(std::path::PathBuf::from(dir));
        } else if let Some(dir) = a.strip_prefix("--crash-dir=") {
            fuzz_crash_dir = Some(std::path::PathBuf::from(dir));
        } else if a == "--replay" {
            fuzz_replay = true;
        } else if a == "--help" || a == "-h" {
            usage();
        } else if a.starts_with('-') {
            eprintln!("error: unknown option `{a}`");
            return ExitCode::from(EXIT_USAGE);
        } else {
            files.push(a);
        }
    }

    if cmd == "fuzz" {
        return cmd_fuzz(
            fuzz_seed,
            fuzz_cases,
            fuzz_seconds,
            fuzz_corpus,
            fuzz_crash_dir,
            fuzz_replay,
            limits.fuel,
            &files,
        );
    }

    // The service subcommands apply a default fuel budget so a looping
    // request traps R0009 instead of pinning a worker forever.
    if cmd == "serve" || cmd == "batch" {
        if limits.fuel.is_none() {
            limits.fuel = Some(DEFAULT_FUEL);
        }
        let config = ServeConfig {
            workers,
            default_limits: limits,
            tier_threshold,
            cache_dir,
            cache_capacity,
            ..ServeConfig::default()
        };
        return match cmd.as_str() {
            "serve" => cmd_serve(&config, listen.as_deref(), metrics_on_start, &files),
            _ => cmd_batch(&config, engine, opt_level, stdlib, &files),
        };
    }
    if files.is_empty() {
        usage();
    }
    if watch {
        if cmd != "check" {
            eprintln!("error: --watch is only valid with `genus check`");
            return ExitCode::from(EXIT_USAGE);
        }
        return cmd_watch(&files, stdlib, format);
    }
    let mut compiler = genus::Compiler::new()
        .engine(engine)
        .opt_level(opt_level)
        .error_format(format)
        .limits(limits);
    if stdlib {
        compiler = compiler.with_stdlib();
    }
    for f in &files {
        match std::fs::read_to_string(f) {
            Ok(src) => compiler = compiler.source(f.clone(), src),
            Err(e) => {
                eprintln!("error: cannot read `{f}`: {e}");
                return ExitCode::from(EXIT_USAGE);
            }
        }
    }

    // Type-check once up front so warnings can be surfaced (with their
    // stable codes) even on successful runs.
    let mut report = compiler.check_report();
    if report.has_errors() {
        eprintln!("{}", report.render(format));
        return ExitCode::from(EXIT_COMPILE);
    }
    print_warnings(&report, format);
    if deny_warnings && report.warnings().next().is_some() {
        eprintln!("error: warnings denied by --deny-warnings");
        return ExitCode::from(EXIT_COMPILE);
    }
    let prog = report.program.take().expect("no errors implies a program");

    match cmd.as_str() {
        "check" => {
            println!(
                "ok: {} classes, {} constraints, {} models, {} top-level methods",
                prog.table.classes.len(),
                prog.table.constraints.len(),
                prog.table.models.len(),
                prog.table.globals.len()
            );
            ExitCode::SUCCESS
        }
        "run" => {
            let ex = compiler.execute_checked(prog);
            // Output printed before a trap is still shown.
            print!("{}", ex.output);
            let code = match &ex.outcome {
                Ok(v) => {
                    if v != "void" {
                        println!("=> {v}");
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    // Render the trap like a diagnostic, format-aware, so
                    // `--error-format=json` stays machine-readable end to end.
                    eprintln!("{}", e.to_diagnostic().render_with(&report.sm, format));
                    ExitCode::from(EXIT_TRAP)
                }
            };
            if stats {
                print_stats(&ex);
            }
            code
        }
        _ => usage(),
    }
}

/// `genus fuzz`: run the coverage-guided differential fuzzer, or (with
/// `--replay`) re-run saved `.genus` repros through the oracle suite.
/// Divergences exit with the runtime-trap tier (3): they are the fuzz
/// analogue of a program misbehaving at runtime.
#[allow(clippy::too_many_arguments)]
fn cmd_fuzz(
    seed: u64,
    cases: u64,
    seconds: Option<u64>,
    corpus: Option<std::path::PathBuf>,
    crash_dir: Option<std::path::PathBuf>,
    replay: bool,
    fuel: Option<u64>,
    files: &[String],
) -> ExitCode {
    use genus_fuzz::Verdict;
    if replay {
        if files.is_empty() {
            eprintln!("error: `genus fuzz --replay` needs at least one .genus file");
            return ExitCode::from(EXIT_USAGE);
        }
        // Replays get a generous budget: repros should finish, and a
        // fuel skip would silently mask a once-diverging case.
        let fuel = fuel.unwrap_or(10_000_000);
        let mut tier: u8 = 0;
        for f in files {
            let src = match std::fs::read_to_string(f) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("error: cannot read `{f}`: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            match genus_fuzz::replay(&src, fuel) {
                Verdict::Pass => println!("{f}: pass"),
                Verdict::ResourceSkip => println!("{f}: fuel-skip"),
                Verdict::CompileReject(codes) => println!("{f}: compile-reject [{codes}]"),
                Verdict::Divergence(d) => {
                    println!("{f}: DIVERGENCE [{}] {}", d.oracle, d.detail);
                    tier = tier.max(EXIT_TRAP);
                }
            }
        }
        return ExitCode::from(tier);
    }
    if !files.is_empty() {
        eprintln!("error: `genus fuzz` takes no file arguments (use --replay to run repros)");
        return ExitCode::from(EXIT_USAGE);
    }
    let config = genus_fuzz::FuzzConfig {
        seed,
        cases,
        seconds,
        corpus_dir: corpus,
        crash_dir: Some(crash_dir.unwrap_or_else(|| std::path::PathBuf::from("fuzz/crashes"))),
        fuel: fuel.unwrap_or(100_000),
        ..genus_fuzz::FuzzConfig::default()
    };
    let report = match genus_fuzz::fuzz(config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: fuzz I/O failed: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    println!("{}", report.summary());
    for crash in &report.crashes {
        match &crash.path {
            Some(p) => println!(
                "divergence [{}] {} -> {}",
                crash.oracle,
                crash.detail,
                p.display()
            ),
            None => println!("divergence [{}] {}", crash.oracle, crash.detail),
        }
    }
    if report.crashes.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(EXIT_TRAP)
    }
}

/// `genus check --watch`: keep one incremental [`genus::CompileSession`]
/// open and re-check the files whenever their mtimes change (150 ms
/// polling — no OS file-watcher dependency). Each iteration prints the
/// diagnostics plus a `watch:` line with the session's per-iteration
/// reuse counters. The loop ends at EOF on stdin (which makes it
/// testable: `: | genus check --watch f.genus` runs exactly one
/// iteration) with exit code 0/1 reflecting the **last** check.
fn cmd_watch(files: &[String], stdlib: bool, format: ErrorFormat) -> ExitCode {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let stop = Arc::new(AtomicBool::new(false));
    {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            use std::io::Read;
            let mut sink = Vec::new();
            let _ = std::io::stdin().lock().read_to_end(&mut sink);
            stop.store(true, Ordering::Relaxed);
        });
    }
    let mut session = if stdlib {
        genus::CompileSession::with_stdlib()
    } else {
        genus::CompileSession::new()
    };
    let mut mtimes: Vec<Option<std::time::SystemTime>> = vec![None; files.len()];
    let mut first = true;
    let mut last_errors = false;
    loop {
        let mut changed = false;
        for (i, f) in files.iter().enumerate() {
            let mtime = std::fs::metadata(f).and_then(|m| m.modified()).ok();
            if first || mtime != mtimes[i] {
                mtimes[i] = mtime;
                match std::fs::read_to_string(f) {
                    Ok(src) => {
                        session.update_source(f, &src);
                        changed = true;
                    }
                    Err(e) => {
                        eprintln!("error: cannot read `{f}`: {e}");
                        if first {
                            return ExitCode::from(EXIT_USAGE);
                        }
                    }
                }
            }
        }
        if changed {
            let start = std::time::Instant::now();
            let before = session.stats();
            let report = session.check();
            let after = session.stats();
            last_errors = report.has_errors();
            let rendered = session.render_diags(format);
            if !rendered.is_empty() {
                eprintln!("{rendered}");
            }
            eprintln!(
                "watch: {} — {} unit(s), {} reused, {} re-checked, {} parsed, {}ms",
                if last_errors { "errors" } else { "ok" },
                after.units,
                after.units_not_rechecked() - before.units_not_rechecked(),
                after.units_rechecked - before.units_rechecked,
                after.parse_new - before.parse_new,
                start.elapsed().as_millis(),
            );
        }
        first = false;
        if stop.load(Ordering::Relaxed) {
            return if last_errors {
                ExitCode::from(EXIT_COMPILE)
            } else {
                ExitCode::SUCCESS
            };
        }
        std::thread::sleep(std::time::Duration::from_millis(150));
    }
}

/// `genus serve`: drive JSON-lines sessions over stdin/stdout, or over
/// TCP with `--listen`. Requests choose their own engine/opt level; the
/// CLI flags set the default resource budgets.
fn cmd_serve(
    config: &ServeConfig,
    listen: Option<&str>,
    metrics_on_start: bool,
    files: &[String],
) -> ExitCode {
    if !files.is_empty() {
        eprintln!("error: `genus serve` takes no file arguments (requests arrive as JSON lines)");
        return ExitCode::from(EXIT_USAGE);
    }
    let server = Server::new(config.clone());
    if metrics_on_start {
        eprintln!("{}", server.metrics_json());
    }
    match listen {
        Some(addr) => {
            let listener = match std::net::TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: cannot listen on `{addr}`: {e}");
                    return ExitCode::from(EXIT_USAGE);
                }
            };
            if let Ok(local) = listener.local_addr() {
                eprintln!(
                    "genus-serve: listening on {local} ({} workers)",
                    config.workers
                );
            }
            match server.serve_tcp(&listener) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: accept failed: {e}");
                    ExitCode::from(EXIT_USAGE)
                }
            }
        }
        None => {
            let stdin = std::io::stdin().lock();
            let mut stdout = std::io::stdout().lock();
            let result = server.run_session(stdin, &mut stdout);
            let stats = server.cache_stats();
            server.shutdown();
            match result {
                Ok(handled) => {
                    eprintln!(
                        "genus-serve: {handled} request(s), {} compile(s), {} cache hit(s), {} disk hit(s), {} tier compile(s)",
                        stats.compiles, stats.hits, stats.disk_hits, stats.tier_compiles
                    );
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: session I/O failed: {e}");
                    ExitCode::from(EXIT_USAGE)
                }
            }
        }
    }
}

/// `genus batch <dir>`: run every `.genus` file in a directory through
/// the service (sorted by name, so output order is deterministic) and
/// print one stats line per request. The default fuel budget means a
/// sample that loops forever fails its run instead of hanging the batch.
fn cmd_batch(
    config: &ServeConfig,
    engine: Engine,
    opt_level: u8,
    stdlib: bool,
    files: &[String],
) -> ExitCode {
    let [dir] = files else {
        eprintln!("error: `genus batch` takes exactly one directory argument");
        return ExitCode::from(EXIT_USAGE);
    };
    let entries = match std::fs::read_dir(dir) {
        Ok(iter) => iter,
        Err(e) => {
            eprintln!("error: cannot read `{dir}`: {e}");
            return ExitCode::from(EXIT_USAGE);
        }
    };
    let mut paths: Vec<std::path::PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "genus"))
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("error: no .genus files in `{dir}`");
        return ExitCode::from(EXIT_USAGE);
    }
    let mut requests = Vec::new();
    for path in &paths {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read `{}`: {e}", path.display());
                return ExitCode::from(EXIT_USAGE);
            }
        };
        let mut req = Request::new(path.display().to_string(), source);
        req.engine = match engine {
            Engine::Ast => EngineKind::Ast,
            Engine::Vm => EngineKind::Vm,
            Engine::Jit => EngineKind::Jit,
        };
        req.opt_level = opt_level;
        req.stdlib = stdlib;
        req.limits = config.default_limits;
        requests.push(req);
    }
    let server = Server::new(config.clone());
    let responses = server.run_batch(requests);
    let stats = server.cache_stats();
    server.shutdown();
    let mut tier: u8 = 0;
    for resp in &responses {
        let cache = if resp.cache_hit { "hit" } else { "miss" };
        match &resp.outcome {
            Outcome::Ok(value) => {
                println!(
                    "{}: ok value={value} fuel={} mem={} gcs={} cache={cache} ms={}",
                    resp.id, resp.fuel_used, resp.mem_used, resp.collections, resp.ms
                );
            }
            Outcome::Trap { code, message } => {
                println!(
                    "{}: trap {code} ({message}) fuel={} mem={} gcs={} cache={cache} ms={}",
                    resp.id, resp.fuel_used, resp.mem_used, resp.collections, resp.ms
                );
                tier = tier.max(EXIT_TRAP);
            }
            Outcome::Error(message) => {
                let first = message.lines().next().unwrap_or("compile error");
                println!("{}: error {first} cache={cache} ms={}", resp.id, resp.ms);
                tier = tier.max(EXIT_COMPILE);
            }
        }
    }
    eprintln!(
        "genus-batch: {} request(s), {} compile(s), {} cache hit(s), {} tier compile(s)",
        responses.len(),
        stats.compiles,
        stats.hits,
        stats.tier_compiles
    );
    ExitCode::from(tier)
}
