//! Parity of the cache-miss compile against the full check.
//!
//! A miss is answered by extending the shared checked stdlib base when the
//! reuse rule allows, and by `check_sources_report` otherwise. For every
//! sample, every error fixture in `docs/ERRORS.md`, every fuzz crash repro
//! and a set of requests that must take the full path, this suite asserts
//! which path the miss took and that it agrees with the full check:
//! identical rendered diagnostics (human, short and json), and identical
//! outcome, output and resource counters on the AST interpreter, the VM
//! and Tier 2.

use genus_check::{check_sources_report, CheckReport, CheckedProgram};
use genus_common::ErrorFormat;
use genus_interp::{Interp, Limits, ResourceStats, RuntimeError};
use genus_serve::cache::{compile, CheckPath, REQUEST_NAME};
use genus_vm::{compile_optimized, compile_tier, Vm};
use std::path::Path;
use std::sync::Arc;

const FORMATS: [ErrorFormat; 3] = [ErrorFormat::Human, ErrorFormat::Short, ErrorFormat::Json];

fn repo() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

fn full_check(src: &str, stdlib: bool) -> CheckReport {
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    if stdlib {
        pairs.extend_from_slice(genus_stdlib::sources());
    }
    pairs.push((REQUEST_NAME, src));
    check_sources_report(&pairs)
}

/// What one engine run shows: value or trap, printed output, counters.
type Run = (Result<String, RuntimeError>, String, ResourceStats);

fn limits() -> Limits {
    Limits {
        fuel: Some(5_000_000),
        ..Limits::default()
    }
}

/// Runs `main()` on the AST interpreter, the VM at O2 and Tier 2.
fn run_all(prog: &CheckedProgram) -> [Run; 3] {
    let ast = std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(genus_serve::pool::WORKER_STACK_SIZE)
            .spawn_scoped(s, || {
                let mut interp = Interp::new(prog);
                interp.set_limits(limits());
                let v = interp.run_main().map(|v| interp.render(&v));
                (v, interp.take_output(), interp.resource_stats())
            })
            .expect("spawn interpreter thread")
            .join()
            .expect("interpreter thread")
    });
    let code = Arc::new(compile_optimized(prog, 2));
    let mut vm = Vm::with_code(prog, Arc::clone(&code));
    vm.set_limits(limits());
    let v = vm.run_main().map(|v| vm.render(&v));
    let vm_run = (v, vm.take_output(), vm.resource_stats());
    let tier = compile_tier(&code);
    let mut vm = Vm::with_code(prog, Arc::clone(tier.code()));
    vm.set_limits(limits());
    let v = vm.run_main_tier(&tier).map(|v| vm.render(&v));
    let jit = (v, vm.take_output(), vm.resource_stats());
    [ast, vm_run, jit]
}

/// Compiles `src` through the miss path and the full check, asserts they
/// agree, and returns the path the miss took.
fn parity(label: &str, src: &str, stdlib: bool) -> CheckPath {
    let (miss, path) = compile(src, stdlib);
    let full = full_check(src, stdlib);
    match path {
        // The extension answers only clean requests, so the full check
        // must render nothing in any format.
        CheckPath::BaseExtend => {
            for format in FORMATS {
                assert_eq!(full.render(format), "", "{label}: {format:?}");
            }
        }
        CheckPath::FullCheck => {
            if let Err(e) = &miss {
                assert_eq!(e, &full.render_errors_short(), "{label}");
            }
        }
    }
    match (&miss, &full.program) {
        (Ok(prog), Some(reference)) => {
            let got = run_all(prog);
            let want = run_all(reference);
            for (engine, (g, w)) in ["ast", "vm", "jit"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(g, w, "{label}: {engine} run differs");
            }
        }
        (Err(_), None) => {}
        _ => panic!("{label}: the miss path and the full check disagree on acceptance"),
    }
    path
}

/// The ```genus blocks of `docs/ERRORS.md`, each under its heading.
fn error_fixtures() -> Vec<(String, String)> {
    let doc = std::fs::read_to_string(repo().join("docs/ERRORS.md")).expect("read ERRORS.md");
    let mut out = Vec::new();
    let mut heading = String::new();
    let mut block: Option<String> = None;
    for line in doc.lines() {
        if let Some(h) = line.strip_prefix("## ") {
            heading = h.to_string();
        } else if line == "```genus" {
            block = Some(String::new());
        } else if line == "```" {
            if let Some(b) = block.take() {
                out.push((heading.clone(), b));
            }
        } else if let Some(b) = block.as_mut() {
            b.push_str(line);
            b.push('\n');
        }
    }
    assert!(out.len() > 40, "found only {} fixtures", out.len());
    out
}

fn genus_files(dir: &str) -> Vec<(String, String)> {
    let mut files: Vec<_> = std::fs::read_dir(repo().join(dir))
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "genus"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("read source"))
        })
        .collect()
}

#[test]
fn samples_match_the_full_check_on_the_expected_path() {
    // Samples that declare a model for a prelude or stdlib constraint
    // could change a stdlib verdict, so they take the full check.
    let full_path = [
        "ci_word_count.genus",
        "comparator_sort.genus",
        "scheduler.genus",
    ];
    let samples = genus_files("samples");
    assert!(samples.len() >= 7);
    for (name, src) in &samples {
        let want = if full_path.contains(&name.as_str()) {
            CheckPath::FullCheck
        } else {
            CheckPath::BaseExtend
        };
        assert_eq!(parity(name, src, true), want, "{name}");
        // Without the stdlib the prelude-only base answers or declines.
        parity(name, src, false);
    }
}

#[test]
fn error_fixtures_match_the_full_check() {
    let mut extended = 0;
    for (heading, src) in error_fixtures().iter().chain(&genus_files("fuzz/crashes")) {
        let path = parity(heading, src, true);
        let clean = full_check(src, true).diags.is_empty();
        // Every fixture with a diagnostic takes the full path; the clean
        // ones (the runtime traps) extend the base unless they declare
        // something the reuse rule sends to the full check.
        if !clean {
            assert_eq!(path, CheckPath::FullCheck, "{heading}");
        } else if path == CheckPath::BaseExtend {
            extended += 1;
        }
    }
    assert!(
        extended >= 5,
        "only {extended} trap fixtures extended the base"
    );
}

#[test]
fn requests_that_could_change_the_stdlib_take_the_full_path() {
    // (label, source, whether the full check accepts it)
    let cases = [
        (
            "top-level use",
            "class K { int v; K(int v) { this.v = v; } }\n\
             model KCmp for Comparable[K] {\n\
               boolean equals(K that) { return v == that.v; }\n\
               int compareTo(K that) { return that.v - v; }\n\
             }\n\
             use KCmp;\n\
             int main() { TreeSet[K] s = new TreeSet[K](); s.add(new K(2)); s.add(new K(1)); \
             return s.first().v; }",
            true,
        ),
        (
            "enrich",
            "class Sq extends Shape { Sq() { kind = \"sq\"; } }\n\
             enrich ShapeIntersect { Shape Sq.intersect(Shape s) { return this; } }\n\
             int main() { println(new Sq()); return 0; }",
            true,
        ),
        (
            "class named like a stdlib class",
            "class ArrayList { ArrayList() { } }\nint main() { return 0; }",
            false,
        ),
        ("body type error", "int main() { return \"no\"; }", false),
        (
            "overload of a stdlib global",
            "int sortList(int x, int y) { return x + y; }\nint main() { return sortList(4, 5); }",
            true,
        ),
        (
            "import",
            "import collections;\n\
             int main() { ArrayList[int] l = new ArrayList[int](); return l.size(); }",
            true,
        ),
    ];
    for (label, src, accepted) in cases {
        assert_eq!(parity(label, src, true), CheckPath::FullCheck, "{label}");
        let full = full_check(src, true);
        assert_eq!(
            full.program.is_some(),
            accepted,
            "{label}: {:?}",
            full.error_codes()
        );
    }
    // A request-local constraint with its own model extends the base.
    let local = "constraint Rank[T] { int rank(); }\n\
                 class Job { int p; Job(int p) { this.p = p; } }\n\
                 model JobRank for Rank[Job] { int rank() { return p; } }\n\
                 int best[T](ArrayList[T] l) where Rank[T] {\n\
                   int b = 0;\n\
                   for (int i = 0; i < l.size(); i = i + 1) { if (l.get(i).rank() > b) { b = l.get(i).rank(); } }\n\
                   return b;\n\
                 }\n\
                 int main() { ArrayList[Job] l = new ArrayList[Job](); l.add(new Job(3)); l.add(new Job(9)); \
                 println(\"best \" + best(l)); return best(l); }";
    assert_eq!(parity("local model", local, true), CheckPath::BaseExtend);
}
