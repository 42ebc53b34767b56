//! Parity of the cache-miss compile against the unshared full build.
//!
//! A miss is a cold check in a fresh session seeded the way `genus run`
//! seeds its own, which extends the shared checked stdlib base whenever
//! the reuse rule allows. For every sample, every error fixture in
//! `docs/ERRORS.md`, every fuzz crash repro and a set of requests that
//! must take the full path, this suite asserts which path the miss took
//! and that it agrees with the unshared full build
//! ([`genus_check::check_unshared`]): identical rendered diagnostics
//! (human, short and json), and identical outcome, output and resource
//! counters on the AST interpreter, the VM and Tier 2.

use genus_check::{CheckReport, CheckedProgram};
use genus_common::ErrorFormat;
use genus_interp::{with_interp_stack, Limits, ResourceStats, RuntimeError};
use genus_serve::cache::{compile, REQUEST_NAME};
use genus_vm::exec::{execute, Code};
use genus_vm::{compile_optimized, compile_tier};
use std::path::Path;
use std::sync::Arc;

const FORMATS: [ErrorFormat; 3] = [ErrorFormat::Human, ErrorFormat::Short, ErrorFormat::Json];

fn repo() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

/// The reference check: the unshared full build, with the stdlib as
/// always-visible units, as under `genus run`.
fn full_check(src: &str, stdlib: bool) -> CheckReport {
    genus_check::check_unshared(stdlib, &[(REQUEST_NAME, src)])
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
    let code = Arc::new(compile_optimized(prog, 2));
    let tier = compile_tier(&code);
    let run = |code| {
        let ex = execute(prog, code, limits());
        (ex.outcome, ex.output, ex.resource_stats)
    };
    [
        with_interp_stack(|| run(Code::Ast)),
        run(Code::Vm(&code)),
        run(Code::Tier(&tier)),
    ]
}

/// Compiles `src` through the miss path and the full build, asserts they
/// agree, and returns whether the miss extended the base.
fn parity(label: &str, src: &str, stdlib: bool) -> bool {
    let (miss, extended) = compile(src, stdlib);
    let full = full_check(src, stdlib);
    for format in FORMATS {
        assert_eq!(
            miss.render(format),
            full.render(format),
            "{label}: {format:?}"
        );
    }
    match (&miss.program, &full.program) {
        (Some(prog), Some(reference)) => {
            let got = run_all(prog);
            let want = run_all(reference);
            for (engine, (g, w)) in ["ast", "vm", "jit"].iter().zip(got.iter().zip(&want)) {
                assert_eq!(g, w, "{label}: {engine} run differs");
            }
        }
        (None, None) => {}
        _ => panic!("{label}: the miss path and the full build disagree on acceptance"),
    }
    extended
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
    // could change a stdlib verdict, so they take the full build.
    let full_path = [
        "ci_word_count.genus",
        "comparator_sort.genus",
        "scheduler.genus",
    ];
    let samples = genus_files("samples");
    assert!(samples.len() >= 7);
    for (name, src) in &samples {
        let want = !full_path.contains(&name.as_str());
        assert_eq!(parity(name, src, true), want, "{name}");
        // Without the stdlib the prelude-only base answers or declines.
        parity(name, src, false);
    }
}

#[test]
fn error_fixtures_match_the_full_check() {
    let (mut clean_extended, mut diag_extended) = (0, 0);
    for (heading, src) in error_fixtures().iter().chain(&genus_files("fuzz/crashes")) {
        let extended = parity(heading, src, true);
        let clean = full_check(src, true).diags.is_empty();
        // Fixtures extend the base unless they declare something the
        // reuse rule sends to the full build, or do not parse; their
        // body diagnostics are the session's own.
        match (extended, clean) {
            (true, true) => clean_extended += 1,
            (true, false) => diag_extended += 1,
            _ => {}
        }
    }
    assert!(
        clean_extended >= 5,
        "only {clean_extended} trap fixtures extended the base"
    );
    assert!(
        diag_extended >= 5,
        "only {diag_extended} diagnostic fixtures extended the base"
    );
}

#[test]
fn requests_that_could_change_the_stdlib_take_the_full_path() {
    // An import does not hide the stdlib's other modules: they are
    // always visible, as under `genus run`.
    let import_graph = "import graph;\n\
                        int main() { ArrayList[int] l = new ArrayList[int](); l.add(21); \
                        return l.get(0) * 2; }";
    // (label, source, whether the miss extends the base, whether the full
    // build accepts it)
    let cases = [
        (
            "import of a module the body does not use",
            import_graph,
            true,
            true,
        ),
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
            false,
            true,
        ),
        (
            "enrich",
            "class Sq extends Shape { Sq() { kind = \"sq\"; } }\n\
             enrich ShapeIntersect { Shape Sq.intersect(Shape s) { return this; } }\n\
             int main() { println(new Sq()); return 0; }",
            false,
            true,
        ),
        (
            "class named like a stdlib class",
            "class ArrayList { ArrayList() { } }\nint main() { return 0; }",
            false,
            false,
        ),
        (
            "body type error",
            "int main() { return \"no\"; }",
            true,
            false,
        ),
        (
            "overload of a stdlib global",
            "int sortList(int x, int y) { return x + y; }\nint main() { return sortList(4, 5); }",
            false,
            true,
        ),
        (
            "import",
            "import collections;\n\
             int main() { ArrayList[int] l = new ArrayList[int](); return l.size(); }",
            true,
            true,
        ),
    ];
    for (label, src, extends, accepted) in cases {
        assert_eq!(parity(label, src, true), extends, "{label}");
        let full = full_check(src, true);
        assert_eq!(
            full.program.is_some(),
            accepted,
            "{label}: {:?}",
            full.error_codes()
        );
    }
    // The import request runs to `genus run`'s value on every engine.
    let prog = compile(import_graph, true).0.into_program().unwrap();
    for (engine, (outcome, _, _)) in ["ast", "vm", "jit"].iter().zip(run_all(&prog)) {
        assert_eq!(outcome, Ok("42".to_string()), "{engine}");
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
    assert!(parity("local model", local, true));
}
