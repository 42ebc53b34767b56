//! Differential harness over the shipped sample programs: every file in
//! `samples/` is compiled once through the public `Compiler` API and executed
//! on ALL THREE engines (AST interpreter, bytecode VM, closure-compiled
//! Tier 2), asserting identical rendered values, captured output, and
//! dispatch behaviour. The VM and Tier 2 run at **every** optimization level
//! (0, 1, 2), so the heterogeneous-translation specializer, the cleanup
//! passes, and the tier compiler are held to the same parity bar as the
//! baseline compiler. The VM and Tier 2 additionally run the *same*
//! bytecode, so their fuel accounting is asserted exactly equal. Every
//! sample also runs through the facade, a `CompileSession`, the server and
//! the fuzzer's legs, which must report the same run, counters included.

use genus_fuzz::pipeline;
use genus_repro::{
    compile_optimized, compile_tier, table1, CompileSession, Compiler, Engine, Limits,
    ResourceStats, RuntimeError,
};
use genus_serve::{EngineKind, Outcome, Request, ServeConfig, Server};
use std::sync::Arc;

/// Every VM optimization level the harness sweeps.
const OPT_LEVELS: [u8; 3] = [0, 1, 2];

fn sample(name: &str) -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/samples");
    std::fs::read_to_string(format!("{path}/{name}"))
        .unwrap_or_else(|e| panic!("cannot read sample `{name}`: {e}"))
}

/// Every file in `samples/`, sorted.
fn sample_names() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/samples");
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .expect("samples/ directory exists")
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".genus"))
        .collect();
    names.sort();
    names
}

/// Run one sample on a specific engine and return (outcome, output).
fn run_on(name: &str, engine: Engine, opt_level: u8) -> (Result<String, RuntimeError>, String) {
    let ex = Compiler::new()
        .with_stdlib()
        .engine(engine)
        .opt_level(opt_level)
        .source(name.to_string(), sample(name))
        .execute()
        .unwrap_or_else(|e| panic!("sample `{name}` failed to compile: {e}"));
    (ex.outcome, ex.output)
}

/// Every sample must succeed and agree byte-for-byte across engines, with
/// the VM checked at every opt level.
fn check_sample(name: &str) {
    let (ast_outcome, ast_output) = run_on(name, Engine::Ast, 0);
    assert!(
        ast_outcome.is_ok(),
        "`{name}` trapped on AST: {ast_outcome:?}"
    );
    for level in OPT_LEVELS {
        let (vm_outcome, vm_output) = run_on(name, Engine::Vm, level);
        assert_eq!(
            ast_outcome, vm_outcome,
            "`{name}` outcome diverged at opt-level {level}"
        );
        assert_eq!(
            ast_output, vm_output,
            "`{name}` output diverged at opt-level {level}"
        );
        let (jit_outcome, jit_output) = run_on(name, Engine::Jit, level);
        assert_eq!(
            vm_outcome, jit_outcome,
            "`{name}` tier-2 outcome diverged at opt-level {level}"
        );
        assert_eq!(
            vm_output, jit_output,
            "`{name}` tier-2 output diverged at opt-level {level}"
        );
        // And through the one-shot differential runner, which also compares
        // engine results internally and reports any divergence in its error.
        let r = Compiler::new()
            .with_stdlib()
            .opt_level(level)
            .source(name.to_string(), sample(name))
            .run_differential()
            .unwrap_or_else(|e| {
                panic!("differential run of `{name}` at opt-level {level} failed: {e}")
            });
        assert_eq!(
            r.output, ast_output,
            "`{name}` differential output mismatch at opt-level {level}"
        );
    }
}

#[test]
fn sample_hello() {
    let (outcome, output) = run_on("hello.genus", Engine::Vm, 2);
    assert_eq!(outcome.as_deref(), Ok("void"));
    assert_eq!(output, "hello from Genus\n");
    check_sample("hello.genus");
}

#[test]
fn sample_scheduler() {
    check_sample("scheduler.genus");
}

#[test]
fn sample_word_count() {
    check_sample("word_count.genus");
}

#[test]
fn sample_existential_registry() {
    check_sample("existential_registry.genus");
}

#[test]
fn sample_ci_word_count() {
    let (outcome, output) = run_on("ci_word_count.genus", Engine::Vm, 2);
    assert_eq!(outcome.as_deref(), Ok("void"));
    // The case-folding model collapses six spellings into three keys.
    assert_eq!(output, "exact keys: 6\nfolded keys: 3\nthe: 3\nquick: 2\n");
    check_sample("ci_word_count.genus");
}

#[test]
fn sample_class_hierarchy() {
    let (outcome, output) = run_on("class_hierarchy.genus", Engine::Vm, 2);
    assert_eq!(outcome.as_deref(), Ok("void"));
    assert_eq!(
        output,
        "generic says ...\nrex says woof\nbit says woof\ntom says meow\n\
         nib: woof, 2 tricks\nsize 12, total 39.0\npopped 6.0, then 5.5, left 10\n\
         #genus\nbadge 7\n"
    );
    check_sample("class_hierarchy.genus");
}

/// A null receiver at a call site the optimizer made direct (no override
/// below `Dog`) traps exactly like the dynamic dispatch it replaced: the
/// same `R0002` code and span on every engine and opt level.
#[test]
fn class_hierarchy_null_receiver_traps_alike() {
    let src = sample("class_hierarchy.genus").replace("void main()", "void sampleMain()")
        + "int main() {\n    Dog d = null;\n    return d.sound().length();\n}\n";
    let run = |engine: Engine, level: u8| {
        Compiler::new()
            .with_stdlib()
            .engine(engine)
            .opt_level(level)
            .source("null_recv.genus".to_string(), src.clone())
            .execute()
            .expect("compiles")
            .outcome
            .expect_err("must trap on the null receiver")
    };
    let ast_err = run(Engine::Ast, 0);
    assert_eq!(ast_err.code(), "R0002");
    for level in OPT_LEVELS {
        for engine in [Engine::Vm, Engine::Jit] {
            let err = run(engine, level);
            assert_eq!(
                (ast_err.code(), ast_err.span),
                (err.code(), err.span),
                "null-receiver trap diverges on {engine:?} at opt-level {level}"
            );
        }
    }
}

#[test]
fn sample_comparator_sort() {
    let (outcome, output) = run_on("comparator_sort.genus", Engine::Vm, 2);
    assert_eq!(outcome.as_deref(), Ok("void"));
    assert_eq!(
        output,
        "natural: generics lightweight models site use \n\
         reverse: use site models lightweight generics \n\
         by-len:  use site models generics lightweight \n"
    );
    check_sample("comparator_sort.genus");
}

#[test]
fn sample_gc_churn() {
    let (outcome, output) = run_on("gc_churn.genus", Engine::Vm, 2);
    assert_eq!(outcome.as_deref(), Ok("1999000"));
    assert_eq!(output, "churned\n");
    check_sample("gc_churn.genus");
}

/// The heap acceptance case: the churn sample allocates megabytes while
/// keeping only a checksum live, so every engine must (a) report the
/// **same exact allocated-byte count** — byte accounting is charged at
/// source allocation sites, independent of GC timing — (b) actually
/// collect (collections > 0: the anti-vacuity guard), and (c) finish
/// with a small live set (the garbage really was reclaimed).
#[test]
fn gc_churn_collects_and_byte_accounting_agrees() {
    let mut mem_used: Vec<u64> = Vec::new();
    for (engine, level) in [
        (Engine::Ast, 0),
        (Engine::Vm, 0),
        (Engine::Vm, 2),
        (Engine::Jit, 2),
    ] {
        let ex = Compiler::new()
            .with_stdlib()
            .engine(engine)
            .opt_level(level)
            .source("gc_churn.genus".to_string(), sample("gc_churn.genus"))
            .execute()
            .expect("compiles");
        assert!(ex.outcome.is_ok(), "{engine:?}/O{level}: {:?}", ex.outcome);
        let rs = ex.resource_stats;
        assert!(rs.collections > 0, "{engine:?}/O{level} never collected");
        assert!(
            rs.mem_used > 1_000_000,
            "{engine:?}/O{level} under-accounted: {rs:?}"
        );
        assert!(
            rs.live_bytes < rs.mem_used / 10,
            "{engine:?}/O{level} live set did not shrink: {rs:?}"
        );
        assert!(
            rs.peak_bytes >= rs.live_bytes,
            "{engine:?}/O{level}: {rs:?}"
        );
        mem_used.push(rs.mem_used);
    }
    assert!(
        mem_used.windows(2).all(|w| w[0] == w[1]),
        "allocated-byte accounting diverged across engines: {mem_used:?}"
    );
}

/// R0010 identity under a byte cap: the same churn program trapped under
/// the same memory limit yields the same `(code, span)` pair and the
/// same exact byte count on the AST engine, the VM at every opt level,
/// and Tier 2 — the by-construction guarantee that byte charges happen
/// at identical source allocation sites on all engines.
#[test]
fn memory_trap_parity_across_levels() {
    let run = |engine: Engine, level: u8| {
        let ex = Compiler::new()
            .with_stdlib()
            .engine(engine)
            .opt_level(level)
            .memory_limit(100_000)
            .source("gc_churn.genus".to_string(), sample("gc_churn.genus"))
            .execute()
            .expect("compiles");
        let err = ex.outcome.expect_err("must trap on the byte cap");
        (err.code().to_string(), err.span, ex.resource_stats.mem_used)
    };
    let (ast_code, ast_span, ast_mem) = run(Engine::Ast, 0);
    assert_eq!(ast_code, "R0010");
    assert!(ast_mem > 100_000, "trap fired before the cap: {ast_mem}");
    for level in OPT_LEVELS {
        for engine in [Engine::Vm, Engine::Jit] {
            let (code, span, mem) = run(engine, level);
            assert_eq!(
                (ast_code.as_str(), ast_span, ast_mem),
                (code.as_str(), span, mem),
                "memory trap identity diverges on {engine:?} at opt-level {level}"
            );
        }
    }
}

/// Runtime traps on the existential paths must carry the same stable code
/// and span under both engines and at every opt level: opening a null
/// package is the regression case (the optimizer must not perturb
/// `Op::Open`'s error identity).
#[test]
fn open_null_trap_parity_across_levels() {
    let src = r#"[some T where Comparable[T]] T pick(boolean ok) {
           if (ok) { return 42; }
           return null;
         }
         int main() {
           [U] (U x) where Comparable[U] = pick(false);
           return x.compareTo(x);
         }"#;
    let ast = Compiler::new()
        .source("open_null.genus", src)
        .execute()
        .expect("compiles");
    let ast_err = ast.outcome.expect_err("AST should trap on null open");
    for level in OPT_LEVELS {
        for engine in [Engine::Vm, Engine::Jit] {
            let vm = Compiler::new()
                .engine(engine)
                .opt_level(level)
                .source("open_null.genus", src)
                .execute()
                .expect("compiles");
            let vm_err = vm
                .outcome
                .expect_err("every engine should trap on null open");
            assert_eq!(
                ast_err.code(),
                vm_err.code(),
                "codes diverge on {engine:?} at opt-level {level}"
            );
            assert_eq!(
                ast_err.span, vm_err.span,
                "spans diverge on {engine:?} at opt-level {level}"
            );
        }
    }
}

/// Every shipped sample must terminate within the service's default fuel
/// budget on both engines at every opt level. A sample that loops forever
/// (or regresses into pathological step counts) fails here with `R0009`
/// instead of hanging the differential harness — the same guard `genus
/// batch` applies at run time.
#[test]
fn all_samples_terminate_under_default_fuel() {
    let names = sample_names();
    assert!(!names.is_empty());
    for name in &names {
        for (engine, level) in [
            (Engine::Ast, 0),
            (Engine::Vm, 0),
            (Engine::Vm, 2),
            (Engine::Jit, 2),
        ] {
            let ex = Compiler::new()
                .with_stdlib()
                .engine(engine)
                .opt_level(level)
                .fuel(genus_serve::DEFAULT_FUEL)
                .source(name.clone(), sample(name))
                .execute()
                .unwrap_or_else(|e| panic!("sample `{name}` failed to compile: {e}"));
            assert!(
                ex.outcome.is_ok(),
                "`{name}` did not terminate under the default fuel budget \
                 on {engine:?} at opt-level {level}: {:?}",
                ex.outcome
            );
            assert!(
                ex.resource_stats.fuel_used < genus_serve::DEFAULT_FUEL,
                "`{name}` fuel accounting out of range"
            );
        }
    }
}

/// One run as every run path reports it: value or trap code, printed
/// output, and the fuel, allocated-byte and collection counters.
type Observed = (Result<String, String>, String, [u64; 3]);

fn observed(
    outcome: &Result<String, RuntimeError>,
    output: &str,
    stats: &ResourceStats,
) -> Observed {
    (
        outcome.clone().map_err(|e| e.code().to_string()),
        output.to_string(),
        [stats.fuel_used, stats.mem_used, stats.collections],
    )
}

/// The facade, a compile session, the server and the fuzzer's legs each
/// run `main()` through the one run path: on every sample and engine they
/// must report the same run, counters included.
#[test]
fn run_paths_agree_on_every_sample() {
    let names = sample_names();
    let engines = [Engine::Ast, Engine::Vm, Engine::Jit];
    let server = Server::new(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    });
    let requests = names
        .iter()
        .flat_map(|name| {
            engines.iter().map(move |engine| Request {
                engine: EngineKind::from_name(engine.name()).unwrap(),
                ..Request::new(format!("{name}/{}", engine.name()), sample(name))
            })
        })
        .collect();
    let mut served = server.run_batch(requests).into_iter();
    for name in &names {
        let src = sample(name);
        let prog = pipeline::compile(&src).program.expect("sample checks");
        let code = Arc::new(compile_optimized(&prog, 2));
        let tier = compile_tier(&code);
        let mut session = CompileSession::with_stdlib();
        session.update_source(name, &src);
        for engine in engines {
            let facade = Compiler::new()
                .with_stdlib()
                .engine(engine)
                .source(name.clone(), src.clone())
                .execute()
                .unwrap();
            let want = observed(&facade.outcome, &facade.output, &facade.resource_stats);
            let ex = session.execute(engine, Limits::default()).unwrap();
            assert_eq!(
                observed(&ex.outcome, &ex.output, &ex.resource_stats),
                want,
                "`{name}`: session on {engine:?}"
            );
            let r = served.next().unwrap();
            let outcome = match r.outcome {
                Outcome::Ok(value) => Ok(value),
                Outcome::Trap { code, .. } => Err(code),
                Outcome::Error(e) => panic!("`{name}`: serve error on {engine:?}: {e}"),
            };
            assert_eq!(
                (outcome, r.output, [r.fuel_used, r.mem_used, r.collections]),
                want,
                "`{name}`: serve on {engine:?}"
            );
            let leg = match engine {
                Engine::Ast => {
                    pipeline::with_big_stack(|| pipeline::run_ast(&prog, Limits::default()))
                }
                Engine::Vm => pipeline::run_vm(&prog, &code, Limits::default(), false, None),
                Engine::Jit => pipeline::run_tier(&prog, &tier, Limits::default()),
            };
            assert_eq!(
                observed(&leg.outcome, &leg.output, &leg.stats),
                want,
                "`{name}`: fuzz leg on {engine:?}"
            );
        }
    }
    server.shutdown();
}

/// Fuel exhaustion must have the same error identity everywhere: the same
/// looping program trapped under the same budget yields the same
/// `(code, span)` pair on the AST engine and on the VM at O0 and O2.
/// (Fuel traps carry no source span — the budget, not a program point,
/// is at fault — so the spans compare equal as dummies by construction;
/// this test locks that in so neither engine starts attaching a span the
/// other lacks.)
#[test]
fn fuel_trap_parity_across_levels() {
    let src = "int main() { int i = 0; while (true) { i = i + 1; } return i; }";
    let run = |engine: Engine, level: u8| {
        Compiler::new()
            .engine(engine)
            .opt_level(level)
            .fuel(25_000)
            .source("spin.genus".to_string(), src.to_string())
            .execute()
            .expect("compiles")
            .outcome
            .expect_err("must trap on fuel")
    };
    let ast_err = run(Engine::Ast, 0);
    assert_eq!(ast_err.code(), "R0009");
    for level in OPT_LEVELS {
        for engine in [Engine::Vm, Engine::Jit] {
            let vm_err = run(engine, level);
            assert_eq!(
                (ast_err.code(), ast_err.span),
                (vm_err.code(), vm_err.span),
                "fuel trap identity diverges on {engine:?} at opt-level {level}"
            );
        }
    }
}

/// The paper's Table 1 as a correctness workload: the twelve sorts agree
/// on every engine and level, and all twelve print Rust's checksum. So
/// does each cell's own program, derived from the sample as the Table 1
/// report derives it.
#[test]
fn sample_table1_sorts() {
    let (outcome, output) = run_on("table1_sorts.genus", Engine::Vm, 2);
    assert_eq!(outcome.as_deref(), Ok("void"));
    let sums: Vec<&str> = output
        .lines()
        .map(|l| l.rsplit(' ').next().unwrap())
        .collect();
    assert_eq!(sums.len(), 12, "{output}");
    assert!(sums.iter().all(|s| *s == "532534.171875"), "{output}");
    check_sample("table1_sorts.genus");
    let want = table1::checksum(40, table1::SEED);
    for cell in table1::CELLS {
        let src = table1::cell_program(&cell, 40, table1::SEED);
        let (outcome, _) = check_levels("table1_cell.genus", &src);
        let got = outcome.map(|v| v.parse::<f64>().ok());
        assert_eq!(
            got,
            Ok(Some(want)),
            "{} {}",
            cell.kind.label(),
            cell.data.label()
        );
    }
}

/// Runs `src` on the AST engine and on the VM and Tier 2 at every opt
/// level; all must agree on the outcome (value, or trap code and message)
/// and on the output, including what was printed before a trap. Returns
/// the AST engine's outcome as a value or a trap code, and its output.
fn check_levels(name: &str, src: &str) -> (Result<String, String>, String) {
    let run = |engine: Engine, level: u8| {
        let ex = Compiler::new()
            .with_stdlib()
            .engine(engine)
            .opt_level(level)
            .source(name.to_string(), src.to_string())
            .execute()
            .unwrap_or_else(|e| panic!("`{name}` failed to compile: {e}"));
        let outcome = ex.outcome.map_err(|e| format!("{} {e}", e.code()));
        (outcome, ex.output)
    };
    let want = run(Engine::Ast, 0);
    for level in OPT_LEVELS {
        for engine in [Engine::Vm, Engine::Jit] {
            assert_eq!(
                run(engine, level),
                want,
                "`{name}` diverges on {engine:?} at opt-level {level}"
            );
        }
    }
    let (outcome, output) = want;
    (outcome.map_err(|e| e[..5].to_string()), output)
}

/// The depth sweeps below: a recursion `n` frames deep under `main`, whose
/// innermost frame makes a call the O2 inliner splices. Sweeping `n`
/// across the default depth limit puts that call exactly at the limit for
/// one `n`. Returns the outcome for each `n` in the sweep.
fn depth_sweep(name: &str, body: &str, arg: &str) -> Vec<Result<String, String>> {
    (994..=1000)
        .map(|n| {
            let src = format!(
                "class Box {{ int v; Box(int v) {{ this.v = v; }} int get() {{ return v; }} }}
                 int at(Box b) {{ return b.get(); }}
                 int one() {{ return 1; }}
                 int two() {{ return one() + 1; }}
                 int three() {{ return one() + two(); }}
                 int dive(Box b, int n) {{
                   if (n % 250 == 0) {{ println(\"depth \" + n); }}
                   if (n == 0) {{ return {body}; }}
                   return dive(b, n - 1);
                 }}
                 int main() {{ println(\"start\"); return dive({arg}, {n}); }}"
            );
            check_levels(name, &src).0
        })
        .collect()
}

/// A null receiver at a spliced call that also sits at the depth limit:
/// as on the framed path, the null check runs before the depth check, so
/// `NullPointer` wins until the recursion itself overflows.
#[test]
fn inlined_null_receiver_at_depth_limit_traps_null_first() {
    let outcomes = depth_sweep("inline_null_depth.genus", "b.get()", "null");
    assert!(outcomes.contains(&Err("R0002".to_string())), "{outcomes:?}");
    assert!(outcomes.contains(&Err("R0007".to_string())), "{outcomes:?}");
}

/// A recursion that reaches `max_depth` exactly at a spliced call, one,
/// two and three inlined levels deep (`at` calls `get`; `three` calls
/// `one`, whose check covers its own, then `two`, which calls `one` a
/// level deeper): `StackOverflow` fires at the same call on every engine
/// and level.
#[test]
fn inlined_call_at_depth_limit_overflows_alike() {
    for (body, value) in [("b.get()", "7"), ("at(b)", "7"), ("three()", "3")] {
        let outcomes = depth_sweep("inline_depth.genus", body, "new Box(7)");
        assert!(outcomes.contains(&Ok(value.to_string())), "{outcomes:?}");
        assert!(outcomes.contains(&Err("R0007".to_string())), "{outcomes:?}");
    }
}

/// Leaves of every shape the inliner splices, each called from a loop
/// and checked against the framed and dynamic paths.
#[test]
fn inlined_leaf_shapes_agree() {
    // A void leaf, including a void result the caller reads.
    let (outcome, output) = check_levels(
        "inline_void.genus",
        "class Counter { int n; Counter() { n = 0; } void bump() { n = n + 1; } }
         int main() {
           Counter c = new Counter();
           for (int i = 0; i < 5; i = i + 1) { c.bump(); }
           println(c.bump());
           String s = \"got \" + c.bump();
           println(s);
           return c.n;
         }",
    );
    assert_eq!(
        (outcome, output.as_str()),
        (Ok("7".into()), "void\ngot void\n")
    );
    // A branchy leaf with several returns.
    let (outcome, _) = check_levels(
        "inline_branchy.genus",
        "int sign(int x) { if (x < 0) { return -1; } if (x > 0) { return 1; } return 0; }
         int main() {
           int s = 0;
           for (int i = -3; i < 4; i = i + 1) { s = s * 3 + sign(i) + 1; }
           return s;
         }",
    );
    assert_eq!(outcome, Ok("53".into()));
    // Repeated calls on one receiver: only the first one checks it,
    // unless the receiver register is written in between.
    let (outcome, output) = check_levels(
        "inline_same_receiver.genus",
        "class Cell { int v; Cell(int v) { this.v = v; } int get() { return v; } }
         int twice(Cell c) { return c.get() + c.get(); }
         int swap(Cell c, Cell d) { int a = c.get(); c = d; return a + c.get(); }
         int main() {
           Cell x = new Cell(4);
           println(twice(x));
           println(swap(x, new Cell(5)));
           return swap(x, null);
         }",
    );
    assert_eq!((outcome, output.as_str()), (Err("R0002".into()), "8\n9\n"));
    // A `return` that is also a branch target: the instruction before it
    // runs on one path only, so it cannot produce the result alone.
    let (outcome, _) = check_levels(
        "inline_join_return.genus",
        "int pos(int x) { int r = 0; if (x > 0) { r = x * 2; } return r; }
         int main() {
           int s = 0;
           for (int i = -2; i < 3; i = i + 1) { s = s * 10 + pos(i) + 1; }
           return s;
         }",
    );
    assert_eq!(outcome, Ok("11135".into()));
    // A leaf that writes its own parameter: the caller's local survives.
    let (outcome, output) = check_levels(
        "inline_param_write.genus",
        "int bump(int x) { x = x + 1; return x * 2; }
         int main() {
           int a = 5;
           int b = bump(a);
           println(a + \" \" + b);
           return bump(a + 1) + a;
         }",
    );
    assert_eq!((outcome, output.as_str()), (Ok("19".into()), "5 12\n"));
    // `x = f(x)`: the call's destination is also its argument.
    let (outcome, _) = check_levels(
        "inline_dst_alias.genus",
        "int step(int v) { if (v > 10) { return v - 10; } return v * 2 + 1; }
         int mix(int v) { int w = v * 3; return w - v; }
         int main() {
           int x = 1;
           for (int i = 0; i < 6; i = i + 1) { x = step(x); x = mix(x); }
           return x;
         }",
    );
    assert_eq!(outcome, Ok("116".into()));
    // Locals that copy each other: cleanup must not treat the spliced
    // locals as dying temporaries.
    let (outcome, _) = check_levels(
        "inline_local_copies.genus",
        "int sq(int x) { int y = x; return x * y; }
         int chain(int x) { int y = x; int z = y; return z * y + x; }
         int main() {
           int s = 0;
           for (int i = 1; i < 4; i = i + 1) { s = s + sq(i) + chain(i + 1); }
           return s;
         }",
    );
    assert_eq!(outcome, Ok("52".into()));
}

/// A spliced call whose receiver is an existential package: the
/// `Op::Inline` prologue unpacks it like the framed call's frame set-up.
#[test]
fn inlined_call_on_existential_receiver_unpacks() {
    let (outcome, output) = check_levels(
        "inline_packed_recv.genus",
        "constraint Peek[T] { T T.self(); }
         model ObjPeek for Peek[Object] { Object self() { return this; } }
         T peek[T](T x) where Peek[T] { return x.self(); }
         int main() {
           ArrayList[int] base = new ArrayList[int]();
           base.add(3);
           List[?] l = base;
           Object o = l;
           Object back = peek[Object with ObjPeek](o);
           println(back == base);
           println(back instanceof ArrayList[?]);
           ArrayList[int] again = (ArrayList[int]) o;
           return again.size() + again.get(0);
         }",
    );
    assert_eq!((outcome, output.as_str()), (Ok("4".into()), "true\ntrue\n"));
}

/// No sample file is left out of the harness: if someone adds a new sample,
/// this test forces them to add a differential case for it above.
#[test]
fn all_samples_are_covered() {
    assert_eq!(
        sample_names(),
        [
            "ci_word_count.genus",
            "class_hierarchy.genus",
            "comparator_sort.genus",
            "existential_registry.genus",
            "gc_churn.genus",
            "hello.genus",
            "scheduler.genus",
            "table1_sorts.genus",
            "word_count.genus"
        ],
        "new sample added: cover it in tests/differential.rs"
    );
}
