//! Integration tests for static diagnostics: the errors the paper's type
//! system is designed to catch.
//!
//! Assertions are **code-based**: each rejected program must report the
//! expected stable diagnostic code (`E0xxx` / `R0xxx`), not a particular
//! message wording. Messages may be reworded freely; codes are the contract.

// Every program in this suite runs on BOTH engines (AST interpreter and
// bytecode VM) with a divergence check — the differential harness.
use genus_repro::{
    run_differential_simple as run_simple, run_differential_with_stdlib as run_with_stdlib,
    Compiler, Engine,
};

/// Type-checks `src` (with the stdlib iff `stdlib`), asserts it is
/// rejected, and returns the stable codes of all reported errors.
fn reject_codes(src: &str, stdlib: bool) -> Vec<&'static str> {
    let mut c = Compiler::new().source("test.genus", src);
    if stdlib {
        c = c.with_stdlib();
    }
    let report = c.check_report();
    assert!(report.has_errors(), "program should be rejected:\n{src}");
    report.error_codes()
}

/// Asserts `src` is rejected with `code` among its compile errors — and
/// that the differential runner agrees the program does not run.
fn assert_rejected(src: &str, stdlib: bool, code: &str) {
    let codes = reject_codes(src, stdlib);
    assert!(codes.contains(&code), "expected {code}, got {codes:?}");
    let r = if stdlib {
        run_with_stdlib(src)
    } else {
        run_simple(src)
    };
    assert!(
        r.is_err(),
        "differential runner accepted a rejected program"
    );
}

/// Runs `src` to a runtime trap on **both** engines, asserts they agree on
/// the structured error (stable code + span), and returns the code.
fn trap_code(src: &str, stdlib: bool) -> &'static str {
    let compiler = |engine| {
        let mut c = Compiler::new().engine(engine).source("test.genus", src);
        if stdlib {
            c = c.with_stdlib();
        }
        c
    };
    let ast = compiler(Engine::Ast).execute().expect("compiles").outcome;
    let vm = compiler(Engine::Vm).execute().expect("compiles").outcome;
    let ast = ast.expect_err("AST engine should trap");
    let vm = vm.expect_err("VM engine should trap");
    assert_eq!(ast.code(), vm.code(), "engines disagree on the trap code");
    assert_eq!(ast.span, vm.span, "engines disagree on the trap span");
    ast.code()
}

// ---------------------------------------------------------------------
// §4.4 — default model resolution rules
// ---------------------------------------------------------------------

#[test]
fn ambiguous_enabled_models_require_with() {
    // The natural model for Comparable[int] and a use-enabled model are
    // both enabled: rule 2 says the programmer must disambiguate.
    assert_rejected(
        "model RevIntCmp for Comparable[int] {
           boolean equals(int that) { return this == that; }
           int compareTo(int that) { return 0 - this.compareTo(that); }
         }
         use RevIntCmp;
         void main() {
           TreeSet[int] s = new TreeSet[int]();
         }",
        true,
        "E0401",
    );
}

#[test]
fn missing_model_is_an_error() {
    assert_rejected(
        "class NoCompare { NoCompare() { } }
         void main() {
           TreeSet[NoCompare] s = new TreeSet[NoCompare]();
         }",
        true,
        "E0402",
    );
}

#[test]
fn with_clause_must_witness_the_constraint() {
    assert_rejected(
        r#"model CIEq for Eq[String] {
             boolean equals(String str) { return equalsIgnoreCase(str); }
           }
           void main() {
             // CIEq witnesses Eq[String], not Comparable[String].
             TreeSet[String with CIEq] s = new TreeSet[String with CIEq]();
           }"#,
        true,
        "E0404",
    );
}

// ---------------------------------------------------------------------
// §4.7 / §9 — termination restriction on use declarations
// ---------------------------------------------------------------------

#[test]
fn use_dualgraph_is_rejected() {
    // The paper's canonical example: `use DualGraph;` cycles.
    assert_rejected("use DualGraph;\nvoid main() { }", true, "E0701");
}

#[test]
fn use_with_smaller_subgoals_is_accepted() {
    let r = run_with_stdlib(
        r#"class Pt {
             int x;
             Pt(int x) { this.x = x; }
             Pt clone() { return new Pt(x); }
           }
           model ALDC[E] for Cloneable[ArrayList[E]] where Cloneable[E] {
             ArrayList[E] clone() {
               ArrayList[E] l = new ArrayList[E]();
               for (E e : this) { l.add(e.clone()); }
               return l;
             }
           }
           use ALDC;
           void main() { }"#,
    );
    assert!(r.is_ok(), "{r:?}");
}

// ---------------------------------------------------------------------
// §5.1 — multimethod ambiguity (load-time unique-best check)
// ---------------------------------------------------------------------

#[test]
fn ambiguous_multimethods_rejected() {
    assert_rejected(
        "constraint Comb[T] { T T.comb(T that); }
         model BadComb for Comb[Shape] {
           Shape Shape.comb(Shape s) { return s; }
           Shape Rectangle.comb(Shape s) { return s; }
           Shape Shape.comb(Rectangle r) { return r; }
         }
         void main() { }",
        true,
        "E0602",
    );
}

#[test]
fn glb_definition_resolves_multimethod_ambiguity() {
    let r = run_with_stdlib(
        "constraint Comb[T] { T T.comb(T that); }
         model OkComb for Comb[Shape] {
           Shape Shape.comb(Shape s) { return s; }
           Shape Rectangle.comb(Shape s) { return s; }
           Shape Shape.comb(Rectangle r) { return r; }
           Shape Rectangle.comb(Rectangle r) { return r; }
         }
         void main() { }",
    );
    assert!(r.is_ok(), "{r:?}");
}

#[test]
fn model_must_cover_constraint_ops() {
    assert_rejected(
        "constraint Weird[T] { T T.definitelyNotProvided(T that); }
         model Nope for Weird[Shape] { }
         void main() { }",
        true,
        "E0601",
    );
}

// ---------------------------------------------------------------------
// Structural errors
// ---------------------------------------------------------------------

#[test]
fn prerequisite_cycles_rejected() {
    assert_rejected(
        "constraint A[T] extends B[T] { }
         constraint B[T] extends A[T] { }
         void main() { }",
        false,
        "E0215",
    );
}

#[test]
fn duplicate_declarations_rejected() {
    assert_rejected(
        "class C { C() { } }\nclass C { C() { } }\nvoid main() { }",
        false,
        "E0201",
    );
}

#[test]
fn interface_instantiation_rejected() {
    assert_rejected(
        "void main() { Map[int, int] m = new Map[int, int](); }",
        true,
        "E0510",
    );
}

#[test]
fn wrong_type_arg_arity() {
    assert_rejected(
        "void main() { ArrayList[int, int] l = null; }",
        true,
        "E0208",
    );
}

/// A wrong-arity class type is an error, not a malformed term: redeclaring
/// a generic stdlib class and instantiating it without arguments used to
/// panic in the checker.
#[test]
fn wrong_type_arg_arity_in_new_does_not_panic() {
    assert_rejected(
        "class Stack { Stack() { } }\nvoid main() { Stack s = new Stack(); }",
        true,
        "E0208",
    );
}

#[test]
fn supertypes_must_have_the_right_kind() {
    for src in [
        "class A { A() { } }\nclass B implements A { B() { } }\nvoid main() { }",
        "interface I { }\nclass B extends I { B() { } }\nvoid main() { }",
        "class A { A() { } }\ninterface I extends A { }\nvoid main() { }",
    ] {
        assert_rejected(src, false, "E0305");
    }
}

#[test]
fn constraint_arity_checked() {
    assert_rejected(
        "void f[T]() where Eq[T, T] { }\nvoid main() { }",
        false,
        "E0209",
    );
}

#[test]
fn receiver_must_be_constraint_param() {
    assert_rejected(
        "constraint Bad[V, E] { V X.source(); }
         void main() { }",
        false,
        "E0214",
    );
}

#[test]
fn overloads_must_differ_in_arity() {
    assert_rejected(
        "class C {
           C() { }
           void m(int x) { }
           void m(String s) { }
         }
         void main() { }",
        false,
        "E0216",
    );
}

#[test]
fn unknown_constraint_in_where() {
    assert_rejected(
        "void f[T]() where Sortable[T] { }\nvoid main() { }",
        false,
        "E0205",
    );
}

#[test]
fn enrich_unknown_model() {
    assert_rejected("enrich Ghost { }\nvoid main() { }", false, "E0207");
}

#[test]
fn break_outside_loop() {
    assert_rejected("void main() { break; }", false, "E0507");
}

#[test]
fn return_type_checked() {
    assert_rejected("int main() { return \"zzz\"; }", false, "E0501");
}

#[test]
fn instanceof_on_primitive_rejected() {
    assert_rejected(
        "void main() { int x = 3; boolean b = x instanceof String; }",
        true,
        "E0513",
    );
}

#[test]
fn unreachable_statement_warns_but_runs() {
    let c = Compiler::new().source("test.genus", "int main() { return 1; int x = 2; }");
    let report = c.check_report();
    assert!(!report.has_errors(), "warnings must not reject the program");
    let warns: Vec<_> = report.warnings().collect();
    assert_eq!(warns.len(), 1, "{warns:?}");
    assert_eq!(warns[0].code, "W0001");
    let r = run_simple("int main() { return 1; int x = 2; }").unwrap();
    assert_eq!(r.rendered_value, "1");
}

// ---------------------------------------------------------------------
// Runtime errors carry stable R-codes shared by both engines, mapped
// onto the Java exception taxonomy (§8.1's CCE metric)
// ---------------------------------------------------------------------

#[test]
fn runtime_cce_code() {
    let code = trap_code(
        "void main() {
           Object o = new Rectangle();
           Triangle t = (Triangle) o;
         }",
        true,
    );
    assert_eq!(code, "R0001");
    // The rendered message keeps the Java exception name.
    let e = run_with_stdlib(
        "void main() {
           Object o = new Rectangle();
           Triangle t = (Triangle) o;
         }",
    )
    .unwrap_err();
    assert!(e.contains("error[R0001]"), "{e}");
    assert!(e.contains("ClassCastException"), "{e}");
}

#[test]
fn index_out_of_bounds() {
    assert_eq!(
        trap_code("int main() { int[] a = new int[2]; return a[5]; }", false),
        "R0003"
    );
}

#[test]
fn division_by_zero() {
    assert_eq!(
        trap_code("int main() { int z = 0; return 3 / z; }", false),
        "R0004"
    );
}

#[test]
fn null_dereference() {
    assert_eq!(
        trap_code(
            "int main() { ArrayList[int] l = null; return l.size(); }",
            true
        ),
        "R0002"
    );
}

#[test]
fn stack_overflow_guard() {
    assert_eq!(
        trap_code(
            "int f(int x) { return f(x + 1); }\nint main() { return f(0); }",
            false
        ),
        "R0007"
    );
}

/// `main` nesting one construct `n` levels deep.
fn nested_program(kind: &str, n: usize) -> String {
    let wrap = |open: &str, inner: &str, close: &str| {
        format!("{}{inner}{}", open.repeat(n), close.repeat(n))
    };
    match kind {
        "parens" => format!("int main() {{ return {}; }}", wrap("(", "1", ")")),
        "negation" => format!("int main() {{ return {}1; }}", "- ".repeat(n)),
        "chain" => format!("int main() {{ return 1{}; }}", "+1".repeat(n)),
        "calls" => format!(
            "class C {{ C() {{ }} C m() {{ return this; }} int v() {{ return 3; }} }}\n\
             int main() {{ return new C(){}.v(); }}",
            ".m()".repeat(n)
        ),
        "blocks" => format!(
            "int main() {{ int x = 2; {} return x; }}",
            wrap("{", "x = x + 1;", "}")
        ),
        "ifs" => format!(
            "int main() {{ {}return 4; return 5; }}",
            "if (true) ".repeat(n)
        ),
        "type_args" => format!(
            "class B[T] {{ B() {{ }} }}\nclass C {{ C() {{ }} }}\n\
             int main() {{ {} b = null; return 6; }}",
            wrap("B[", "C", "]")
        ),
        _ => unreachable!("{kind}"),
    }
}

/// Whether the parser rejects `src` for its nesting.
fn too_deep(src: &str) -> bool {
    let report = Compiler::new().source("deep.genus", src).check_report();
    report.error_codes().contains(&"E0102")
}

#[test]
fn programs_just_under_the_nesting_limit_run_alike_on_every_engine() {
    // Checking and lowering recurse over the tree; a debug build needs more
    // than a test thread's stack for a program at the limit.
    std::thread::Builder::new()
        .stack_size(genus_repro::INTERP_STACK_SIZE)
        .spawn(|| {
            for kind in [
                "parens",
                "negation",
                "chain",
                "calls",
                "blocks",
                "ifs",
                "type_args",
            ] {
                // The deepest nesting the parser accepts.
                let (mut ok, mut bad) = (1, 1024);
                assert!(too_deep(&nested_program(kind, bad)), "{kind}");
                while bad - ok > 1 {
                    let mid = (ok + bad) / 2;
                    if too_deep(&nested_program(kind, mid)) {
                        bad = mid;
                    } else {
                        ok = mid;
                    }
                }
                assert!(ok > 200, "{kind}: the limit cuts in at {ok}");
                let src = nested_program(kind, ok);
                let r = Compiler::new()
                    .source("deep.genus", &src)
                    .run_differential();
                assert!(r.is_ok(), "{kind} at {ok}: {r:?}");
                assert_eq!(reject_codes(&nested_program(kind, bad), false), ["E0102"]);
            }
        })
        .unwrap()
        .join()
        .unwrap();
}
