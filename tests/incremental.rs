//! Integration tests for incremental compile sessions at the facade
//! level: dependency-directed invalidation across `import` modules,
//! verdict-LRU eviction accounting, and parity between warm re-checks
//! and from-scratch one-shot checks.

use genus_repro::{CompileSession, Engine, Limits, Severity};
use genus_vm::exec::{execute, CompiledCode};

/// Four closed modules in two independent import pairs:
/// `base <-> dep` and `sib <-> sib2`. Mutual imports keep every unit
/// closed (a unit with no imports is open, and open units are visible
/// everywhere, which would defeat dependency-directed invalidation).
const BASE: &str = "import dep;\nclass Base { Base() { } int id() { return 1; } }\n";
const DEP: &str =
    "import base;\nclass Dep { Dep() { } int callBase() { return new Base().id(); } }\n";
const SIB: &str = "import sib2;\nclass Sib { Sib() { } int s() { return new Sib2().t(); } }\n";
const SIB2: &str = "import sib;\nclass Sib2 { Sib2() { } int t() { return 2; } }\n";

fn module_session() -> CompileSession {
    let mut s = CompileSession::new();
    s.update_source("base.genus", BASE);
    s.update_source("dep.genus", DEP);
    s.update_source("sib.genus", SIB);
    s.update_source("sib2.genus", SIB2);
    s
}

#[test]
fn interface_edit_invalidates_dependents_not_siblings() {
    let mut s = module_session();
    assert!(!s.check().has_errors());
    let before = s.stats();
    // Interface edit: `int id()` becomes `long id()`. `dep` must be
    // re-checked (its import's interface changed — and now mis-types);
    // the sibling pair's verdicts survive the prefix rebuild via the
    // verdict LRU.
    s.update_source(
        "base.genus",
        "import dep;\nclass Base { Base() { } long id() { return 1; } }\n",
    );
    let report = s.check();
    assert!(report.has_errors(), "long -> int narrowing in dep");
    let after = s.stats();
    assert_eq!(
        after.units_rechecked - before.units_rechecked,
        2,
        "exactly base + dep re-check: {after:?}"
    );
    assert!(
        after.units_restored - before.units_restored >= 3,
        "prelude + sib + sib2 restored from the LRU: {after:?}"
    );
}

#[test]
fn body_edit_keeps_the_semantic_prefix() {
    let mut s = module_session();
    assert!(!s.check().has_errors());
    let before = s.stats();
    // Body-only edit: same interface fingerprint, so the collect/wf
    // prefix is patched in place and only `base` itself re-checks.
    s.update_source(
        "base.genus",
        "import dep;\nclass Base { Base() { } int id() { return 2; } }\n",
    );
    assert!(!s.check().has_errors());
    let after = s.stats();
    assert_eq!(after.prefix_rebuilt, before.prefix_rebuilt, "prefix reused");
    assert_eq!(after.units_patched - before.units_patched, 1);
    assert_eq!(after.units_rechecked - before.units_rechecked, 1);
    assert_eq!(after.units_reused - before.units_reused, 4, "{after:?}");
}

#[test]
fn verdict_lru_eviction_is_counted_and_harmless() {
    let mut s = CompileSession::new();
    // Cycle through more distinct programs than the verdict LRU holds.
    // Every check stays correct; the eviction counter records the cap.
    for i in 0..140u32 {
        s.update_source("main.genus", &format!("int main() {{ return {i}; }}"));
        assert!(!s.check().has_errors(), "iteration {i}");
    }
    let stats = s.stats();
    assert!(
        stats.verdict_evictions > 0,
        "cycling 140 programs must evict: {stats:?}"
    );
    // A fresh-looking old version is simply re-checked, not corrupted.
    s.update_source("main.genus", "int main() { return 0; }");
    let mut runner = s;
    let r = runner.run(Engine::Vm, Limits::default()).unwrap();
    assert_eq!(r.rendered_value, "0");
}

#[test]
fn warm_recheck_diagnostics_match_one_shot() {
    // A program with both a warning and (after the edit) an error.
    let v1 = "int main() { int unused = 1; return 3; }";
    let v2 = "int main() { int unused = 1; return nope; }";
    let mut s = CompileSession::with_stdlib();
    s.update_source("main.genus", v1);
    s.check();
    s.update_source("main.genus", v2);
    let warm = s.check();
    // From scratch: the unshared full build, not a cold session (which
    // would extend the same shared base the warm session does).
    let report = genus_check::check_unshared(true, &[("main.genus", v2)]);
    assert_eq!(
        warm.diags, report.diags,
        "warm == from-scratch, byte for byte"
    );
}

/// A one-token edit to the user unit of a stdlib program, which the
/// session has not seen before, re-checks that unit alone: the prelude's
/// and the stdlib's five verdicts are reused. The same edits are timed
/// against a cold check in `tests/timing_claims.rs`.
#[test]
fn one_token_edit_rechecks_only_the_edited_unit() {
    let registry = include_str!("../samples/existential_registry.genus");
    let trivial = |n: u32| format!("int main() {{ return {n}; }}");
    let marked = |n: u32| registry.replacen("return", &format!("return /*w{n}*/"), 1);
    for variant in [&trivial as &dyn Fn(u32) -> String, &marked] {
        let mut s = CompileSession::with_stdlib();
        s.update_source("main.genus", &variant(0));
        assert!(!s.check().has_errors());
        for n in 1..=3 {
            let before = s.stats();
            s.update_source("main.genus", &variant(n));
            assert!(!s.check().has_errors());
            let after = s.stats();
            assert_eq!(
                (
                    after.units_not_rechecked() - before.units_not_rechecked(),
                    after.units_rechecked - before.units_rechecked
                ),
                (5, 1),
                "{after:?}"
            );
        }
    }
}

#[test]
fn import_errors_have_stable_codes_at_the_facade() {
    let mut s = CompileSession::new();
    s.update_source("main.genus", "import nowhere;\nint main() { return 1; }");
    let r = s.check();
    assert_eq!(r.diags.len(), 1, "{:?}", r.diags);
    assert_eq!(r.diags[0].code, "E0801");
    // Referencing a module that exists but was not imported is E0802.
    s.update_source("util.genus", "import main;\nclass Util { Util() { } }");
    s.update_source(
        "main.genus",
        "import util;\nint main() { Util u = new Util(); return 1; }",
    );
    let r = s.check();
    assert!(!r.has_errors(), "{:?}", r.diags);
    s.update_source("extra.genus", "import main;\nclass Extra { Extra() { } }");
    s.update_source(
        "main.genus",
        "import util;\nint main() { Extra e = new Extra(); return 1; }",
    );
    let r = s.check();
    assert!(
        r.diags.iter().any(|d| d.code == "E0802"),
        "unimported reference: {:?}",
        r.diags
    );
}

/// A stdlib project: `geom` declares the signature the edits change (the
/// return type of `Pt.norm`, which leaves the global environment as it
/// is), `order` and `main` import it, and `order` declares a constraint
/// and a model for it (which number type variables ahead of the
/// stdlib's in a full build).
fn geom(norm: &str) -> String {
    format!(
        "class Pt {{ int x; int y; Pt(int x, int y) {{ this.x = x; this.y = y; }}\n\
             {norm} norm() {{ return x * x + y * y; }} }}\n"
    )
}

const ORDER: &str = "import geom;\n\
    constraint Ranked[T] { int T.rank(); }\n\
    model PtRank for Ranked[Pt] { int rank() { return this.x * 3 + this.y; } }\n\
    int maxRank[T](ArrayList[T] l) where Ranked[T] {\n\
        int best = -1;\n\
        for (int i = 0; i < l.size(); i = i + 1) { int r = l.get(i).rank(); if (r > best) { best = r; } }\n\
        return best;\n\
    }\n";

const MAIN: &str = "import geom;\nimport order;\n\
    int main() {\n\
        ArrayList[Pt] l = new ArrayList[Pt]();\n\
        for (int i = 0; i < 9; i = i + 1) { l.add(new Pt(i, 9 - i)); }\n\
        println(maxRank[Pt with PtRank](l));\n\
        return l.size();\n\
    }\n";

/// A checked stdlib session over the project.
fn stdlib_project() -> CompileSession {
    let mut s = CompileSession::with_stdlib();
    s.update_source("geom.genus", &geom("int"));
    s.update_source("order.genus", ORDER);
    s.update_source("main.genus", MAIN);
    assert!(!s.check().has_errors());
    s
}

/// Asserts the session's last check and a VM run of its program agree
/// with the unshared full build of the same sources, which checks the
/// prelude and stdlib from scratch instead of extending the shared base.
fn assert_matches_cold(s: &mut CompileSession, sources: &[(&str, &str)]) {
    let cold = genus_check::check_unshared(true, sources);
    assert_eq!(s.last_diags(), cold.diags.as_slice());
    let cold_run = cold.into_program().and_then(|prog| {
        let code = CompiledCode::new(2);
        execute(&prog, code.code(&prog, Engine::Vm).0, Limits::default()).finish()
    });
    assert_eq!(s.run(Engine::Vm, Limits::default()), cold_run);
}

#[test]
fn signature_edit_extends_the_stdlib_snapshot() {
    let mut s = stdlib_project();
    // The cold check extends the shared checked prelude and stdlib, and
    // installs their verdicts instead of re-checking them.
    let cold = s.stats();
    assert_eq!(
        (
            cold.prefix_extended,
            cold.units_reused,
            cold.units_rechecked
        ),
        (1, 5, 3)
    );
    // Each signature edit of `geom` rebuilds the prefix by extending the
    // shared base again, so the base verdicts are restored, never
    // re-checked.
    for (k, norm) in ["long", "double", "long"].into_iter().enumerate() {
        let before = s.stats();
        let src = geom(norm);
        s.update_source("geom.genus", &src);
        assert!(!s.check().has_errors());
        let after = s.stats();
        assert_eq!(after.prefix_rebuilt - before.prefix_rebuilt, 1);
        assert_eq!(after.prefix_extended - before.prefix_extended, 1);
        let rechecked = after.units_rechecked - before.units_rechecked;
        let restored = after.units_restored - before.units_restored;
        match k {
            // geom and the two units that import it re-check; the prelude
            // and the four stdlib units are restored, not re-checked.
            0 | 1 => assert_eq!((rechecked, restored), (3, 5), "{after:?}"),
            // Reverting to the first edit's text restores every unit.
            _ => assert_eq!((rechecked, restored), (0, 8), "{after:?}"),
        }
        assert_matches_cold(
            &mut s,
            &[
                ("geom.genus", &src),
                ("order.genus", ORDER),
                ("main.genus", MAIN),
            ],
        );
    }
}

/// A unit the reuse rule lets extend the base: its own constraint, class
/// and model.
const LOCAL: &str = "constraint Rank[T] { int rank(); }\n\
    class K { K() { } }\n\
    class K2 extends K { K2() { } }\n\
    model KR for Rank[K] { int rank() { return 1; } }\n";

/// A unit with a `use`, an `enrich` or an overload of a stdlib global
/// could change what the base declares, so the session stamps no base on
/// its program: lowering it copies nothing from the lowered-base cache,
/// and the program is still exactly the cold one. The next clean edit is
/// stamped again.
#[test]
fn full_rebuild_programs_lower_without_the_base_cache() {
    let mut s = stdlib_project();
    for shape in [
        "constraint Rank[T] { int rank(); }\nclass K { K() { } }\n\
         model KR for Rank[K] { int rank() { return 1; } }\nuse KR;\n",
        "constraint Rank[T] { int rank(); }\nclass K { K() { } }\nclass K2 extends K { K2() { } }\n\
         model KR for Rank[K] { int rank() { return 1; } }\nenrich KR { int K2.rank() { return 2; } }\n",
        "int sortList(int x) { return x; }\n",
    ] {
        s.update_source("extra.genus", shape);
        let reused = s.lowerings_reused();
        let geom = geom("int");
        let sources = [
            ("geom.genus", geom.as_str()),
            ("order.genus", ORDER),
            ("main.genus", MAIN),
            ("extra.genus", shape),
        ];
        assert_matches_cold(&mut s, &sources);
        assert_eq!(s.lowerings_reused(), reused, "{shape}");
        let prog = s.program().expect("checks");
        assert_eq!(prog.base, None, "{shape}");
        let code = genus_repro::compile_program(prog);
        assert_eq!(code.funcs_reused, 0, "{shape}");
        let cold = genus_repro::compile_program_uncached(prog);
        let bytes = |code: &genus_repro::VmProgram| {
            let mut w = genus_common::bytes::ByteWriter::new();
            genus_vm::write_program(&mut w, code);
            w.into_bytes()
        };
        assert_eq!(bytes(&code), bytes(&cold), "{shape}");
        s.update_source("extra.genus", LOCAL);
        assert!(!s.check().has_errors());
        assert!(s.program().expect("checks").base.is_some(), "after {shape}");
    }
}

#[test]
fn units_that_could_change_the_base_take_the_full_rebuild() {
    let mut s = stdlib_project();
    let sources = |extra: &'static str| {
        [
            ("geom.genus", geom("int")),
            ("order.genus", ORDER.to_string()),
            ("main.genus", MAIN.to_string()),
            ("extra.genus", extra.to_string()),
        ]
    };
    let edit = |s: &mut CompileSession, extra: &'static str| {
        let before = s.stats();
        s.update_source("extra.genus", extra);
        s.check();
        let after = s.stats();
        let owned = sources(extra);
        let pairs: Vec<(&str, &str)> = owned.iter().map(|(n, t)| (*n, t.as_str())).collect();
        assert_matches_cold(s, &pairs);
        assert_eq!(after.prefix_rebuilt - before.prefix_rebuilt, 1, "{extra}");
        after.prefix_extended - before.prefix_extended
    };
    assert_eq!(edit(&mut s, LOCAL), 1, "a local unit extends the base");
    // (shape, whether a full check accepts it)
    for (shape, clean) in [
        // A `use`.
        (
            "constraint Rank[T] { int rank(); }\nclass K { K() { } }\n\
             model KR for Rank[K] { int rank() { return 1; } }\nuse KR;\n",
            true,
        ),
        // An `enrich`.
        (
            "constraint Rank[T] { int rank(); }\nclass K { K() { } }\nclass K2 extends K { K2() { } }\n\
             model KR for Rank[K] { int rank() { return 1; } }\nenrich KR { int K2.rank() { return 2; } }\n",
            true,
        ),
        // A model whose constraint reaches a prelude one.
        (
            "class K { int v; K(int v) { this.v = v; } }\n\
             model KCmp for Comparable[K] { boolean equals(K that) { return v == that.v; } int compareTo(K that) { return v - that.v; } }\n",
            true,
        ),
        // An overload of a stdlib global.
        ("int sortList(int x) { return x; }\n", true),
        // A duplicate stdlib class.
        ("class ArrayList { ArrayList() { } }\n", false),
    ] {
        assert_eq!(edit(&mut s, shape), 0, "declines: {shape}");
        let errors = s.last_diags().iter().any(|d| d.severity == Severity::Error);
        assert_eq!(errors, !clean, "{shape}: {:?}", s.last_diags());
        assert_eq!(edit(&mut s, LOCAL), 1, "extends again after: {shape}");
    }
}
