//! Integration tests for `genus-fuzz`: generator validity, loop
//! determinism, coverage signal, and the catch → minimize → report
//! path (via a planted bug).

use genus_fuzz::{fuzz, pipeline, FuzzConfig, FuzzReport, Verdict};
use std::sync::Arc;

/// Every *generated* program must type-check: the generator is
/// well-typed by construction, so a reject here is a generator bug.
#[test]
fn generated_programs_compile() {
    for seed in 0..40u64 {
        for src in [
            genus_fuzz::generate(seed),
            genus_fuzz::generate_with_inheritance(seed),
        ] {
            let report = pipeline::compile(&src);
            assert!(
                report.program.is_some(),
                "seed {seed} generated an ill-typed program:\n{}\n--- diagnostics ---\n{}",
                src,
                report.render_errors_short()
            );
        }
    }
}

/// Generated programs must also *run* cleanly through the whole oracle
/// suite (passing or fuel-skipping, never diverging or rejecting).
#[test]
fn generated_programs_pass_oracles() {
    for seed in 0..12u64 {
        for src in [
            genus_fuzz::generate(seed),
            genus_fuzz::generate_with_inheritance(seed),
        ] {
            match genus_fuzz::replay(&src, 100_000) {
                Verdict::Pass | Verdict::ResourceSkip => {}
                v => panic!("seed {seed}: oracle verdict {v:?} on\n{src}"),
            }
        }
    }
}

fn run_with_seed(seed: u64, cases: u64) -> FuzzReport {
    fuzz(FuzzConfig {
        seed,
        cases,
        ..FuzzConfig::default()
    })
    .expect("in-memory fuzz run cannot fail on IO")
}

/// Same seed + same (empty) corpus ⇒ identical corpus contents, edge
/// counts, and case statistics across two runs.
#[test]
fn fuzz_loop_is_deterministic() {
    let a = run_with_seed(7, 30);
    let b = run_with_seed(7, 30);
    assert_eq!(a.total_edges, b.total_edges);
    assert_eq!(a.corpus_len, b.corpus_len);
    assert_eq!(a.generated, b.generated);
    assert_eq!(a.mutated, b.mutated);
    assert_eq!(a.compile_rejects, b.compile_rejects);
    assert_eq!(a.resource_skips, b.resource_skips);
    assert!(
        a.crashes.is_empty(),
        "unexpected divergence: {}",
        a.summary()
    );
    assert!(b.crashes.is_empty());
    // And the run actually produced a coverage signal.
    assert!(a.new_edges > 0, "no coverage feedback: {}", a.summary());
    assert!(
        a.corpus_len > 0,
        "nothing entered the corpus: {}",
        a.summary()
    );
}

/// A planted "bug" (a textual predicate standing in for a real engine
/// divergence) is caught by the loop and minimized to a small repro
/// that still triggers the predicate and still compiles.
#[test]
fn planted_bug_is_caught_and_minimized() {
    // `1013` never appears in generated programs (literals stay within
    // ±1000); it is one of the constant-tweak mutation's boundary
    // values, so only the mutation path can plant it.
    let planted = |src: &str| src.contains("1013");
    let report = fuzz(FuzzConfig {
        seed: 1,
        cases: 400,
        planted: Some(Arc::new(planted)),
        ..FuzzConfig::default()
    })
    .expect("in-memory fuzz run cannot fail on IO");
    assert!(
        !report.crashes.is_empty(),
        "planted bug never triggered: {}",
        report.summary()
    );
    let crash = &report.crashes[0];
    assert_eq!(crash.oracle, "planted");
    assert!(planted(&crash.minimized), "minimized repro lost the bug");
    assert!(
        pipeline::compile(&crash.minimized).program.is_some(),
        "minimized repro no longer compiles:\n{}",
        crash.minimized
    );
    let lines = crash.minimized.lines().count();
    assert!(
        lines < 15,
        "repro not minimal ({lines} lines):\n{}",
        crash.minimized
    );
}

/// Regression: a model for an unresolved constraint used to build an
/// arity-inconsistent placeholder instantiation, which panicked the
/// checker ("arity mismatch in substitution") when the model body
/// called methods through the enabled-model context. Found by the
/// fuzzer's minimizer; must produce diagnostics, not a panic.
#[test]
fn model_for_unknown_constraint_diagnoses_instead_of_panicking() {
    let src = "model StrRank for Rank[String] {\n    \
               int rank() { return ((this.compareTo(\"m\") * 5) + this.length()); }\n\
               }\n\
               int total[T](List[T] xs) where Rank[T] {\n}\n\
               int main() {\n}\n";
    let report = pipeline::compile(src);
    assert!(report.program.is_none(), "ill-formed program was accepted");
}

/// The replay entry point agrees with the loop's verdicts on a known
/// sample (used by CI to re-check checked-in crash repros).
#[test]
fn replay_passes_on_shipped_samples() {
    for sample in [
        "hello",
        "word_count",
        "existential_registry",
        "ci_word_count",
        "class_hierarchy",
        "comparator_sort",
    ] {
        let src = std::fs::read_to_string(format!("samples/{sample}.genus")).unwrap();
        match genus_fuzz::replay(&src, 10_000_000) {
            Verdict::Pass => {}
            v => panic!("{sample}: {v:?}"),
        }
    }
}
