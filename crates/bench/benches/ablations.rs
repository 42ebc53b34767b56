//! Ablation benchmark for the reified fast path: Figure 7's `addAll` with
//! same-ordering detection, matching vs non-matching models, in the
//! interpreter. The costs of model indirection and of boxing are read off
//! Table 1 on the engines instead (`examples/table1_report`: its VM-O0
//! against VM-O2 columns, and its `double` against `Num` rows).

use criterion::{criterion_group, criterion_main, Criterion};
use genus::{CheckedProgram, Compiler, Interp};

fn compile(src: &str) -> CheckedProgram {
    Compiler::new()
        .with_stdlib()
        .source("bench.genus", src)
        .compile()
        .expect("benchmark program compiles")
}

fn run_program(prog: &CheckedProgram) {
    let mut i = Interp::new(prog);
    i.run_main().expect("benchmark program runs");
    let _ = i.take_output();
}

fn ablation_reified_fast_path(c: &mut Criterion) {
    // Interpreter-level: TreeSet.addAll with matching vs non-matching
    // orderings (Figure 7). The element flow is identical; the measured
    // difference is the reified-model test plus the chosen path.
    let mk = |with_model: bool| {
        let decl = if with_model {
            " with ReverseCmp[int]"
        } else {
            ""
        };
        format!(
            "void main() {{
               TreeSet[int{decl}] a = new TreeSet[int{decl}]();
               for (int i = 0; i < 60; i = i + 1) {{ a.add(i * 7 % 61); }}
               TreeSet[int] b = new TreeSet[int]();
               b.addAll(a);
               println(b.fastPathAdds);
             }}"
        )
    };
    let prog_same = compile(&mk(false));
    let prog_diff = compile(&mk(true));
    let mut g = c.benchmark_group("ablation_reified_fast_path");
    g.sample_size(10);
    g.bench_function("same_ordering_fast_path", |b| {
        b.iter(|| run_program(&prog_same))
    });
    g.bench_function("different_ordering_slow_path", |b| {
        b.iter(|| run_program(&prog_diff))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = ablation_reified_fast_path
}
criterion_main!(benches);
