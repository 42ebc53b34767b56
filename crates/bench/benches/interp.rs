//! Interpreter dispatch benchmarks: monomorphic vs. megamorphic virtual
//! call sites and multimethod (model) dispatch, exercising the inline
//! caches and dispatch memos. Build with `--features no-cache` to A/B the
//! caching layer.
//!
//! The benchmark classes carry padding methods and inheritance chains so
//! dispatch cost looks like the stdlib's (`ArrayList` has dozens of
//! methods behind interfaces), not like a one-method toy class.

use criterion::{criterion_group, criterion_main, Criterion};
use genus::{CheckedProgram, Compiler, Interp, Vm};
use std::time::Instant;

fn padding(prefix: &str, n: usize) -> String {
    (0..n)
        .map(|i| format!("int {prefix}{i}() {{ return {i}; }}\n"))
        .collect()
}

/// One receiver class, one call site: the per-call-site inline cache
/// should hit on every iteration after the first. The target method sits
/// behind a padded subclass so the uncached path scans two classes.
fn monomorphic_src() -> String {
    format!(
        "class Shape {{
           Shape() {{ }}
           {pad_base}
           int area(int x) {{ return x + 1; }}
         }}
         class Square extends Shape {{
           Square() {{ }}
           {pad_sub}
         }}
         int main() {{
           Square s = new Square();
           int t = 0;
           for (int i = 0; i < 20000; i = i + 1) {{ t = t + s.area(i); }}
           return t;
         }}",
        pad_base = padding("pa", 10),
        pad_sub = padding("pb", 8),
    )
}

/// Four receiver classes rotating through one call site: the inline cache
/// keeps missing, so dispatch falls back to the per-class target memo.
/// The method lives two hops up a padded chain.
fn megamorphic_src() -> String {
    let subclasses: String = (1..=4)
        .map(|i| {
            format!(
                "class C{i} extends Mid {{
                   C{i}() {{ }}
                   {pad}
                 }}\n",
                pad = padding(&format!("c{i}m"), 6),
            )
        })
        .collect();
    format!(
        "class Base {{
           Base() {{ }}
           {pad_base}
           int f(int x) {{ return x; }}
         }}
         class Mid extends Base {{
           Mid() {{ }}
           {pad_mid}
         }}
         {subclasses}
         int main() {{
           Base[] xs = new Base[4];
           xs[0] = new C1(); xs[1] = new C2(); xs[2] = new C3(); xs[3] = new C4();
           int s = 0;
           for (int i = 0; i < 5000; i = i + 1) {{
             for (int j = 0; j < 4; j = j + 1) {{ s = s + xs[j].f(i); }}
           }}
           return s;
         }}",
        pad_base = padding("ba", 8),
        pad_mid = padding("mi", 8),
    )
}

/// A generic `use`-enabled model drives every comparison, so each
/// `compareTo` goes through multimethod dispatch (§5.1) with a non-empty
/// model environment — the case where the uncached path reclones
/// candidate environments on every call.
const MODEL_DISPATCH: &str = "
    class Box[T] {
      T item;
      Box(T item) { this.item = item; }
      T item() { return item; }
    }
    model BoxCmp[E] for Comparable[Box[E]] where Comparable[E] {
      int compareTo(Box[E] o) { return item().compareTo(o.item()); }
      boolean equals(Box[E] o) { return item().compareTo(o.item()) == 0; }
    }
    use BoxCmp;
    int count[T](List[T] xs, T pivot) where Comparable[T] {
      int n = 0;
      for (T x : xs) { if (x.compareTo(pivot) > 0) { n = n + 1; } }
      return n;
    }
    int main() {
      ArrayList[Box[int]] xs = new ArrayList[Box[int]]();
      for (int i = 0; i < 64; i = i + 1) { xs.add(new Box[int](i * 7 - 100)); }
      Box[int] pivot = new Box[int](50);
      int s = 0;
      for (int r = 0; r < 300; r = r + 1) {
        s = s + count(xs, pivot);
      }
      return s;
    }";

/// Allocation-heavy dispatch: every iteration allocates a fresh array
/// and a fresh receiver, calls through it, and drops both — megabytes of
/// churn with a tiny live set, the worst case for safe-point polling and
/// the best case for collection (everything but the checksum is garbage).
const HEAP_CHURN: &str = "
    class Node {
      int v;
      Node(int v) { this.v = v; }
      int get() { return this.v; }
    }
    int main() {
      int s = 0;
      for (int i = 0; i < 30000; i = i + 1) {
        int[] a = new int[32];
        a[0] = i;
        Node n = new Node(a[0]);
        s = s + n.get() - i + 1;
      }
      return s;
    }";

/// Toggles arena mode for heaps built after the call (each `Vm` builds
/// its own heap, so this takes effect per-run). The bench is
/// single-threaded, making the process-global env var safe to flip.
fn set_gc_off(off: bool) {
    if off {
        std::env::set_var("GENUS_GC_OFF", "1");
    } else {
        std::env::remove_var("GENUS_GC_OFF");
    }
}

fn compile(src: &str, stdlib: bool) -> CheckedProgram {
    let mut c = Compiler::new();
    if stdlib {
        c = c.with_stdlib();
    }
    c.source("bench.genus", src)
        .compile()
        .expect("bench program checks")
}

/// Runs once before timing and asserts the caches actually absorb the
/// dispatch traffic, so the bench numbers measure what they claim to.
fn assert_hit_rates(mono: &CheckedProgram, mega: &CheckedProgram, model: &CheckedProgram) {
    if !genus::caches_enabled() {
        return;
    }
    let mut interp = Interp::new(mono);
    interp.run_main().expect("monomorphic program runs");
    let s = interp.dispatch_stats();
    assert!(
        s.ic_hits >= 100 * (s.ic_misses + 1),
        "monomorphic site should be absorbed by the inline cache: {s:?}"
    );
    eprintln!("dispatch stats (monomorphic): {s:?}");

    let mut interp = Interp::new(mega);
    interp.run_main().expect("megamorphic program runs");
    let s = interp.dispatch_stats();
    assert!(
        s.virt_hits >= 100 * s.virt_misses,
        "megamorphic site should be absorbed by the per-class memo: {s:?}"
    );
    eprintln!("dispatch stats (megamorphic): {s:?}");

    let mut interp = Interp::new(model);
    interp.run_main().expect("model-dispatch program runs");
    let s = interp.dispatch_stats();
    assert!(
        s.model_hits >= 100 * s.model_misses,
        "model dispatch should be absorbed by the multimethod memo: {s:?}"
    );
    eprintln!("dispatch stats (model): {s:?}");
}

fn bench_dispatch(c: &mut Criterion) {
    let mono = compile(&monomorphic_src(), false);
    let mega = compile(&megamorphic_src(), false);
    let model = compile(MODEL_DISPATCH, true);
    assert_hit_rates(&mono, &mega, &model);
    let mut g = c.benchmark_group("dispatch");
    g.sample_size(10);
    for (name, prog) in [
        ("monomorphic", &mono),
        ("megamorphic", &mega),
        ("model_dispatch", &model),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let mut interp = Interp::new(prog);
                interp.run_main().expect("bench program runs")
            })
        });
    }
    g.finish();
}

/// Insertion sort through a `where Comparable[T]` model slot: every element
/// comparison is a constraint-method call, so the inner loop is dominated by
/// dictionary-passing dispatch — the workload the bytecode VM targets.
const INSERTION_SORT: &str = "
    void isort[T](T[] xs) where Comparable[T] {
      for (int i = 1; i < xs.length; i = i + 1) {
        T key = xs[i];
        int j = i - 1;
        while (j >= 0 && xs[j].compareTo(key) > 0) {
          xs[j + 1] = xs[j];
          j = j - 1;
        }
        xs[j + 1] = key;
      }
    }
    int main() {
      int n = 300;
      int s = 0;
      for (int r = 0; r < 5; r = r + 1) {
        int[] xs = new int[n];
        for (int i = 0; i < n; i = i + 1) { xs[i] = (i * 7919 + r) % 997; }
        isort(xs);
        s = s + xs[0] + xs[n - 1] * 2;
      }
      return s;
    }";

/// Insertion sort through a *user* constraint with an explicitly chosen
/// model: the inner loop is pure `Op::CallModel` traffic with a statically
/// known model tuple, which is exactly what the optimizer's heterogeneous
/// translation (`--opt-level=2`) rewrites into direct calls. Prelude-only,
/// so the numbers isolate dispatch from stdlib code.
const SPECIALIZED_DISPATCH: &str = "
    constraint Ord[T] { boolean T.before(T other); }
    model IntOrd for Ord[int] {
      boolean before(int other) { return this < other; }
    }
    void ssort[T](T[] xs) where Ord[T] {
      for (int i = 1; i < xs.length; i = i + 1) {
        T key = xs[i];
        int j = i - 1;
        while (j >= 0 && key.before(xs[j])) {
          xs[j + 1] = xs[j];
          j = j - 1;
        }
        xs[j + 1] = key;
      }
    }
    int main() {
      int n = 300;
      int s = 0;
      for (int r = 0; r < 5; r = r + 1) {
        int[] xs = new int[n];
        for (int i = 0; i < n; i = i + 1) { xs[i] = (i * 7919 + r) % 997; }
        ssort[int with IntOrd](xs);
        s = s + xs[0] + xs[n - 1] * 2;
      }
      return s;
    }";

fn run_ast(prog: &CheckedProgram) -> String {
    let mut interp = Interp::new(prog);
    let v = interp.run_main().expect("bench program runs on AST");
    interp.render(&v)
}

fn run_vm(prog: &CheckedProgram, code: &std::sync::Arc<genus::VmProgram>) -> String {
    let mut vm = Vm::with_code(prog, code.clone());
    let v = vm.run_main().expect("bench program runs on VM");
    vm.render(&v)
}

fn run_tier(prog: &CheckedProgram, tier: &genus::TierProgram) -> String {
    let mut vm = Vm::with_code(prog, tier.code().clone());
    let v = vm
        .run_main_tier(tier)
        .expect("bench program runs on Tier 2");
    vm.render(&v)
}

/// Minimum wall time in nanoseconds for each of two routines, sampled in
/// alternation so slow machine-load drift biases neither side. The
/// minimum is the noise-robust estimator: interference only adds time.
fn measure_pair(mut a: impl FnMut(), mut b: impl FnMut(), samples: usize) -> (f64, f64) {
    let one = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_nanos() as f64
    };
    for _ in 0..3 {
        one(&mut a);
        one(&mut b);
    }
    let (mut min_a, mut min_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..samples {
        min_a = min_a.min(one(&mut a));
        min_b = min_b.min(one(&mut b));
    }
    (min_a, min_b)
}

/// AST interpreter vs. bytecode VM on dispatch-heavy workloads. Besides the
/// criterion report, writes a machine-readable summary to `BENCH_vm.json`
/// at the repository root (the vendored criterion shim has no JSON output).
fn bench_vm(c: &mut Criterion) {
    let workloads = [
        ("model_dispatch", compile(MODEL_DISPATCH, true)),
        ("insertion_sort", compile(INSERTION_SORT, true)),
    ];
    let mut rows = Vec::new();
    let mut g = c.benchmark_group("vm");
    g.sample_size(10);
    for (name, prog) in &workloads {
        let code = Vm::new(prog).code().clone();
        // The engines must agree before we time them.
        assert_eq!(
            run_ast(prog),
            run_vm(prog, &code),
            "engine divergence on `{name}`"
        );
        g.bench_function(format!("{name}_ast"), |b| b.iter(|| run_ast(prog)));
        g.bench_function(format!("{name}_vm"), |b| b.iter(|| run_vm(prog, &code)));
        let (ast_ns, vm_ns) = measure_pair(
            || std::mem::drop(run_ast(prog)),
            || std::mem::drop(run_vm(prog, &code)),
            15,
        );
        rows.push(format!(
            "    \"{name}\": {{\"ast_ns\": {ast_ns:.0}, \"vm_ns\": {vm_ns:.0}, \"vm_speedup\": {:.3}}}",
            ast_ns / vm_ns
        ));
    }
    // The optimizer A/B: the same compiled program at opt-level 0
    // (homogeneous dictionary passing) vs opt-level 2 (heterogeneous
    // translation + cleanup), both on the VM.
    let opt_workloads = [
        ("specialized_dispatch", compile(SPECIALIZED_DISPATCH, false)),
        ("model_dispatch", compile(MODEL_DISPATCH, true)),
    ];
    let mut opt_rows = Vec::new();
    for (name, prog) in &opt_workloads {
        let code0 = std::sync::Arc::new(genus::compile_optimized(prog, 0));
        let code2 = std::sync::Arc::new(genus::compile_optimized(prog, 2));
        assert_eq!(
            run_vm(prog, &code0),
            run_vm(prog, &code2),
            "opt-level divergence on `{name}`"
        );
        g.bench_function(format!("{name}_vm_o0"), |b| b.iter(|| run_vm(prog, &code0)));
        g.bench_function(format!("{name}_vm_o2"), |b| b.iter(|| run_vm(prog, &code2)));
        let (o0_ns, o2_ns) = measure_pair(
            || std::mem::drop(run_vm(prog, &code0)),
            || std::mem::drop(run_vm(prog, &code2)),
            15,
        );
        let s = code2.opt_stats;
        opt_rows.push(format!(
            "    \"{name}\": {{\"vm_o0_ns\": {o0_ns:.0}, \"vm_o2_ns\": {o2_ns:.0}, \"o2_speedup\": {:.3}, \"funcs_specialized\": {}, \"calls_directed\": {}, \"call_model_devirted\": {}, \"calls_devirted\": {}}}",
            o0_ns / o2_ns,
            s.funcs_specialized,
            s.calls_directed,
            s.call_model_devirted,
            s.calls_devirted
        ));
    }
    // The tier A/B: the same O2 bytecode executed by the VM's
    // fetch/decode loop vs closure-compiled Tier 2 (pre-resolved
    // operands, no decode). Observable behaviour and fuel are identical
    // by construction; only the dispatch overhead differs.
    let tier_workloads = [
        ("specialized_dispatch", compile(SPECIALIZED_DISPATCH, false)),
        ("insertion_sort", compile(INSERTION_SORT, true)),
        ("model_dispatch", compile(MODEL_DISPATCH, true)),
    ];
    let mut tier_rows = Vec::new();
    for (name, prog) in &tier_workloads {
        let code2 = std::sync::Arc::new(genus::compile_optimized(prog, 2));
        let tier = genus::compile_tier(&code2);
        assert_eq!(
            run_vm(prog, &code2),
            run_tier(prog, &tier),
            "tier divergence on `{name}`"
        );
        g.bench_function(format!("{name}_tier"), |b| b.iter(|| run_tier(prog, &tier)));
        let (vm_ns, tier_ns) = measure_pair(
            || std::mem::drop(run_vm(prog, &code2)),
            || std::mem::drop(run_tier(prog, &tier)),
            15,
        );
        tier_rows.push(format!(
            "    \"{name}\": {{\"vm_o2_ns\": {vm_ns:.0}, \"tier_ns\": {tier_ns:.0}, \"tier_speedup\": {:.3}, \"funcs_tiered\": {}, \"blocks\": {}}}",
            vm_ns / tier_ns,
            tier.compiled().funcs_tiered,
            tier.compiled().blocks
        ));
    }
    // The GC A/B: the same allocation-heavy dispatch workload on the VM
    // with the collector on (threshold-doubling mark-sweep) vs off
    // (`GENUS_GC_OFF=1` arena mode). Byte accounting is charge-driven,
    // so `mem_used` is identical on both legs; what the A/B prices is
    // the collector itself — safe-point polls, root scans, sweeps —
    // against the arena's unbounded live set.
    let heap_prog = compile(HEAP_CHURN, false);
    let heap_code = std::sync::Arc::new(genus::compile_optimized(&heap_prog, 2));
    let churn_stats = |off: bool| {
        set_gc_off(off);
        let mut vm = Vm::with_code(&heap_prog, heap_code.clone());
        let v = vm.run_main().expect("heap churn runs on VM");
        let stats = (vm.render(&v), vm.resource_stats());
        set_gc_off(false);
        stats
    };
    let (on_value, on_stats) = churn_stats(false);
    let (off_value, off_stats) = churn_stats(true);
    assert_eq!(on_value, off_value, "GC must be semantically invisible");
    assert_eq!(
        on_stats.mem_used, off_stats.mem_used,
        "accounting is charge-driven"
    );
    assert!(on_stats.collections > 0, "churn workload never collected");
    g.bench_function("alloc_churn_gc_on", |b| {
        b.iter(|| std::mem::drop(churn_stats(false)));
    });
    g.bench_function("alloc_churn_gc_off", |b| {
        b.iter(|| std::mem::drop(churn_stats(true)));
    });
    let (gc_on_ns, gc_off_ns) = measure_pair(
        || std::mem::drop(churn_stats(false)),
        || std::mem::drop(churn_stats(true)),
        15,
    );
    let heap_rows = [format!(
        "    \"alloc_churn\": {{\"gc_on_ns\": {gc_on_ns:.0}, \"gc_off_ns\": {gc_off_ns:.0}, \"gc_overhead\": {:.3}, \"mem_used\": {}, \"collections\": {}, \"peak_live_gc_on\": {}, \"peak_live_gc_off\": {}}}",
        gc_on_ns / gc_off_ns,
        on_stats.mem_used,
        on_stats.collections,
        on_stats.peak_bytes,
        off_stats.peak_bytes
    )];
    g.finish();
    let json = format!(
        "{{\n  \"bench\": \"ast_vs_vm\",\n  \"caches_enabled\": {},\n  \"min_of\": 15,\n  \"workloads\": {{\n{}\n  }},\n  \"opt\": {{\n{}\n  }},\n  \"tier\": {{\n{}\n  }},\n  \"heap\": {{\n{}\n  }}\n}}\n",
        genus::caches_enabled(),
        rows.join(",\n"),
        opt_rows.join(",\n"),
        tier_rows.join(",\n"),
        heap_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_vm.json");
    std::fs::write(path, &json).expect("write BENCH_vm.json");
    eprintln!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_dispatch, bench_vm
}
criterion_main!(benches);
