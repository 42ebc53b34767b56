//! Dispatch-heavy workloads on every engine: the AST interpreter's
//! dispatch caches absorb monomorphic, megamorphic and model-dispatch
//! call sites; the engines and optimization levels agree on sorts that
//! compare through constraint methods; and on an allocation-heavy loop
//! the collector changes nothing a program or its byte accounting can
//! see.
//!
//! The classes carry padding methods and inheritance chains so
//! dispatch looks like the stdlib's (`ArrayList` has dozens of methods
//! behind interfaces), not like a one-method toy class.

use genus_heap::heap::GC_INITIAL_THRESHOLD;
use genus_heap::Heap;
use genus_interp::with_interp_stack;
use genus_repro::{
    caches_enabled, compile_optimized, compile_tier, set_caches_enabled, CheckedProgram, Compiler,
    DispatchStats, Limits, Vm, VmProgram,
};
use genus_vm::exec::{execute, execute_vm, Code, Execution};
use std::sync::Arc;

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

/// Insertion sort through a `where Comparable[T]` model slot: every
/// element comparison is a constraint-method call, so the inner loop is
/// dictionary-passing dispatch.
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
/// known model tuple, which O2's heterogeneous translation rewrites into
/// direct calls. Prelude-only.
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

/// Loop iterations of [`HEAP_CHURN`].
const CHURN_ITERATIONS: u64 = 30000;

/// Allocation-heavy dispatch: every iteration allocates a fresh array
/// and a fresh receiver, calls through it, and drops both: megabytes of
/// churn with a tiny live set.
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

fn compile(src: &str, stdlib: bool) -> CheckedProgram {
    let mut c = Compiler::new();
    if stdlib {
        c = c.with_stdlib();
    }
    c.source("dispatch.genus", src)
        .compile()
        .expect("program checks")
}

fn run_ast(prog: &CheckedProgram) -> Execution {
    with_interp_stack(|| execute(prog, Code::Ast, Limits::default()))
}

/// Runs `main()` on the VM over `code` with a heap in the given
/// collector modes.
fn run_vm_heap(prog: &CheckedProgram, code: &Arc<VmProgram>, heap: Heap) -> Execution {
    let mut vm = Vm::with_code(prog, Arc::clone(code));
    vm.state.heap = heap;
    execute_vm(vm, None, Limits::default())
}

/// The value (or trap code) and the output of a run.
fn result(ex: &Execution) -> (Result<String, String>, String) {
    (
        ex.outcome.clone().map_err(|e| e.code().to_string()),
        ex.output.clone(),
    )
}

/// The AST interpreter's caches must absorb the dispatch traffic: the
/// inline cache a monomorphic site, the per-class target memo a
/// megamorphic one, and the multimethod memo every model dispatch after
/// the first of each kind. Only with the caches on.
#[test]
fn dispatch_caches_absorb_the_traffic() {
    if !caches_enabled() {
        return;
    }
    let s = run_ast(&compile(&monomorphic_src(), false)).dispatch_stats;
    assert!(
        s.ic_hits >= 100 * (s.ic_misses + 1),
        "monomorphic site should be absorbed by the inline cache: {s:?}"
    );
    let s = run_ast(&compile(&megamorphic_src(), false)).dispatch_stats;
    assert!(
        s.virt_hits >= 100 * s.virt_misses,
        "megamorphic site should be absorbed by the per-class memo: {s:?}"
    );
    let s = run_ast(&compile(MODEL_DISPATCH, true)).dispatch_stats;
    assert!(
        s.model_hits >= 100 * s.model_misses,
        "model dispatch should be absorbed by the multimethod memo: {s:?}"
    );
}

/// The AST interpreter and the VM agree, the VM at O0 and at O2 agree,
/// and the VM and Tier 2 over the same O2 bytecode agree, on value,
/// output and (VM against Tier 2) fuel.
#[test]
fn engines_agree_on_the_dispatch_programs() {
    for (name, src, stdlib) in [
        ("model_dispatch", MODEL_DISPATCH, true),
        ("insertion_sort", INSERTION_SORT, true),
        ("specialized_dispatch", SPECIALIZED_DISPATCH, false),
    ] {
        let prog = compile(src, stdlib);
        let ast = run_ast(&prog);
        assert!(ast.outcome.is_ok(), "`{name}` on AST: {:?}", ast.outcome);
        let code0 = Arc::new(compile_optimized(&prog, 0));
        let code2 = Arc::new(compile_optimized(&prog, 2));
        let o0 = execute(&prog, Code::Vm(&code0), Limits::default());
        let o2 = execute(&prog, Code::Vm(&code2), Limits::default());
        let tier = execute(&prog, Code::Tier(&compile_tier(&code2)), Limits::default());
        assert_eq!(result(&ast), result(&o0), "`{name}`: AST vs VM-O0");
        assert_eq!(result(&o0), result(&o2), "`{name}`: VM-O0 vs VM-O2");
        assert_eq!(result(&o2), result(&tier), "`{name}`: VM-O2 vs Tier 2");
        assert_eq!(
            o2.resource_stats.fuel_used, tier.resource_stats.fuel_used,
            "`{name}`: VM-O2 and Tier 2 meter alike"
        );
    }
}

/// The churn loop at O2 with the collector on, off and collecting at
/// every safe point: the same value, fuel and allocated bytes on all
/// three, since accounting is charged at allocation sites. The collector
/// actually runs, and keeps the live set within its threshold plus one
/// iteration's allocations; collecting at every safe point leaves only
/// the last iteration's array and receiver alive, so nothing leaks from
/// one iteration into the next.
#[test]
fn the_collector_is_invisible_on_heap_churn() {
    let prog = compile(HEAP_CHURN, false);
    let code = Arc::new(compile_optimized(&prog, 2));
    let on = run_vm_heap(&prog, &code, Heap::with_modes(false, false));
    let off = run_vm_heap(&prog, &code, Heap::with_modes(false, true));
    let stress = run_vm_heap(&prog, &code, Heap::with_modes(true, false));
    assert_eq!(result(&on), (Ok("30000".to_string()), String::new()));
    for (leg, ex) in [("off", &off), ("stress", &stress)] {
        assert_eq!(result(ex), result(&on), "collector {leg}: value");
        let (a, b) = (&ex.resource_stats, &on.resource_stats);
        assert_eq!(
            (a.fuel_used, a.mem_used),
            (b.fuel_used, b.mem_used),
            "collector {leg}: fuel and allocated bytes"
        );
    }
    let per_iteration = on.resource_stats.mem_used / CHURN_ITERATIONS;
    let on = on.resource_stats;
    assert!(on.collections > 0, "churn loop never collected: {on:?}");
    assert_eq!(off.resource_stats.collections, 0);
    assert_eq!(off.resource_stats.live_bytes, on.mem_used);
    assert!(
        on.peak_bytes <= GC_INITIAL_THRESHOLD + per_iteration,
        "live set outgrew the collector's threshold: {on:?}"
    );
    assert_eq!(
        stress.resource_stats.live_bytes, per_iteration,
        "collecting at every safe point keeps one iteration alive: {:?}",
        stress.resource_stats
    );
}

/// Every dispatch counter, exactly, on the three dispatch programs on
/// every engine: `[ic_hits, ic_misses, virt_hits, virt_misses,
/// model_hits, model_misses]`. At O2 class-hierarchy analysis turns the
/// monomorphic and megamorphic sites into direct calls and the model
/// dispatch program's `compareTo` sites into specialized calls, so only
/// the stdlib's remaining virtual calls count. With the caches off
/// nothing is cached, so every counter reads 0.
#[test]
fn dispatch_counts_are_pinned() {
    const PINS: [(&str, [[u64; 6]; 4]); 3] = [
        (
            "monomorphic",
            [
                [19999, 1, 0, 1, 0, 0],
                [19999, 1, 0, 1, 0, 0],
                [0; 6],
                [0; 6],
            ],
        ),
        (
            "megamorphic",
            [
                [0, 20000, 19996, 4, 0, 0],
                [0, 20000, 19996, 4, 0, 0],
                [0; 6],
                [0; 6],
            ],
        ),
        (
            "model_dispatch",
            [
                [116219, 9, 1, 8, 19199, 1],
                [116219, 9, 1, 8, 19199, 1],
                [77695, 5, 0, 5, 0, 0],
                [77695, 5, 0, 5, 0, 0],
            ],
        ),
    ];
    let programs = [
        (monomorphic_src(), false),
        (megamorphic_src(), false),
        (MODEL_DISPATCH.to_string(), true),
    ];
    for ((name, pins), (src, stdlib)) in PINS.iter().zip(programs) {
        let prog = compile(&src, stdlib);
        let code0 = Arc::new(compile_optimized(&prog, 0));
        let code2 = Arc::new(compile_optimized(&prog, 2));
        let runs = [
            ("AST", run_ast(&prog)),
            ("VM-O0", execute(&prog, Code::Vm(&code0), Limits::default())),
            ("VM-O2", execute(&prog, Code::Vm(&code2), Limits::default())),
            (
                "Tier 2",
                execute(&prog, Code::Tier(&compile_tier(&code2)), Limits::default()),
            ),
        ];
        for ((engine, ex), pin) in runs.iter().zip(pins) {
            assert!(ex.outcome.is_ok(), "`{name}` on {engine}: {:?}", ex.outcome);
            let s = ex.dispatch_stats;
            let got = [
                s.ic_hits,
                s.ic_misses,
                s.virt_hits,
                s.virt_misses,
                s.model_hits,
                s.model_misses,
            ];
            let want = if caches_enabled() { *pin } else { [0; 6] };
            assert_eq!(got, want, "`{name}` on {engine}");
        }
    }
}

/// Turning the caches off on the calling thread reaches the thread
/// `with_interp_stack` runs the AST engine on: a virtual-call loop then
/// counts no hit and no miss.
#[test]
fn the_cache_switch_reaches_the_interpreter_thread() {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_caches_enabled(self.0);
        }
    }
    let _restore = Restore(caches_enabled());
    let prog = compile(&monomorphic_src(), false);
    set_caches_enabled(false);
    let ex = run_ast(&prog);
    assert!(ex.outcome.is_ok(), "{:?}", ex.outcome);
    assert_eq!(ex.dispatch_stats, DispatchStats::default());
}
