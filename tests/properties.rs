//! Property-based tests over the pipeline and the evaluation substrates.

// Every program in this suite runs on BOTH engines (AST interpreter and
// bytecode VM) with a divergence check — the differential harness.
use genus_repro::run_differential_with_stdlib as run_with_stdlib;
use genus_repro::table1;
use proptest::prelude::*;

// ---------------------------------------------------------------------
// The Table 1 sorts agree with std's sort on every engine
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every Table 1 cell program, over a random length and seed, returns
    /// the checksum of Rust's sort on the AST engine, VM-O0, VM-O2 and
    /// Tier 2, with the same fuel on VM-O2 and Tier 2 (`table1::run`
    /// checks the three bytecode configurations and the fuel).
    #[test]
    fn table1_cells_sort_like_std_on_every_engine(n in 0usize..48, seed in 0u32..65537) {
        let want = table1::checksum(n, seed);
        for cell in table1::CELLS {
            let src = table1::cell_program(&cell, n, seed);
            let label = format!("{} {} (n = {n}, seed = {seed})", cell.kind.label(), cell.data.label());
            let ast = genus::Compiler::new()
                .with_stdlib()
                .source("table1_cell.genus", src.clone())
                .execute()
                .map_err(TestCaseError::fail)?;
            let got = ast.outcome.ok().and_then(|v| v.parse::<f64>().ok());
            prop_assert_eq!(got, Some(want), "AST engine: {}", label);
            table1::run(&src, 1, Some(want)).map_err(|e| TestCaseError::fail(format!("{label}: {e}")))?;
        }
    }
}

// ---------------------------------------------------------------------
// The interpreter against reference semantics
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn interpreted_generic_sort_matches_std(values in prop::collection::vec(-1000i32..1000, 0..25)) {
        let adds: String = values.iter().map(|v| format!("l.add({v});")).collect();
        let src = format!(
            "void sort[T](List[T] l) where Comparable[T] {{
               int n = l.size();
               for (int i = 1; i < n; i = i + 1) {{
                 T x = l.get(i);
                 int j = i;
                 while (j > 0 && l.get(j - 1).compareTo(x) > 0) {{
                   l.set(j, l.get(j - 1));
                   j = j - 1;
                 }}
                 l.set(j, x);
               }}
             }}
             void main() {{
               ArrayList[int] l = new ArrayList[int]();
               {adds}
               sort(l);
               for (int x : l) {{ print(x); print(\" \"); }}
             }}"
        );
        let r = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        let mut expect = values.clone();
        expect.sort_unstable();
        let got: Vec<i32> = r
            .output
            .split_whitespace()
            .map(|t| t.parse().expect("int output"))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn treeset_iterates_sorted_and_dedups(values in prop::collection::vec(-50i32..50, 0..25)) {
        let adds: String = values.iter().map(|v| format!("s.add({v});")).collect();
        let src = format!(
            "void main() {{
               TreeSet[int] s = new TreeSet[int]();
               {adds}
               for (int x : s) {{ print(x); print(\" \"); }}
             }}"
        );
        let r = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        let mut expect: Vec<i32> = values.clone();
        expect.sort_unstable();
        expect.dedup();
        let got: Vec<i32> = r
            .output
            .split_whitespace()
            .map(|t| t.parse().expect("int output"))
            .collect();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn hashmap_agrees_with_std(ops in prop::collection::vec((0u8..3, -20i32..20, -100i32..100), 0..30)) {
        use std::collections::HashMap as StdMap;
        let mut body = String::new();
        let mut reference: StdMap<i32, i32> = StdMap::new();
        for (op, k, v) in &ops {
            match op % 3 {
                0 => {
                    body.push_str(&format!("m.put({k}, {v});"));
                    reference.insert(*k, *v);
                }
                1 => {
                    body.push_str(&format!("m.removeKey({k});"));
                    reference.remove(k);
                }
                _ => {
                    body.push_str(&format!(
                        "if (m.containsKey({k})) {{ probes = probes + m.get({k}); }}"
                    ));
                }
            }
        }
        let src = format!(
            "void main() {{
               HashMap[int, int] m = new HashMap[int, int]();
               int probes = 0;
               {body}
               println(m.size());
             }}"
        );
        let r = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        prop_assert_eq!(r.output.trim(), reference.len().to_string());
    }
}

// ---------------------------------------------------------------------
// SSSP against a reference Dijkstra
// ---------------------------------------------------------------------

fn reference_dijkstra(n: usize, edges: &[(usize, usize, f64)]) -> Vec<f64> {
    let mut dist = vec![f64::INFINITY; n];
    dist[0] = 0.0;
    let mut done = vec![false; n];
    for _ in 0..n {
        let mut best = None;
        for v in 0..n {
            if !done[v] && dist[v].is_finite() && best.is_none_or(|b: usize| dist[v] < dist[b]) {
                best = Some(v);
            }
        }
        let Some(v) = best else { break };
        done[v] = true;
        for (a, b, w) in edges {
            if *a == v && dist[v] + w < dist[*b] {
                dist[*b] = dist[v] + w;
            }
        }
    }
    dist
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sssp_matches_reference(
        n in 2usize..7,
        raw_edges in prop::collection::vec((0usize..6, 0usize..6, 1u32..100), 1..12),
    ) {
        // Perturb weights so accumulated path weights are distinct (the
        // paper's TreeMap frontier keys collide on equal weights; its own
        // caption concedes a priority queue would be more robust).
        let edges: Vec<(usize, usize, f64)> = raw_edges
            .iter()
            .enumerate()
            .map(|(i, (a, b, w))| (a % n, b % n, f64::from(*w) + (i as f64) * 1e-4))
            .collect();
        let expect = reference_dijkstra(n, &edges);

        let mut body = String::new();
        body.push_str("Graph g = new Graph();\n");
        for i in 0..n {
            body.push_str(&format!("Vertex v{i} = g.addVertex();\n"));
        }
        for (a, b, w) in &edges {
            body.push_str(&format!("g.addEdge(v{a}, v{b}, {w});\n"));
        }
        body.push_str(
            "HashMap[Vertex, double] dist = SSSP[Vertex, Edge, double with TropicalRing](v0);\n",
        );
        for i in 0..n {
            body.push_str(&format!(
                "if (dist.containsKey(v{i})) {{ println(dist.get(v{i})); }} else {{ println(\"inf\"); }}\n"
            ));
        }
        let src = format!("void main() {{\n{body}\n}}");
        let r = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        let lines: Vec<&str> = r.output.trim().lines().collect();
        prop_assert_eq!(lines.len(), n);
        for (i, line) in lines.iter().enumerate() {
            if *line == "inf" {
                prop_assert!(expect[i].is_infinite(), "vertex {i}: expected {}", expect[i]);
            } else {
                let got: f64 = line.parse().expect("distance");
                prop_assert!(
                    (got - expect[i]).abs() < 1e-6,
                    "vertex {i}: got {got}, expected {}",
                    expect[i]
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Determinism: compiling and running twice gives identical results
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pipeline_is_deterministic(values in prop::collection::vec(0i32..100, 1..10)) {
        let adds: String = values.iter().map(|v| format!("s.add({v});")).collect();
        let src = format!(
            "void main() {{
               TreeSet[int] s = new TreeSet[int]();
               {adds}
               for (int x : s) {{ print(x); print(\",\"); }}
             }}"
        );
        let a = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        let b = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        prop_assert_eq!(a, b);
    }
}

// ---------------------------------------------------------------------
// TreeMap differential-tested against std's BTreeMap
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn treemap_agrees_with_btreemap(
        ops in prop::collection::vec((0u8..4, -15i32..15, 0i32..100), 1..35),
    ) {
        use std::collections::BTreeMap;
        let mut body = String::new();
        let mut reference: BTreeMap<i32, i32> = BTreeMap::new();
        let mut expected_probes: Vec<String> = Vec::new();
        for (op, k, v) in &ops {
            match op % 4 {
                0 => {
                    body.push_str(&format!("m.put({k}, {v});\n"));
                    reference.insert(*k, *v);
                }
                1 => {
                    body.push_str(&format!("m.removeKey({k});\n"));
                    reference.remove(k);
                }
                2 => {
                    body.push_str(&format!(
                        "if (m.containsKey({k})) {{ println(m.get({k})); }} else {{ println(\"none\"); }}\n"
                    ));
                    expected_probes.push(match reference.get(k) {
                        Some(v) => v.to_string(),
                        None => "none".to_string(),
                    });
                }
                _ => {
                    body.push_str(
                        "if (m.size() > 0) { println(m.firstKey()); } else { println(\"empty\"); }\n",
                    );
                    expected_probes.push(match reference.keys().next() {
                        Some(k) => k.to_string(),
                        None => "empty".to_string(),
                    });
                }
            }
        }
        // Final in-order drain.
        body.push_str(
            "while (m.size() > 0) {
               MapEntry[int, int] e = m.pollFirstEntry();
               println(e.getKey() + \"=\" + e.getValue());
             }\n",
        );
        for (k, v) in &reference {
            expected_probes.push(format!("{k}={v}"));
        }
        let src = format!(
            "void main() {{
               TreeMap[int, int] m = new TreeMap[int, int]();
               {body}
             }}"
        );
        let r = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        let got: Vec<&str> = r.output.trim().lines().collect();
        let want: Vec<&str> = expected_probes.iter().map(String::as_str).collect();
        prop_assert_eq!(got, want);
    }
}

// ---------------------------------------------------------------------
// SCC differential-tested against a reference Tarjan implementation
// ---------------------------------------------------------------------

fn reference_scc_count(n: usize, edges: &[(usize, usize)]) -> Vec<usize> {
    // Iterative Tarjan; returns sorted component sizes.
    let mut adj = vec![Vec::new(); n];
    for (a, b) in edges {
        adj[*a].push(*b);
    }
    let (mut index, mut stack, mut on_stack) = (0usize, Vec::new(), vec![false; n]);
    let (mut idx, mut low) = (vec![usize::MAX; n], vec![0usize; n]);
    let mut comps: Vec<usize> = Vec::new();
    for start in 0..n {
        if idx[start] != usize::MAX {
            continue;
        }
        // Explicit DFS stack: (vertex, child cursor).
        let mut call: Vec<(usize, usize)> = vec![(start, 0)];
        idx[start] = index;
        low[start] = index;
        index += 1;
        stack.push(start);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = call.last_mut() {
            if *cursor < adj[v].len() {
                let w = adj[v][*cursor];
                *cursor += 1;
                if idx[w] == usize::MAX {
                    idx[w] = index;
                    low[w] = index;
                    index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(idx[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == idx[v] {
                    let mut size = 0;
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w] = false;
                        size += 1;
                        if w == v {
                            break;
                        }
                    }
                    comps.push(size);
                }
            }
        }
    }
    comps.sort_unstable();
    comps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn scc_matches_tarjan(
        n in 1usize..7,
        raw_edges in prop::collection::vec((0usize..6, 0usize..6), 0..14),
    ) {
        let edges: Vec<(usize, usize)> =
            raw_edges.iter().map(|(a, b)| (a % n, b % n)).collect();
        let mut expect = reference_scc_count(n, &edges);

        let mut body = String::new();
        body.push_str("Graph g = new Graph();\n");
        for i in 0..n {
            body.push_str(&format!("Vertex v{i} = g.addVertex();\n"));
        }
        for (a, b) in &edges {
            body.push_str(&format!("g.addEdge(v{a}, v{b}, 1.0);\n"));
        }
        body.push_str(
            "ArrayList[ArrayList[Vertex]] comps = SCC[Vertex, Edge](g.vertices);
             for (ArrayList[Vertex] c : comps) { println(c.size()); }\n",
        );
        let src = format!("void main() {{\n{body}\n}}");
        let r = run_with_stdlib(&src).map_err(TestCaseError::fail)?;
        let mut got: Vec<usize> = r
            .output
            .split_whitespace()
            .map(|t| t.parse().expect("component size"))
            .collect();
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }
}

// ---------------------------------------------------------------------
// The bytecode optimizer is semantically invisible: opt levels 0 and 2
// produce identical outputs and identical structured diagnostics
// ---------------------------------------------------------------------

/// A generic insertion sort driven through a user model (so level 2
/// exercises specialization and `CallModel` devirtualization), with an
/// optional injected out-of-bounds trap after partial output.
fn optimizer_probe_src(values: &[i32], trap: bool) -> String {
    let sets: String = values
        .iter()
        .enumerate()
        .map(|(i, v)| format!("xs[{i}] = {v}; "))
        .collect();
    let tail = if trap {
        "int boom = xs[xs.length + 1]; print(boom);"
    } else {
        ""
    };
    format!(
        "constraint Ord[T] {{ boolean T.before(T other); }}
         model IntOrd for Ord[int] {{
           boolean before(int other) {{ return this < other; }}
         }}
         void sort[T](T[] xs) where Ord[T] {{
           for (int i = 1; i < xs.length; i = i + 1) {{
             T key = xs[i];
             int j = i - 1;
             while (j >= 0 && key.before(xs[j])) {{
               xs[j + 1] = xs[j];
               j = j - 1;
             }}
             xs[j + 1] = key;
           }}
         }}
         void main() {{
           int[] xs = new int[{n}];
           {sets}
           sort[int with IntOrd](xs);
           for (int x : xs) {{ print(x); print(\" \"); }}
           {tail}
         }}",
        n = values.len(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn opt_levels_agree(values in prop::collection::vec(-1000i32..1000, 1..20), trap in any::<bool>()) {
        let src = optimizer_probe_src(&values, trap);
        let run_at = |level: u8| {
            genus::Compiler::new()
                .engine(genus::Engine::Vm)
                .opt_level(level)
                .source("probe.genus", src.clone())
                .execute()
                .map_err(TestCaseError::fail)
        };
        let o0 = run_at(0)?;
        let o2 = run_at(2)?;
        // Byte-identical output, identical outcome — including the
        // structured identity (stable code + span) of any trap.
        prop_assert_eq!(&o0.output, &o2.output);
        match (&o0.outcome, &o2.outcome) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a.code(), b.code());
                prop_assert_eq!(a.span, b.span);
            }
            (a, b) => prop_assert!(false, "outcome kind diverged: {:?} vs {:?}", a, b),
        }
        prop_assert_eq!(o0.outcome.is_err(), trap);
        if !trap {
            let mut expect = values.clone();
            expect.sort_unstable();
            let got: Vec<i32> = o2
                .output
                .split_whitespace()
                .map(|t| t.parse().expect("int output"))
                .collect();
            prop_assert_eq!(got, expect);
        }
        // The probe is generic + model-driven, so level 2 must actually
        // have specialized something (the test would otherwise pass
        // vacuously with the optimizer disabled).
        let stats = o2.opt_stats.expect("VM runs carry opt stats");
        prop_assert!(stats.funcs_specialized >= 1, "specializer never fired: {:?}", stats);
        prop_assert_eq!(o0.opt_stats.expect("stats at level 0").funcs_specialized, 0);
    }
}

// ---------------------------------------------------------------------
// Tiered execution is semantically invisible: the AST interpreter, the
// VM at O0 and O2, and the closure-compiled Tier 2 agree on everything
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Four-way parity sweep over the optimizer probe (generic sort via
    /// a user model, optional injected trap after partial output): every
    /// tier must produce byte-identical output and the same outcome —
    /// with traps compared structurally on (stable code, span). The VM
    /// and Tier 2 legs share the O2 bytecode, so their fuel counters
    /// must agree **exactly**, and the tier must actually have compiled
    /// functions (anti-vacuity: `funcs_tiered >= 1`).
    #[test]
    fn tiers_agree(values in prop::collection::vec(-1000i32..1000, 1..20), trap in any::<bool>()) {
        let src = optimizer_probe_src(&values, trap);
        let run_on = |engine: genus::Engine, level: u8| {
            genus::Compiler::new()
                .engine(engine)
                .opt_level(level)
                .source("probe.genus", src.clone())
                .execute()
                .map_err(TestCaseError::fail)
        };
        let ast = run_on(genus::Engine::Ast, 0)?;
        let vm0 = run_on(genus::Engine::Vm, 0)?;
        let vm2 = run_on(genus::Engine::Vm, 2)?;
        let jit = run_on(genus::Engine::Jit, 2)?;
        let legs = [("vm-o0", &vm0), ("vm-o2", &vm2), ("tier2", &jit)];
        for (name, leg) in legs {
            prop_assert_eq!(&ast.output, &leg.output, "output diverged on {}", name);
            match (&ast.outcome, &leg.outcome) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "value diverged on {}", name),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.code(), b.code(), "code diverged on {}", name);
                    prop_assert_eq!(a.span, b.span, "span diverged on {}", name);
                }
                (a, b) => prop_assert!(false, "outcome kind diverged on {}: {:?} vs {:?}", name, a, b),
            }
        }
        prop_assert_eq!(ast.outcome.is_err(), trap);
        // Same bytecode, same metering: exact fuel agreement VM-O2 vs Tier 2.
        prop_assert_eq!(
            vm2.resource_stats.fuel_used,
            jit.resource_stats.fuel_used,
            "fuel accounting diverged between the VM and Tier 2"
        );
        // Anti-vacuity: the tier really compiled this program.
        let tier_stats = jit.tier_stats.expect("jit runs carry tier stats");
        prop_assert!(tier_stats.funcs_tiered >= 1, "tier never compiled: {:?}", tier_stats);
        prop_assert!(tier_stats.blocks >= tier_stats.funcs_tiered);
        for leg in [&ast, &vm0, &vm2] {
            prop_assert!(leg.tier_stats.is_none(), "non-jit runs must not carry tier stats");
        }
    }
}

// ---------------------------------------------------------------------
// Heap byte accounting is an engine invariant: exact `mem_used` bytes
// and R0010 identity agree across the AST interpreter, the VM at O0 and
// O2, and Tier 2, whatever the allocation pattern or byte cap
// ---------------------------------------------------------------------

/// An allocation-churn probe: every iteration allocates a fresh
/// element-specialized array and a fresh object, keeps only an int
/// checksum live, and drops the rest — so cumulative allocation scales
/// with `iters * elems` while the live set stays constant.
fn heap_probe_src(iters: usize, elems: usize) -> String {
    format!(
        "class Box {{
           int v;
           Box(int v) {{ this.v = v; }}
         }}
         int main() {{
           int sum = 0;
           for (int i = 0; i < {iters}; i = i + 1) {{
             int[] a = new int[{elems}];
             a[0] = i;
             Box b = new Box(i);
             sum = sum + a[0] - b.v + 1;
           }}
           return sum;
         }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Byte accounting is charged at source allocation sites, so it is
    /// independent of GC timing and engine representation: all four legs
    /// must report the **same exact `mem_used` byte count**, and when a
    /// byte cap makes the program trap, the same `(R0010, span)` — the
    /// serve-governance guarantee, property-tested. Collections counts
    /// are deliberately NOT compared across engines (safe-point cadence
    /// is an engine choice); instead the AST leg anti-vacuously proves
    /// the collector ran whenever churn was far past the 64 KiB
    /// threshold.
    #[test]
    fn heap_accounting_agrees(
        iters in 50usize..400,
        elems in 1usize..64,
        cap in prop::option::of(5_000u64..50_000),
    ) {
        let src = heap_probe_src(iters, elems);
        let run_on = |engine: genus::Engine, level: u8| {
            let mut c = genus::Compiler::new()
                .engine(engine)
                .opt_level(level)
                .source("heap_probe.genus", src.clone());
            if let Some(bytes) = cap {
                c = c.memory_limit(bytes);
            }
            c.execute().map_err(TestCaseError::fail)
        };
        let ast = run_on(genus::Engine::Ast, 0)?;
        let vm0 = run_on(genus::Engine::Vm, 0)?;
        let vm2 = run_on(genus::Engine::Vm, 2)?;
        let jit = run_on(genus::Engine::Jit, 2)?;
        let legs = [("vm-o0", &vm0), ("vm-o2", &vm2), ("tier2", &jit)];
        for (name, leg) in legs {
            // Exact byte parity, successful run or trap alike: a trap
            // happens at the same charge on every engine, so even the
            // over-the-cap total matches to the byte.
            prop_assert_eq!(
                ast.resource_stats.mem_used,
                leg.resource_stats.mem_used,
                "allocated-byte accounting diverged on {}", name
            );
            match (&ast.outcome, &leg.outcome) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "value diverged on {}", name),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.code(), b.code(), "code diverged on {}", name);
                    prop_assert_eq!(a.span, b.span, "span diverged on {}", name);
                }
                (a, b) => prop_assert!(false, "outcome kind diverged on {}: {:?} vs {:?}", name, a, b),
            }
            prop_assert!(
                leg.resource_stats.peak_bytes >= leg.resource_stats.live_bytes,
                "peak below live on {}", name
            );
        }
        if let (Err(e), Some(bytes)) = (&ast.outcome, cap) {
            prop_assert_eq!(e.code(), "R0010");
            prop_assert!(
                ast.resource_stats.mem_used > bytes,
                "R0010 fired under the cap: {} <= {}", ast.resource_stats.mem_used, bytes
            );
        }
        // Anti-vacuity, GC-timing-agnostic: churn far past the initial
        // 64 KiB threshold with a tiny live set must have collected at
        // least once on the per-step-polling AST engine.
        if cap.is_none() && ast.resource_stats.mem_used > 256 * 1024 {
            prop_assert!(
                ast.resource_stats.collections > 0,
                "{} bytes churned without a collection: {:?}",
                ast.resource_stats.mem_used, ast.resource_stats
            );
        }
    }
}

// ---------------------------------------------------------------------
// Generator-routed parity: the fuzzer's well-typed-by-construction
// program generator drives the same four-way sweeps as the hand-written
// probes, over a much wider grammar (classes, constraints, models with
// use-site `with`, existential pack/open, arrays, loops)
// ---------------------------------------------------------------------

/// Source strategy for the generator sweeps: seeds drawn with a
/// weighted `prop_oneof!` (leaning on the dense low corner), perturbed
/// by a dependent offset via `prop_flat_map`, mapped through
/// [`genus_fuzz::generate`], and `prop_filter`ed down to programs that
/// actually drive a loop — so neither sweep can pass vacuously on a
/// straight-line program.
fn generated_program() -> SBox<String> {
    prop_oneof![
        3 => 0u64..1 << 16,
        1 => (1u64 << 16)..1 << 48,
    ]
    .prop_flat_map(|base| (0u64..8u64).prop_map(move |off| base ^ off))
    .prop_map(genus_fuzz::generate)
    .prop_filter("program drives a loop", |src| src.contains("for ("))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Four-way engine parity over generator output: byte-identical
    /// output, identical outcomes (structural on traps), and exact fuel
    /// agreement between the VM and Tier 2 (same bytecode).
    #[test]
    fn tiers_agree_on_generated_programs(src in generated_program()) {
        let run_on = |engine: genus::Engine, level: u8| {
            genus::Compiler::new()
                .with_stdlib()
                .engine(engine)
                .opt_level(level)
                .fuel(10_000_000)
                .source("gen.genus", src.clone())
                .execute()
                .map_err(TestCaseError::fail)
        };
        let ast = run_on(genus::Engine::Ast, 0)?;
        let vm0 = run_on(genus::Engine::Vm, 0)?;
        let vm2 = run_on(genus::Engine::Vm, 2)?;
        let jit = run_on(genus::Engine::Jit, 2)?;
        for (name, leg) in [("vm-o0", &vm0), ("vm-o2", &vm2), ("tier2", &jit)] {
            prop_assert_eq!(&ast.output, &leg.output, "output diverged on {}", name);
            match (&ast.outcome, &leg.outcome) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "value diverged on {}", name),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.code(), b.code(), "code diverged on {}", name);
                    prop_assert_eq!(a.span, b.span, "span diverged on {}", name);
                }
                (a, b) => prop_assert!(false, "outcome kind diverged on {}: {:?} vs {:?}", name, a, b),
            }
        }
        prop_assert_eq!(
            vm2.resource_stats.fuel_used,
            jit.resource_stats.fuel_used,
            "fuel accounting diverged between the VM and Tier 2"
        );
    }

    /// Exact allocated-byte parity over generator output: byte charges
    /// happen at source allocation sites on every engine, so `mem_used`
    /// must agree to the byte whatever program the generator emits.
    #[test]
    fn heap_accounting_agrees_on_generated_programs(src in generated_program()) {
        let run_on = |engine: genus::Engine, level: u8| {
            genus::Compiler::new()
                .with_stdlib()
                .engine(engine)
                .opt_level(level)
                .fuel(10_000_000)
                .source("gen.genus", src.clone())
                .execute()
                .map_err(TestCaseError::fail)
        };
        let ast = run_on(genus::Engine::Ast, 0)?;
        let vm0 = run_on(genus::Engine::Vm, 0)?;
        let vm2 = run_on(genus::Engine::Vm, 2)?;
        let jit = run_on(genus::Engine::Jit, 2)?;
        // Generated programs allocate (lists, arrays, objects): a zero
        // byte count would make the parity below vacuous.
        prop_assert!(ast.resource_stats.mem_used > 0, "no allocation charged");
        for (name, leg) in [("vm-o0", &vm0), ("vm-o2", &vm2), ("tier2", &jit)] {
            // Traps (the generator's grammar includes fallible division)
            // must also agree structurally, at the same byte count.
            match (&ast.outcome, &leg.outcome) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "value diverged on {}", name),
                (Err(a), Err(b)) => {
                    prop_assert_eq!(a.code(), b.code(), "code diverged on {}", name);
                    prop_assert_eq!(a.span, b.span, "span diverged on {}", name);
                }
                (a, b) => prop_assert!(false, "outcome kind diverged on {}: {:?} vs {:?}", name, a, b),
            }
            prop_assert_eq!(
                ast.resource_stats.mem_used,
                leg.resource_stats.mem_used,
                "allocated-byte accounting diverged on {}", name
            );
            prop_assert!(
                leg.resource_stats.peak_bytes >= leg.resource_stats.live_bytes,
                "peak below live on {}", name
            );
        }
    }
}

// ---------------------------------------------------------------------
// Caching is semantically invisible: cached and uncached pipelines agree
// ---------------------------------------------------------------------

/// Restores the thread-local cache toggle on drop so a failing case
/// cannot leak a disabled-cache state into later cases or tests.
struct CacheGuard(bool);

impl Drop for CacheGuard {
    fn drop(&mut self) {
        genus::set_caches_enabled(self.0);
    }
}

fn with_caches<R>(on: bool, f: impl FnOnce() -> R) -> R {
    let _guard = CacheGuard(genus::caches_enabled());
    genus::set_caches_enabled(on);
    f()
}

/// Compiles on the current thread (the toggle is thread-local, and
/// `Compiler::run` would hop to a fresh interpreter thread with default
/// cache state) and normalizes to `Result<(), String>`.
fn check_outcome(src: &str) -> Result<(), String> {
    genus::Compiler::new()
        .with_stdlib()
        .source("prop.genus", src)
        .compile()
        .map(|_| ())
}

/// Compiles *and interprets* on the current thread so the interpreter's
/// inline caches and dispatch memos obey the toggle too.
fn run_outcome(src: &str) -> Result<(String, String), String> {
    let prog = genus::Compiler::new()
        .with_stdlib()
        .source("prop.genus", src)
        .compile()?;
    let mut interp = genus::Interp::new(&prog);
    let v = interp.run_main().map_err(|e| e.to_string())?;
    Ok((interp.render(&v), interp.take_output()))
}

/// A nested-clone program that forces recursive default-model resolution
/// of `Cloneable[ArrayList[...[Pt]...]]`. With `has_clone` false the
/// chain bottoms out unresolved and checking must fail — identically
/// with and without the memo tables.
fn nested_clone_src(depth: usize, has_clone: bool) -> String {
    let mut ty = "Pt".to_string();
    for _ in 0..depth {
        ty = format!("ArrayList[{ty}]");
    }
    let clone_method = if has_clone {
        "Pt clone() { return new Pt(x); }"
    } else {
        ""
    };
    format!(
        "class Pt {{
           int x;
           Pt(int x) {{ this.x = x; }}
           {clone_method}
         }}
         model ALDC[E] for Cloneable[ArrayList[E]] where Cloneable[E] {{
           ArrayList[E] clone() {{
             ArrayList[E] l = new ArrayList[E]();
             for (E e : this) {{ l.add(e.clone()); }}
             return l;
           }}
         }}
         use ALDC;
         void cloneIt[T](T t) where Cloneable[T] {{ }}
         void main() {{
           {ty} x = null;
           cloneIt(x);
         }}"
    )
}

/// Deep-clones a two-level list through a `use`-resolved model, then
/// mutates the original: exercises virtual dispatch, model (multimethod)
/// dispatch, and recursive resolution in one run.
fn deep_clone_run_src(values: &[i32]) -> String {
    let adds: String = values
        .iter()
        .map(|v| format!("inner.add(new Pt({v})); "))
        .collect();
    format!(
        "class Pt {{
           int x;
           Pt(int x) {{ this.x = x; }}
           Pt clone() {{ return new Pt(x); }}
           int get() {{ return x; }}
         }}
         model ALDC[E] for Cloneable[ArrayList[E]] where Cloneable[E] {{
           ArrayList[E] clone() {{
             ArrayList[E] l = new ArrayList[E]();
             for (E e : this) {{ l.add(e.clone()); }}
             return l;
           }}
         }}
         use ALDC;
         T copy[T](T t) where Cloneable[T] {{ return t.clone(); }}
         void main() {{
           ArrayList[Pt] inner = new ArrayList[Pt]();
           {adds}
           ArrayList[ArrayList[Pt]] outer = new ArrayList[ArrayList[Pt]]();
           outer.add(inner);
           ArrayList[ArrayList[Pt]] snap = copy(outer);
           inner.add(new Pt(999));
           for (ArrayList[Pt] l : snap) {{ for (Pt p : l) {{ print(p.get()); print(\" \"); }} }}
           println(\"|\");
           for (ArrayList[Pt] l : outer) {{ for (Pt p : l) {{ print(p.get()); print(\" \"); }} }}
         }}"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn resolution_outcome_is_cache_independent(depth in 1usize..6, has_clone in any::<bool>()) {
        let src = nested_clone_src(depth, has_clone);
        let uncached = with_caches(false, || check_outcome(&src));
        let cached = with_caches(true, || check_outcome(&src));
        prop_assert_eq!(&uncached, &cached);
        prop_assert_eq!(uncached.is_ok(), has_clone);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn interpretation_is_cache_independent(values in prop::collection::vec(-100i32..100, 0..12)) {
        let src = deep_clone_run_src(&values);
        let uncached = with_caches(false, || run_outcome(&src));
        let cached = with_caches(true, || run_outcome(&src));
        prop_assert_eq!(&uncached, &cached);
        // And both agree with the reference deep-clone semantics: the
        // snapshot does not see the post-clone mutation.
        let (_, output) = uncached.map_err(TestCaseError::fail)?;
        let expect_snap: String = values.iter().map(|v| format!("{v} ")).collect();
        let expect_outer = format!("{expect_snap}999 ");
        let parts: Vec<&str> = output.splitn(2, "|\n").collect();
        prop_assert_eq!(parts[0].trim_end_matches(' '), expect_snap.trim_end_matches(' '));
        prop_assert_eq!(parts[1].trim_end_matches(' '), expect_outer.trim_end_matches(' '));
    }
}

// ---------------------------------------------------------------------
// Incremental sessions agree with from-scratch checks under random edits
// ---------------------------------------------------------------------

/// The shipped samples, as in-repo fixtures for random mutation.
const SAMPLES: [(&str, &str); 7] = [
    ("hello.genus", include_str!("../samples/hello.genus")),
    (
        "word_count.genus",
        include_str!("../samples/word_count.genus"),
    ),
    ("gc_churn.genus", include_str!("../samples/gc_churn.genus")),
    (
        "scheduler.genus",
        include_str!("../samples/scheduler.genus"),
    ),
    (
        "existential_registry.genus",
        include_str!("../samples/existential_registry.genus"),
    ),
    (
        "ci_word_count.genus",
        include_str!("../samples/ci_word_count.genus"),
    ),
    (
        "comparator_sort.genus",
        include_str!("../samples/comparator_sort.genus"),
    ),
];

/// Applies one random edit to `src`: replace a digit, insert a comment,
/// delete a byte, or inject a junk byte. Edits may (and should,
/// sometimes) break parsing or checking — the property is agreement, not
/// validity.
fn random_edit(src: &str, kind: u8, pos: usize, lit: u8) -> String {
    let bytes = src.as_bytes();
    match kind {
        // One-token edit: overwrite a digit with another digit.
        0 => {
            let digits: Vec<usize> = bytes
                .iter()
                .enumerate()
                .filter(|(_, b)| b.is_ascii_digit())
                .map(|(i, _)| i)
                .collect();
            if digits.is_empty() {
                return format!("{src}// no digits\n");
            }
            let at = digits[pos % digits.len()];
            let mut out = src.to_string();
            out.replace_range(at..=at, &format!("{}", lit % 10));
            out
        }
        // Whitespace-equivalent edit: a fresh comment line at the top.
        1 => format!("// edit {lit}\n{src}"),
        // Byte deletion at a line start (often a parse error).
        2 => {
            let starts: Vec<usize> = src
                .char_indices()
                .filter(|(_, c)| c.is_ascii_alphabetic())
                .map(|(i, _)| i)
                .collect();
            if starts.is_empty() {
                return src.to_string();
            }
            let at = starts[pos % starts.len()];
            let mut out = src.to_string();
            out.remove(at);
            out
        }
        // Junk injection (usually a lex/parse error).
        _ => {
            let at = pos % (src.len() + 1);
            let mut out = src.to_string();
            out.insert(at, '@');
            out
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A warm session re-check after a random edit must agree with a
    /// from-scratch check of the edited text — byte-identical
    /// diagnostics (codes, spans, messages, notes) — and, when the edit
    /// still compiles, the session's run must agree with a from-scratch
    /// differential run byte for byte.
    #[test]
    fn incremental_agrees(
        sample in 0usize..SAMPLES.len(),
        kind in 0u8..4,
        pos in 0usize..10_000,
        lit in 0u8..100,
    ) {
        use genus_repro::{CompileSession, Compiler, Engine, Limits};
        let (name, base) = SAMPLES[sample];
        let edited = random_edit(base, kind, pos, lit);

        // Warm path: check the pristine sample, then re-check the edit.
        let mut session = CompileSession::with_stdlib();
        session.update_source(name, base);
        let before_ok = !session.check().has_errors();
        prop_assert!(before_ok, "shipped sample {} must check", name);
        let stats_before = session.stats();
        session.update_source(name, &edited);
        let warm = session.check();
        let stats_after = session.stats();

        // From scratch over the same edited text.
        let scratch = Compiler::new()
            .with_stdlib()
            .source(name, edited.as_str())
            .check_report();
        prop_assert_eq!(&warm.diags, &scratch.diags);

        // Anti-vacuity: the re-check must have actually reused verdicts
        // (at minimum the prelude and stdlib units), except when a parse
        // error short-circuits checking entirely, or when the edit
        // changed a top-level header (e.g. mangled a model name) — then
        // the global environment is rebuilt and zero reuse is the
        // *correct* incremental answer, visible as a prefix rebuild.
        let parsed_ok = !warm.diags.iter().any(|d| {
            genus_common::codes::lookup(d.code)
                .is_some_and(|c| c.phase == "lex" || c.phase == "parse")
        });
        if parsed_ok {
            prop_assert!(
                stats_after.units_not_rechecked() > stats_before.units_not_rechecked()
                    || stats_after.prefix_rebuilt > stats_before.prefix_rebuilt,
                "no verdict reused across the edit: {:?} -> {:?}",
                stats_before,
                stats_after
            );
        }

        // Clean edits also run identically, warm vs scratch.
        if !warm.has_errors() {
            let limits = Limits { fuel: Some(2_000_000), ..Limits::default() };
            let warm_run = session.run(Engine::Vm, limits);
            let scratch_run = Compiler::new()
                .with_stdlib()
                .engine(Engine::Vm)
                .limits(limits)
                .source(name, edited.as_str())
                .run();
            prop_assert_eq!(warm_run, scratch_run);
        }
    }
}
