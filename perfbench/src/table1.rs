//! `table1_sort`: the paper's Table 1 (§8.3) insertion sorts, written as
//! Genus source and run on our engines.
//!
//! Nine programs: three kinds of genericity (non-generic, `Comparable[T]`,
//! and a user `ArrayLike[A,T]` with `Comparable[T]`) over three kinds of
//! data (`double[]`, an array of a boxed user class, `ArrayList[double]`).
//! Each runs on the VM at O2 and on Tier 2. All nine are compiled once in
//! set-up; an op runs one (program, engine) pair and returns a checksum
//! of the sorted data that Rust computes independently.

use crate::driver::Workload;
use crate::trace::Tracer;
use genus::Compiler;
use genus_check::CheckedProgram;
use genus_common::SplitMix64;
use genus_interp::RuntimeError;
use genus_vm::{compile_optimized, compile_tier, TierProgram, Vm};
use std::fmt::Write as _;
use std::sync::Arc;

/// Elements sorted per op: large enough that sorting dominates the
/// run, small enough for thousands of ops per run.
pub const N: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NonGeneric,
    Comparable,
    ArrayLike,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Doubles,
    Boxed,
    List,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Eng {
    Vm,
    Jit,
}

pub const KINDS: [Kind; 3] = [Kind::NonGeneric, Kind::Comparable, Kind::ArrayLike];
pub const DATA: [Data; 3] = [Data::Doubles, Data::Boxed, Data::List];

/// `n` distinct seeded doubles. Each is a multiple of 1/1024 below 1024,
/// so every partial sum of the checksum is exact in binary floating
/// point and the engines and Rust must agree to the last bit.
///
/// The seed picks the values; their order follows one fixed random
/// pattern, so every seed costs an insertion sort the same compares and
/// moves and the seed does not move the timings.
pub fn input(seed: u64, n: usize) -> Vec<f64> {
    let mut rng = SplitMix64::new(seed ^ 0x7AB1_E1D0);
    let mut values = std::collections::BTreeSet::new();
    while values.len() < n {
        values.insert(rng.below(1 << 20));
    }
    let sorted: Vec<u64> = values.into_iter().collect();
    let mut order: Vec<usize> = (0..n).collect();
    crate::sys::shuffle(&mut order, &mut SplitMix64::new(0x0D3E_2A77));
    order.iter().map(|&k| sorted[k] as f64 / 1024.0).collect()
}

/// The reference: `sum((i + 1) * sorted[i])`, computed in Rust.
pub fn checksum(input: &[f64]) -> f64 {
    let mut v = input.to_vec();
    v.sort_by(f64::total_cmp);
    v.iter()
        .enumerate()
        .fold(0.0, |s, (i, x)| s + (i + 1) as f64 * x)
}

const NUM_CLASS: &str = "
class Num {
    double v;
    Num(double v) { this.v = v; }
    int compareTo(Num o) {
        if (v < o.v) { return -1; }
        if (v > o.v) { return 1; }
        return 0;
    }
    boolean equals(Num o) { return v == o.v; }
}
";

const ARRAY_LIKE: &str = "
constraint ArrayLike[A, T] {
    T A.at(int i);
    void A.put(int i, T v);
    int A.len();
}
model ArrAL[T] for ArrayLike[T[], T] {
    T T[].at(int i) { return this[i]; }
    void T[].put(int i, T v) { this[i] = v; }
    int T[].len() { return this.length; }
}
model ListAL[T] for ArrayLike[ArrayList[T], T] {
    T ArrayList[T].at(int i) { return this.get(i); }
    void ArrayList[T].put(int i, T v) { this.set(i, v); }
    int ArrayList[T].len() { return this.size(); }
}
";

/// The insertion sort for one configuration: its signature, the element
/// type of the key, and the three element operations.
fn sort_fn(kind: Kind, data: Data) -> String {
    let elem = match data {
        Data::Doubles => "double",
        Data::Boxed => "Num",
        Data::List => "double",
    };
    let (sig, key_ty, len, get, set) = match (kind, data) {
        (Kind::NonGeneric, Data::List) => (
            "void t1sort(ArrayList[double] a)".to_string(),
            "double",
            "a.size()",
            "a.get(#)",
            "a.set(#, @)",
        ),
        (Kind::NonGeneric, _) => (
            format!("void t1sort({elem}[] a)"),
            elem,
            "a.length",
            "a[#]",
            "a[#] = @",
        ),
        (Kind::Comparable, Data::List) => (
            "void t1sort[T](ArrayList[T] a) where Comparable[T]".to_string(),
            "T",
            "a.size()",
            "a.get(#)",
            "a.set(#, @)",
        ),
        (Kind::Comparable, _) => (
            "void t1sort[T](T[] a) where Comparable[T]".to_string(),
            "T",
            "a.length",
            "a[#]",
            "a[#] = @",
        ),
        (Kind::ArrayLike, _) => (
            "void t1sort[A, T](A a) where ArrayLike[A, T], Comparable[T]".to_string(),
            "T",
            "a.len()",
            "a.at(#)",
            "a.put(#, @)",
        ),
    };
    let greater = if kind == Kind::NonGeneric && data != Data::Boxed {
        format!("{} > key", get.replace('#', "j"))
    } else {
        format!("{}.compareTo(key) > 0", get.replace('#', "j"))
    };
    format!(
        "{sig} {{
    int n = {len};
    for (int i = 1; i < n; i = i + 1) {{
        {key_ty} key = {get_i};
        int j = i - 1;
        while (j >= 0 && {greater}) {{
            {shift};
            j = j - 1;
        }}
        {place};
    }}
}}
",
        get_i = get.replace('#', "i"),
        shift = set
            .replace('#', "j + 1")
            .replace('@', &get.replace('#', "j")),
        place = set.replace('#', "j + 1").replace('@', "key"),
    )
}

/// The whole program for one configuration over `input`. The input is
/// written into the source as a `fill` function, so the program receives
/// the generated data and nothing else.
pub fn source(kind: Kind, data: Data, input: &[f64]) -> String {
    let n = input.len();
    let mut s = String::with_capacity(32 * n + 2048);
    if data == Data::Boxed {
        s.push_str(NUM_CLASS);
    }
    if kind == Kind::ArrayLike {
        s.push_str(ARRAY_LIKE);
    }
    s.push_str(&sort_fn(kind, data));
    s.push_str("void fill(double[] a) {\n");
    for (i, x) in input.iter().enumerate() {
        let _ = writeln!(s, "    a[{i}] = {x:?};");
    }
    s.push_str("}\n");
    let (build, elem) = match data {
        Data::Doubles => ("double[] a = raw;".to_string(), "a[i]"),
        Data::Boxed => (
            format!("Num[] a = new Num[{n}];\n    for (int i = 0; i < {n}; i = i + 1) {{ a[i] = new Num(raw[i]); }}"),
            "a[i].v",
        ),
        Data::List => (
            format!("ArrayList[double] a = new ArrayList[double]();\n    for (int i = 0; i < {n}; i = i + 1) {{ a.add(raw[i]); }}"),
            "a.get(i)",
        ),
    };
    let call = match (kind, data) {
        (Kind::ArrayLike, Data::Doubles) => "t1sort[double[], double with ArrAL[double]](a);",
        (Kind::ArrayLike, Data::Boxed) => "t1sort[Num[], Num with ArrAL[Num]](a);",
        (Kind::ArrayLike, Data::List) => {
            "t1sort[ArrayList[double], double with ListAL[double]](a);"
        }
        _ => "t1sort(a);",
    };
    let _ = write!(
        s,
        "double main() {{
    double[] raw = new double[{n}];
    fill(raw);
    {build}
    {call}
    double s = 0.0;
    for (int i = 0; i < {n}; i = i + 1) {{ s = s + (i + 1) * {elem}; }}
    return s;
}}
"
    );
    s
}

/// One program, checked with the stdlib and compiled for both engines.
pub struct Compiled {
    pub prog: CheckedProgram,
    pub tier: TierProgram,
}

/// Checks and compiles `src` (VM bytecode at O2, then Tier 2).
pub fn compile(src: &str) -> Compiled {
    let mut report = Compiler::new()
        .with_stdlib()
        .source("table1.genus", src)
        .check_report();
    let prog = report.program.take().unwrap_or_else(|| {
        panic!(
            "Table 1 program must check:\n{}",
            report.render_errors_short()
        )
    });
    let code = Arc::new(compile_optimized(&prog, 2));
    let tier = compile_tier(&code);
    Compiled { prog, tier }
}

/// The inputs and references of one seed: made before set-up, untimed.
#[derive(Clone)]
pub struct Prep {
    pub sources: Vec<String>,
    /// Reference checksum per program (all equal: one input, sorted).
    pub expected: Vec<f64>,
    /// The cycle: (program, engine) pairs in seeded order.
    pub seq: Vec<(usize, Eng)>,
}

pub fn prepare(seed: u64) -> Prep {
    let input = input(seed, N);
    let mut sources = Vec::new();
    for kind in KINDS {
        for data in DATA {
            sources.push(source(kind, data, &input));
        }
    }
    // Every pair once, plus the headline pair (Comparable over double[]
    // on Tier 2) a second time: an odd number of equally weighted ops
    // puts the median inside one pair's cluster rather than on the edge
    // between two.
    let mut seq: Vec<(usize, Eng)> = (0..sources.len())
        .flat_map(|p| [(p, Eng::Vm), (p, Eng::Jit)])
        .collect();
    seq.push((3, Eng::Jit));
    crate::sys::shuffle(&mut seq, &mut SplitMix64::new(seed ^ 0x5E9));
    let sum = checksum(&input);
    Prep {
        expected: vec![sum; sources.len()],
        sources,
        seq,
    }
}

pub struct Table1 {
    prep: Prep,
    progs: Vec<Compiled>,
}

impl Table1 {
    /// The timed set-up: compile every program.
    pub fn setup(prep: Prep) -> Table1 {
        let progs = prep.sources.iter().map(|s| compile(s)).collect();
        Table1 { prep, progs }
    }

    #[cfg(test)]
    pub fn prep(&self) -> &Prep {
        &self.prep
    }

    /// Hands the inputs back so another set-up can reuse them.
    pub fn into_prep(self) -> Prep {
        self.prep
    }

    /// Replaces one program's reference with a wrong value, so every op
    /// that runs the program must be reported as failed.
    #[cfg(test)]
    pub fn plant_wrong_reference(&mut self, program: usize) {
        self.prep.expected[program] += 1.0;
    }
}

impl Workload for Table1 {
    type Out = Result<String, RuntimeError>;

    fn cycle_len(&self) -> usize {
        self.prep.seq.len()
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Self::Out {
        let (p, eng) = self.prep.seq[i];
        let c = &self.progs[p];
        let mut vm = Vm::with_code(&c.prog, Arc::clone(c.tier.code()));
        let outcome = match eng {
            Eng::Vm => tr.span("exec.vm", || vm.run_main()),
            Eng::Jit => tr.span("exec.jit", || vm.run_main_tier(&c.tier)),
        }
        .map(|v| vm.render(&v));
        if tr.on() {
            let r = vm.resource_stats();
            let d = vm.dispatch_stats();
            tr.count(
                if eng == Eng::Vm {
                    "fuel.vm"
                } else {
                    "fuel.jit"
                },
                r.fuel_used as f64,
            );
            tr.count("heap_bytes", r.mem_used as f64);
            tr.count("collections", r.collections as f64);
            tr.max("peak_live_bytes", r.peak_bytes as f64);
            tr.count("ic_hits", d.ic_hits as f64);
            tr.count("ic_misses", d.ic_misses as f64);
        }
        tr.span("teardown", || drop(vm));
        outcome
    }

    fn check(&mut self, i: usize, out: &Self::Out) -> bool {
        let want = self.prep.expected[self.prep.seq[i].0];
        matches!(out, Ok(v) if v.parse::<f64>().ok() == Some(want))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{measure, warm_up};
    use std::time::Instant;

    #[test]
    fn every_configuration_sorts_on_both_engines() {
        let input = input(7, 40);
        let want = checksum(&input);
        for kind in KINDS {
            for data in DATA {
                let c = compile(&source(kind, data, &input));
                let mut vm = Vm::with_code(&c.prog, Arc::clone(c.tier.code()));
                let v = vm.run_main().expect("vm run");
                assert_eq!(
                    vm.render(&v).parse::<f64>().ok(),
                    Some(want),
                    "{kind:?}/{data:?}"
                );
                let mut vm = Vm::with_code(&c.prog, Arc::clone(c.tier.code()));
                let v = vm.run_main_tier(&c.tier).expect("tier run");
                assert_eq!(
                    vm.render(&v).parse::<f64>().ok(),
                    Some(want),
                    "{kind:?}/{data:?}"
                );
            }
        }
    }

    #[test]
    fn planted_wrong_reference_counts_failed_ops() {
        let mut w = Table1::setup(prepare(3));
        let mut tr = Tracer::new(Instant::now());
        warm_up(&mut w, &mut tr);
        assert_eq!(measure(&mut w, 0.0, false, &mut tr, || {}).failed, 0);
        w.plant_wrong_reference(4);
        let uses = w.prep().seq.iter().filter(|(p, _)| *p == 4).count() as u64;
        let s = measure(&mut w, 0.0, false, &mut tr, || {});
        assert_eq!(s.failed, uses * s.cycles as u64);
        assert!(s.failed > 0 && s.failed < s.attempted());
    }
}
