//! The paper's Table 1 (§8.3) on the engines.
//!
//! `samples/table1_sorts.genus` holds the twelve insertion sorts: three
//! kinds of genericity over four kinds of data. This module derives one
//! program per cell from it (the sample's declarations plus a one-line
//! `main`), runs each on three configurations and checks the paper's
//! shape claims on fuel, which is exact and does not depend on the host:
//!
//! * VM-O0 is the homogeneous translation (§7.2): generic code passes
//!   its models as dictionaries through `Op::CallModel`. It is the
//!   paper's "Genus" column.
//! * VM-O2 and Tier 2 run the specialized translation (§7.3), the
//!   paper's bracketed column. They run the same bytecode, so their fuel
//!   must be equal.
//!
//! No engine runs Java, so the paper's erasure column has no
//! counterpart; the non-generic `Num[]` cell (boxed elements, no
//! dictionaries) is the closest one.

use genus::{compile_optimized, compile_tier, Compiler, Vm};
use std::sync::Arc;
use std::time::Instant;

/// The sample every cell program is derived from.
const SAMPLE: &str = include_str!("../samples/table1_sorts.genus");

/// The seed of the sample's own inputs, and the report's.
pub const SEED: u32 = 7;

/// How generic a cell's sort is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    NonGeneric,
    Comparable,
    ArrayLike,
}

/// What a cell sorts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Data {
    Doubles,
    Nums,
    List,
    NumList,
}

impl Kind {
    pub fn label(self) -> &'static str {
        match self {
            Kind::NonGeneric => "non-generic",
            Kind::Comparable => "Comparable",
            Kind::ArrayLike => "ArrayLike",
        }
    }
}

impl Data {
    pub fn label(self) -> &'static str {
        match self {
            Data::Doubles => "double[]",
            Data::Nums => "Num[]",
            Data::List => "ArrayList[double]",
            Data::NumList => "ArrayList[Num]",
        }
    }

    /// The sample's builder and checksum function for this data.
    fn parts(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Data::Doubles => ("double[]", "", "sumDoubles"),
            Data::Nums => ("Num[]", "boxed", "sumNums"),
            Data::List => ("ArrayList[double]", "listed", "sumList"),
            Data::NumList => ("ArrayList[Num]", "boxedList", "sumNumList"),
        }
    }
}

/// The three kinds of genericity, in row order.
pub const KINDS: [Kind; 3] = [Kind::NonGeneric, Kind::Comparable, Kind::ArrayLike];

/// The four kinds of data, in row order.
pub const DATA: [Data; 4] = [Data::Doubles, Data::Nums, Data::List, Data::NumList];

/// One row of the table: a sort call of the sample over one kind of data.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub kind: Kind,
    pub data: Data,
    /// The callee, with its type arguments and models.
    pub sort: &'static str,
}

const fn cell(kind: Kind, data: Data, sort: &'static str) -> Cell {
    Cell { kind, data, sort }
}

/// The twelve cells, in the paper's row order.
pub const CELLS: [Cell; 12] = [
    cell(Kind::NonGeneric, Data::Doubles, "t1sortDoubles"),
    cell(Kind::NonGeneric, Data::Nums, "t1sortNums"),
    cell(Kind::NonGeneric, Data::List, "t1sortList"),
    cell(Kind::NonGeneric, Data::NumList, "t1sortNumList"),
    cell(Kind::Comparable, Data::Doubles, "t1sortArray[double]"),
    cell(Kind::Comparable, Data::Nums, "t1sortArray[Num]"),
    cell(Kind::Comparable, Data::List, "t1sortArrayList[double]"),
    cell(Kind::Comparable, Data::NumList, "t1sortArrayList[Num]"),
    cell(
        Kind::ArrayLike,
        Data::Doubles,
        "t1sortLike[double[], double with ArrAL[double]]",
    ),
    cell(
        Kind::ArrayLike,
        Data::Nums,
        "t1sortLike[Num[], Num with ArrAL[Num]]",
    ),
    cell(
        Kind::ArrayLike,
        Data::List,
        "t1sortLike[ArrayList[double], double with ListAL[double]]",
    ),
    cell(
        Kind::ArrayLike,
        Data::NumList,
        "t1sortLike[ArrayList[Num], Num with ListAL[Num]]",
    ),
];

/// The sample's declarations: everything above its `main`.
fn declarations() -> &'static str {
    let end = SAMPLE
        .find("\nvoid main()")
        .expect("the Table 1 sample ends with its main");
    &SAMPLE[..end]
}

/// The program of one cell: build the data from `n` inputs drawn from
/// `seed`, sort it with `sort` (none for a set-up-only program) and
/// return the checksum.
fn program(data: Data, sort: Option<&str>, n: usize, seed: u32) -> String {
    let (ty, build, sum) = data.parts();
    let sort = sort.map(|s| format!(" {s}(a);")).unwrap_or_default();
    format!(
        "{}\ndouble main() {{ {ty} a = {build}(input({n}, {seed}));{sort} return {sum}(a); }}\n",
        declarations()
    )
}

/// The program of `cell` over `n` inputs drawn from `seed`.
pub fn cell_program(cell: &Cell, n: usize, seed: u32) -> String {
    program(cell.data, Some(cell.sort), n, seed)
}

/// The set-up of every `data` cell without its sort: what is subtracted
/// from a cell's fuel to leave the sort's own.
fn setup_program(data: Data, n: usize, seed: u32) -> String {
    program(data, None, n, seed)
}

/// The sample's `input(n, seed)`, computed in Rust.
fn input(n: usize, seed: u32) -> Vec<f64> {
    let mut s = i64::from(seed);
    (0..n)
        .map(|_| {
            s = (s * 75 + 74) % 65537;
            s as f64 / 64.0
        })
        .collect()
}

/// The reference checksum `sum((i + 1) * sorted[i])`, sorted by Rust.
/// Every input is a multiple of 1/64 below 1024, so for any length the
/// table uses the sum is exact and the engines must match it bit for bit.
pub fn checksum(n: usize, seed: u32) -> f64 {
    let mut v = input(n, seed);
    v.sort_by(f64::total_cmp);
    v.iter()
        .enumerate()
        .fold(0.0, |s, (i, x)| s + (i + 1) as f64 * x)
}

/// The configurations each cell runs on, in column order.
const CONFIGS: [&str; 3] = ["VM-O0", "VM-O2", "Tier 2"];

/// One program's runs on the three configurations.
#[derive(Debug, Clone, Copy, Default)]
pub struct Runs {
    /// Median wall time of `main`, per configuration.
    pub ms: [f64; 3],
    /// Fuel used, per configuration.
    pub fuel: [u64; 3],
}

/// Compiles `src` once, then runs `main` `reps` times on each
/// configuration. Every run must return `want` (when given), and Tier 2
/// must use exactly VM-O2's fuel.
///
/// # Errors
///
/// Returns a description of a compile error, a trap, a wrong checksum
/// or a fuel mismatch.
pub fn run(src: &str, reps: usize, want: Option<f64>) -> Result<Runs, String> {
    let prog = Compiler::new()
        .with_stdlib()
        .source("table1.genus", src)
        .compile()?;
    let o0 = Arc::new(compile_optimized(&prog, 0));
    let o2 = Arc::new(compile_optimized(&prog, 2));
    let tier = compile_tier(&o2);
    let mut runs = Runs::default();
    for (c, config) in CONFIGS.into_iter().enumerate() {
        let mut times = Vec::with_capacity(reps);
        for _ in 0..reps.max(1) {
            let mut vm = Vm::with_code(&prog, Arc::clone(if c == 0 { &o0 } else { &o2 }));
            let start = Instant::now();
            let v = if c == 2 {
                vm.run_main_tier(&tier)
            } else {
                vm.run_main()
            };
            times.push(start.elapsed().as_secs_f64() * 1e3);
            let v = v.map_err(|e| format!("{config} traps: {e}"))?;
            let got = vm.render(&v);
            if let Some(want) = want.filter(|w| got.parse::<f64>().ok() != Some(*w)) {
                return Err(format!("{config} prints {got}, Rust's sort gives {want}"));
            }
            runs.fuel[c] = vm.resource_stats().fuel_used;
        }
        times.sort_by(f64::total_cmp);
        runs.ms[c] = times[times.len() / 2];
    }
    if runs.fuel[1] != runs.fuel[2] {
        return Err(format!(
            "Tier 2 uses {} fuel, VM-O2 {}",
            runs.fuel[2], runs.fuel[1]
        ));
    }
    Ok(runs)
}

/// One measured cell: its runs, and the sort's own fuel per
/// configuration (the set-up program's subtracted).
#[derive(Debug, Clone, Copy)]
pub struct Row {
    pub cell: Cell,
    pub runs: Runs,
    pub sort_fuel: [u64; 3],
}

/// The measured table.
#[derive(Debug, Clone)]
pub struct Table {
    pub n: usize,
    pub rows: Vec<Row>,
}

/// Measures every cell over `n` inputs with `reps` runs per
/// configuration, checking each checksum against Rust's sort.
///
/// # Errors
///
/// Returns the first cell that fails [`run`], labelled.
pub fn measure(n: usize, reps: usize) -> Result<Table, String> {
    let mut setup = Vec::new();
    for data in DATA {
        let runs = run(&setup_program(data, n, SEED), 1, None)
            .map_err(|e| format!("set-up of {}: {e}", data.label()))?;
        setup.push((data, runs.fuel));
    }
    let want = checksum(n, SEED);
    let mut rows = Vec::new();
    for cell in CELLS {
        let runs = run(&cell_program(&cell, n, SEED), reps, Some(want))
            .map_err(|e| format!("{} {}: {e}", cell.kind.label(), cell.data.label()))?;
        let base = setup
            .iter()
            .find(|(d, _)| *d == cell.data)
            .expect("set-up")
            .1;
        let sort_fuel = std::array::from_fn(|c| {
            runs.fuel[c]
                .checked_sub(base[c])
                .expect("a cell runs its set-up and then sorts")
        });
        rows.push(Row {
            cell,
            runs,
            sort_fuel,
        });
    }
    Ok(Table { n, rows })
}

/// One of the paper's shape claims, evaluated.
#[derive(Debug, Clone)]
pub struct Claim {
    pub name: &'static str,
    pub holds: bool,
    /// The numbers it was decided on.
    pub detail: String,
}

/// The widest gap the paper still calls acceptable: unspecialized Genus
/// (`ArrayList[Double]`, 14.5 s) against Java's erasure (9.6 s). Claim 4
/// holds the naive cell to it, and claim 1 holds every specialized cell
/// to it. EXPERIMENTS.md T1 explains both uses.
pub const PAPER_ACCEPTABLE: f64 = 14.5 / 9.6;

impl Table {
    /// The sort's own fuel of a cell at configuration column `c`.
    pub fn fuel(&self, kind: Kind, data: Data, c: usize) -> u64 {
        self.rows
            .iter()
            .find(|r| r.cell.kind == kind && r.cell.data == data)
            .expect("every cell is measured")
            .sort_fuel[c]
    }

    /// The paper's four shape claims, decided on the sorts' own fuel.
    pub fn claims(&self) -> Vec<Claim> {
        let f = |k, d, c| self.fuel(k, d, c) as f64;

        // 1. Specialization recovers the baseline: at O2 every generic
        // cell is within the acceptable factor of its non-generic row,
        // no cell's excess over that row grows, and more than half of
        // O0's excess, summed over the generic cells, is gone.
        let mut holds = true;
        let mut detail = String::new();
        let (mut total0, mut total2) = (0.0, 0.0);
        for data in DATA {
            let base0 = f(Kind::NonGeneric, data, 0);
            let base2 = f(Kind::NonGeneric, data, 1);
            for kind in [Kind::Comparable, Kind::ArrayLike] {
                let ratio = f(kind, data, 1) / base2;
                let (excess0, excess2) = (f(kind, data, 0) - base0, f(kind, data, 1) - base2);
                holds &= ratio <= PAPER_ACCEPTABLE && excess2 <= excess0;
                (total0, total2) = (total0 + excess0, total2 + excess2);
                detail += &format!(
                    "  {} {}: O2 {ratio:.2}x its row (<= {PAPER_ACCEPTABLE:.2}); excess over it O0 {excess0} >= O2 {excess2}\n",
                    kind.label(),
                    data.label()
                );
            }
        }
        holds &= total2 < total0 / 2.0;
        detail += &format!("  summed excess: O2 {total2} < half of O0 {total0}\n");
        let mut claims = vec![Claim {
            name: "specialization recovers the baseline",
            holds,
            detail,
        }];

        // 2. Primitive type arguments beat boxed ones without
        // specialization.
        let mut holds = true;
        let mut detail = String::new();
        for kind in KINDS {
            let (prim, boxed) = (f(kind, Data::List, 0), f(kind, Data::NumList, 0));
            holds &= prim < boxed;
            detail += &format!(
                "  {} at O0: ArrayList[double] {prim} < ArrayList[Num] {boxed}\n",
                kind.label()
            );
        }
        claims.push(Claim {
            name: "primitive type arguments beat boxed ones without specialization",
            holds,
            detail,
        });

        // 3. Genericity costs without specialization.
        let mut holds = true;
        let mut detail = String::new();
        for data in DATA {
            let [ng, cmp, like] = KINDS.map(|k| f(k, data, 0));
            holds &= ng <= cmp && cmp <= like && ng < like;
            detail += &format!(
                "  {} at O0: {ng} <= {cmp} <= {like}, first < last\n",
                data.label()
            );
        }
        claims.push(Claim {
            name: "genericity costs without specialization",
            holds,
            detail,
        });

        // 4. Naive Genus is acceptable.
        let naive = f(Kind::Comparable, Data::NumList, 0);
        let erased = f(Kind::NonGeneric, Data::Nums, 0);
        let ratio = naive / erased;
        claims.push(Claim {
            name: "naive Genus is acceptable",
            holds: ratio <= PAPER_ACCEPTABLE,
            detail: format!(
                "  at O0: Comparable ArrayList[Num] {naive} / non-generic Num[] {erased} = {ratio:.2}x (<= {PAPER_ACCEPTABLE:.2})\n"
            ),
        });
        claims
    }

    /// The table as text: one row per cell, median ms and the sort's own
    /// fuel per configuration.
    pub fn render(&self) -> String {
        let mut s = format!(
            "Table 1 on the engines: n = {}, ms = median wall time of main, fuel = the sort's own\n",
            self.n
        );
        s += &format!(
            "{:<31}{:>10}{:>10}{:>10}{:>12}{:>12}\n",
            "cell", "O0 ms", "O2 ms", "Tier2 ms", "O0 fuel", "O2/T2 fuel"
        );
        for r in &self.rows {
            s += &format!(
                "{:<31}{:>10.3}{:>10.3}{:>10.3}{:>12}{:>12}\n",
                format!("{} {}", r.cell.kind.label(), r.cell.data.label()),
                r.runs.ms[0],
                r.runs.ms[1],
                r.runs.ms[2],
                r.sort_fuel[0],
                r.sort_fuel[1]
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_sample_main_runs_every_cell() {
        let main = &SAMPLE[declarations().len()..];
        for cell in CELLS {
            assert!(main.contains(&format!("{}(", cell.sort)), "{}", cell.sort);
        }
    }
}
