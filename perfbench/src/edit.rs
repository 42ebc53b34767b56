//! `edit_loop`: one long-lived stdlib-seeded checker session over a
//! four-unit project that uses `import`, the warm incremental path:
//! verdict reuse and prefix patching. An op applies one seeded edit,
//! parses the edited unit and seeds the parse into the session, checks,
//! lowers and optimizes the program at O2, compiles it for Tier 2 and
//! runs it there. The session is the one `CompileSession::with_stdlib()`
//! wraps; its pipeline is spelled out here so that every layer of it
//! gets its own span.
//!
//! Most edits change one literal inside a function body. Every fifth is
//! a signature edit of `geom`, which every other unit imports, so its
//! dependents are re-checked. Each edit writes a value never seen before
//! (it carries the op's sequence number), so no edit can be answered by
//! restoring an old verdict. Values only reach the printed result, never
//! a branch.
//!
//! A cycle is a fixed pattern of 30 edits, three times over; the seed
//! picks the edited values. The session's verdict cache evicts in
//! insertion order, and in some rounds of the pattern signature edits
//! find the stdlib's verdicts evicted and re-check all nine units instead
//! of four. After warm-up that repeats exactly every 90 edits, so every
//! op of a cycle does the same work in every cycle.

use crate::driver::Workload;
use crate::trace::Tracer;
use genus_check::{Session, SessionStats};
use genus_common::{Diagnostic, FileId, SplitMix64};
use genus_fuzz::pipeline::{run_ast, stdlib_session, Leg};
use genus_interp::Limits;
use genus_syntax::parse_unit;
use genus_vm::{compile_program, compile_tier, optimize, Vm};
use std::sync::Arc;

/// Unit names, in the order the session registers them.
pub const UNITS: [&str; 4] = ["geom.genus", "order.genus", "stats.genus", "main.genus"];

/// Edits in the seeded pattern; six of them are signature edits (a
/// multiple of the three signature variants, so the project text
/// repeats its shape every pattern).
const PATTERN: usize = 30;
const SIG_EDITS: usize = 6;

/// Ops per cycle: the pattern three times, the period of the verdict
/// cache's evictions.
pub const CYCLE: usize = 3 * PATTERN;

/// Shuffles the pattern into one fixed order. The period of the evictions
/// depends on the order (some orders repeat only every five cycles), so
/// the order is fixed to one whose period is a cycle, and the seed picks
/// the edited values, as it picks the values of `table1_sort`.
const PATTERN_ORDER: u64 = 0xED14;

/// Ops run untimed before measuring: past the session's parse-cache
/// (256) and verdict-cache (128) capacities, so memory has reached its
/// plateau and the evictions their period.
const WARMUP_OPS: usize = 600;

/// The editable state of the project.
#[derive(Debug, Clone)]
pub struct Project {
    /// The literal `tune<Unit>()` returns, per unit.
    tune: [u64; 4],
    /// Parameters of `geom`'s `extra` (1 to 3) and its revision mark.
    sig_params: usize,
    sig_rev: u64,
}

/// Six digits whatever `n` is, so token counts and printed lengths stay
/// the same as values change.
fn six_digits(n: u64) -> u64 {
    100_000 + n % 100_000
}

impl Project {
    fn new() -> Project {
        Project {
            tune: [six_digits(1), six_digits(2), six_digits(3), six_digits(4)],
            sig_params: 1,
            sig_rev: six_digits(0),
        }
    }

    /// Source of unit `u`.
    pub fn source(&self, u: usize) -> String {
        match u {
            0 => {
                let params: Vec<String> =
                    (0..self.sig_params).map(|k| format!("int a{k}")).collect();
                format!(
                    "class Pt {{
    int x;
    int y;
    Pt(int x, int y) {{ this.x = x; this.y = y; }}
    int dot(Pt o) {{ return x * o.x + y * o.y; }}
}}
int tuneGeom() {{ return {}; }}
int extra({}) /* rev {} */ {{ return a0; }}
",
                    self.tune[0],
                    params.join(", "),
                    self.sig_rev
                )
            }
            1 => format!(
                "import geom;
constraint Ranked[T] {{ int T.rank(); }}
model PtRank for Ranked[Pt] {{ int rank() {{ return this.x * 3 + this.y; }} }}
int maxRank[T](ArrayList[T] l) where Ranked[T] {{
    int best = -1000000;
    for (int i = 0; i < l.size(); i = i + 1) {{
        int r = l.get(i).rank();
        if (r > best) {{ best = r; }}
    }}
    return best;
}}
int tuneOrder() {{ return {}; }}
",
                self.tune[1]
            ),
            2 => format!(
                "import geom;
int sumDots(ArrayList[Pt] l) {{
    int s = 0;
    for (int i = 0; i + 1 < l.size(); i = i + 1) {{ s = s + l.get(i).dot(l.get(i + 1)); }}
    return s;
}}
int tuneStats() {{ return {}; }}
",
                self.tune[2]
            ),
            _ => format!(
                "import geom;
import order;
import stats;
int tuneMain() {{ return {}; }}
int main() {{
    ArrayList[Pt] l = new ArrayList[Pt]();
    for (int i = 0; i < 60; i = i + 1) {{ l.add(new Pt((i * 37) % 101, (i * 53) % 89)); }}
    int a = maxRank[Pt with PtRank](l);
    int b = sumDots(l);
    println(a);
    println(b);
    println(tuneGeom() + tuneOrder() + tuneStats() + tuneMain());
    return a + b;
}}
",
                self.tune[3]
            ),
        }
    }
}

/// One edit: a body edit of a unit, or a signature edit of `geom`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Edit {
    Body(usize),
    Signature,
}

#[derive(Clone)]
pub struct Prep {
    pub seq: Vec<Edit>,
    /// Salt mixed into edited values: what the seed decides.
    salt: u64,
}

pub fn prepare(seed: u64) -> Prep {
    let mut pattern: Vec<Edit> = (0..PATTERN - SIG_EDITS)
        .map(|k| Edit::Body(k % 4))
        .collect();
    pattern.extend(std::iter::repeat_n(Edit::Signature, SIG_EDITS));
    crate::sys::shuffle(&mut pattern, &mut SplitMix64::new(PATTERN_ORDER));
    Prep {
        seq: pattern.repeat(CYCLE / PATTERN),
        salt: SplitMix64::new(seed ^ 0xED17).below(50_000),
    }
}

pub struct EditLoop {
    prep: Prep,
    session: Session,
    /// The session's file of each unit in `UNITS`.
    files: [FileId; 4],
    project: Project,
    /// Ops applied so far (warm-up included): the source of fresh values.
    n: u64,
    /// Reference tampering for the planted-failure test.
    #[cfg(test)]
    planted: Option<usize>,
}

/// A fresh stdlib session over the project's sources, checked.
fn checked_session(project: &Project) -> (Session, Vec<Diagnostic>) {
    let mut session = stdlib_session();
    for (u, name) in UNITS.iter().enumerate() {
        session.update_source(name, &project.source(u));
    }
    let diags = session.check().diags;
    (session, diags)
}

/// Runs `main()` of the session's program on Tier 2, recording the
/// execution counts when tracing.
fn run_jit(session: &Session, tr: &mut Tracer) -> Option<Leg> {
    let prog = session.program()?;
    let mut code = tr.span("vm.lower", || compile_program(prog));
    let lowered: usize = code.funcs.iter().map(|f| f.code.len()).sum();
    tr.span("vm.opt", || optimize(&mut code, prog, 2));
    if tr.on() {
        let o = code.opt_stats;
        tr.count("ops_lowered", lowered as f64);
        tr.count(
            "ops_after_opt",
            code.funcs.iter().map(|f| f.code.len()).sum::<usize>() as f64,
        );
        tr.count("funcs_specialized", o.funcs_specialized as f64);
        tr.count("calls_directed", o.calls_directed as f64);
        tr.count("dynamic_fallbacks", o.dynamic_fallbacks as f64);
    }
    let tier = tr.span("tier.compile", || compile_tier(&Arc::new(code)));
    let mut vm = Vm::with_code(prog, Arc::clone(tier.code()));
    let outcome = tr
        .span("exec.jit", || vm.run_main_tier(&tier))
        .map(|v| vm.render(&v));
    let stats = vm.resource_stats();
    if tr.on() {
        let d = vm.dispatch_stats();
        tr.count("tier_blocks", tier.stats.blocks as f64);
        tr.count("fuel.jit", stats.fuel_used as f64);
        tr.count("heap_bytes", stats.mem_used as f64);
        tr.count("collections", stats.collections as f64);
        tr.max("peak_live_bytes", stats.peak_bytes as f64);
        tr.count("ic_hits", d.ic_hits as f64);
        tr.count("ic_misses", d.ic_misses as f64);
    }
    let output = vm.take_output();
    tr.span("teardown", || drop((vm, tier)));
    Some(Leg {
        outcome,
        output,
        stats,
    })
}

impl EditLoop {
    /// The timed set-up: a stdlib session seeded with the project,
    /// checked once and run once.
    pub fn setup(prep: Prep) -> EditLoop {
        let project = Project::new();
        let (session, diags) = checked_session(&project);
        assert!(diags.is_empty(), "edit_loop project must check: {diags:?}");
        let mut tr = Tracer::new(std::time::Instant::now());
        run_jit(&session, &mut tr).expect("edit_loop project runs");
        let names = session.unit_names();
        let files = UNITS.map(|u| {
            let k = names.iter().position(|n| *n == u).expect("unit registered");
            FileId(k as u32)
        });
        EditLoop {
            prep,
            session,
            files,
            project,
            n: 0,
            #[cfg(test)]
            planted: None,
        }
    }

    pub fn into_prep(self) -> Prep {
        self.prep
    }

    /// Applies edit `e` to the project, returning the edited unit.
    fn apply(&mut self, e: Edit) -> usize {
        self.n += 1;
        let value = six_digits(self.n * 7 + self.prep.salt);
        match e {
            Edit::Body(u) => {
                self.project.tune[u] = value;
                u
            }
            Edit::Signature => {
                self.project.sig_params = self.project.sig_params % 3 + 1;
                self.project.sig_rev = value;
                0
            }
        }
    }

    #[cfg(test)]
    pub fn plant_wrong_reference(&mut self, op: usize) {
        self.planted = Some(op);
    }
}

/// What one edit left behind: the project it produced, the warm
/// session's diagnostics for it, and the Tier-2 run.
pub struct Applied {
    project: Project,
    diags: Vec<Diagnostic>,
    run: Option<Leg>,
}

impl Workload for EditLoop {
    type Out = Applied;

    fn cycle_len(&self) -> usize {
        self.prep.seq.len()
    }

    fn warmup_cycles(&self) -> usize {
        WARMUP_OPS.div_ceil(CYCLE)
    }

    fn op(&mut self, i: usize, tr: &mut Tracer) -> Self::Out {
        let u = self.apply(self.prep.seq[i]);
        let src = self.project.source(u);
        let before = self.session.stats();
        let tq_before = self.session.program().map(|p| p.table.cache.stats());
        tr.span("check", || self.session.update_source(UNITS[u], &src));
        let parsed = tr.span("syntax.parse", || {
            parse_unit(self.session.sm(), self.files[u], UNITS[u])
        });
        self.session.seed_parse(UNITS[u], Arc::new(parsed));
        let report = tr.span("check", || self.session.check());
        if tr.on() {
            record_check(tr, &before, &report.stats);
            if let Some(p) = self.session.program() {
                let now = p.table.cache.stats();
                // A rebuilt prefix is a new table whose counters start at 0.
                let q = match tq_before {
                    Some(b) if report.stats.prefix_rebuilt == before.prefix_rebuilt => {
                        now.since(&b)
                    }
                    _ => now,
                };
                tr.count("tq_hits", q.hits() as f64);
                tr.count("tq_misses", q.misses() as f64);
            }
        }
        let run = run_jit(&self.session, tr);
        Applied {
            project: self.project.clone(),
            diags: report.diags,
            run,
        }
    }

    fn count_after(&mut self, i: usize, tr: &mut Tracer) {
        if tr.on() {
            let u = match self.prep.seq[i] {
                Edit::Body(u) => u,
                Edit::Signature => 0,
            };
            tr.count(
                "tokens",
                crate::fresh::token_count(&self.project.source(u)) as f64,
            );
        }
    }

    /// The reference is a fresh session over the same sources: its
    /// diagnostics, and the AST engine's run of its program.
    fn check(&mut self, _i: usize, out: &Self::Out) -> bool {
        let (fresh, diags) = checked_session(&out.project);
        let Some(prog) = fresh.program() else {
            return false;
        };
        #[allow(unused_mut)]
        let mut want = run_ast(prog, Limits::default());
        #[cfg(test)]
        if self.planted == Some(_i) {
            want.output.push('!');
        }
        let same_run = matches!(&out.run, Some(leg) if leg.outcome_key() == want.outcome_key() && leg.output == want.output);
        diags == out.diags && same_run
    }
}

/// Records one check's reuse counters as deltas of the cumulative stats.
fn record_check(tr: &mut Tracer, before: &SessionStats, after: &SessionStats) {
    tr.count(
        "units_rechecked",
        (after.units_rechecked - before.units_rechecked) as f64,
    );
    tr.count(
        "units_patched",
        (after.units_patched - before.units_patched) as f64,
    );
    tr.count(
        "units_reused",
        (after.units_not_rechecked() - before.units_not_rechecked()) as f64,
    );
    tr.count(
        "prefix_rebuilt",
        (after.prefix_rebuilt - before.prefix_rebuilt) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::measure;
    use std::time::Instant;

    #[test]
    fn planted_wrong_reference_counts_failed_ops() {
        genus_fuzz::pipeline::with_big_stack(|| {
            let mut w = EditLoop::setup(prepare(2));
            let mut tr = Tracer::new(Instant::now());
            assert_eq!(measure(&mut w, 0.0, false, &mut tr, || {}).failed, 0);
            w.plant_wrong_reference(7);
            let s = measure(&mut w, 0.0, false, &mut tr, || {});
            assert_eq!((s.failed, s.attempted()), (1, CYCLE as u64));
        });
    }

    #[test]
    fn after_warm_up_every_cycle_rechecks_the_same_units() {
        genus_fuzz::pipeline::with_big_stack(|| {
            for seed in [1, 5, 6] {
                let mut w = EditLoop::setup(prepare(seed));
                let mut tr = Tracer::new(Instant::now());
                crate::driver::warm_up(&mut w, &mut tr);
                let pattern = |w: &mut EditLoop, tr: &mut Tracer| -> Vec<u64> {
                    (0..CYCLE)
                        .map(|i| {
                            let before = w.session.stats().units_rechecked;
                            let _ = w.op(i, tr);
                            w.session.stats().units_rechecked - before
                        })
                        .collect()
                };
                let first = pattern(&mut w, &mut tr);
                assert!(
                    first.contains(&9),
                    "some signature edit re-checks the stdlib"
                );
                for _ in 0..3 {
                    assert_eq!(pattern(&mut w, &mut tr), first, "seed {seed}");
                }
            }
        });
    }

    #[test]
    fn signature_edits_recheck_dependents_and_body_edits_do_not() {
        genus_fuzz::pipeline::with_big_stack(|| {
            let mut w = EditLoop::setup(prepare(2));
            let mut tr = Tracer::new(Instant::now());
            tr.set_on(true);
            let body = w.prep.seq.iter().position(|e| *e == Edit::Body(3)).unwrap();
            let _ = w.op(body, &mut tr);
            assert_eq!(tr.counts()["units_rechecked"], 1.0);
            let sig = w
                .prep
                .seq
                .iter()
                .position(|e| *e == Edit::Signature)
                .unwrap();
            let _ = w.op(sig, &mut tr);
            assert!(tr.counts()["units_rechecked"] >= 5.0, "{:?}", tr.counts());
        });
    }
}
