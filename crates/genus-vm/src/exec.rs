//! The one run path: run `main()` on an engine and collect what the run
//! showed — the rendered value or trap, the printed output, and the
//! counters.
//!
//! Every caller that runs a program goes through [`execute`]: the
//! `genus` facade's `Compiler` and its CLI, [`CompileSession`] (which
//! `genus-serve`'s named sessions are too), `genus-serve`'s workers, and
//! the fuzzer's oracle legs. This crate is the lowest one that sees all
//! three engines, so what they share is written here once: the
//! [`Engine`] names, the compiled-code holder ([`CompiledCode`]), the
//! edit-check-run session, and how an engine is set up, limited, run and
//! read out. Callers choose and cache the code to run ([`Code`]).

use crate::tier::{TierProgram, TierStats};
use crate::{compile_optimized, compile_tier, OptStats, Vm, VmProgram};
use genus_check::{CheckReport, CheckedProgram, Session, SessionReport, SessionStats};
use genus_common::{diag, Diagnostic, ErrorFormat, SourceMap};
use genus_interp::{
    with_interp_stack, DispatchStats, Interp, Limits, ResourceStats, RunState, RuntimeError, Value,
};
use genus_types::CacheStats;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Which execution engine runs the program.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The tree-walking interpreter over HIR. Recurses on the host
    /// stack, so it runs on a thread with
    /// [`genus_interp::INTERP_STACK_SIZE`] of it.
    #[default]
    Ast,
    /// The bytecode register VM. Keeps Genus frames in an explicit
    /// stack, so it runs on the calling thread.
    Vm,
    /// Tier 2: the optimized bytecode translated once more into nested
    /// Rust closures with pre-resolved operands (the `tier` module) —
    /// no fetch/decode loop at run time. Observable behaviour, including
    /// fuel accounting, is identical to [`Engine::Vm`] over the same
    /// bytecode.
    Jit,
}

impl Engine {
    /// Parses an engine name, as `genus run --engine=<name>` and a serve
    /// request's `engine` field spell it.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "ast" | "interp" => Some(Engine::Ast),
            "vm" | "bytecode" => Some(Engine::Vm),
            "jit" | "tier" => Some(Engine::Jit),
            _ => None,
        }
    }

    /// The canonical name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Engine::Ast => "ast",
            Engine::Vm => "vm",
            Engine::Jit => "jit",
        }
    }
}

/// Which engine runs, with the compiled code it runs.
#[derive(Clone, Copy)]
pub enum Code<'a> {
    /// The tree-walking interpreter over the checked program's HIR. It
    /// recurses on the host stack, so the caller provides
    /// [`genus_interp::INTERP_STACK_SIZE`] of it (a serve worker, or
    /// [`genus_interp::with_interp_stack`]).
    Ast,
    /// The bytecode VM over shared compiled code.
    Vm(&'a Arc<VmProgram>),
    /// Tier 2 over shared closure-compiled code. Same bytecode as the
    /// VM underneath, so the same fuel, step for step.
    Tier(&'a TierProgram),
}

/// Everything one run of `main()` showed. The captured output and the
/// counters are there whether or not the program trapped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution {
    /// `main`'s rendered return value, or the structured runtime trap
    /// (stable `R0xxx` code + message + optional span).
    pub outcome: Result<String, RuntimeError>,
    /// Everything printed before completion (or before the trap).
    pub output: String,
    /// The engine's dispatch-cache counters for this run.
    pub dispatch_stats: DispatchStats,
    /// The type-level query-cache counters (subtype/prereq/conforms/
    /// resolve) accumulated during this run. The caches belong to the
    /// shared checked program, so this is a delta: concurrent runs over
    /// one program each report their own numbers.
    pub cache_stats: CacheStats,
    /// Bytecode-optimizer counters (specialization, folding, …). `None`
    /// on the AST engine, which has no bytecode to optimize.
    pub opt_stats: Option<OptStats>,
    /// Resources consumed by this run: fuel steps, exact allocated
    /// bytes (see [`Limits`]), plus the heap's live/peak byte counters
    /// and the number of collections. Counted even when no limit is set.
    pub resource_stats: ResourceStats,
    /// Tier-translation counters, read after the run. `Some` only on
    /// Tier 2 — the anti-vacuity signal for differential tests (a parity
    /// claim means nothing if no function was actually tiered). A tier
    /// program translates each function once, on its first entry, so a
    /// program shared by several runs counts each function once over all
    /// of them.
    pub tier_stats: Option<TierStats>,
}

impl Execution {
    /// Collapses the run into its value and output, or into its trap
    /// rendered with the stable code and the output printed before it,
    /// so that output is never silently dropped.
    ///
    /// # Errors
    ///
    /// The rendered trap.
    pub fn finish(self) -> Result<RunResult, String> {
        match self.outcome {
            Ok(rendered_value) => Ok(RunResult {
                rendered_value,
                output: self.output,
            }),
            Err(e) => {
                let msg = format!("error[{}]: {e}", e.code());
                if self.output.is_empty() {
                    Err(msg)
                } else {
                    Err(format!(
                        "{msg}\n--- output before the error ---\n{}",
                        self.output
                    ))
                }
            }
        }
    }
}

/// A run collapsed to its value and output ([`Execution::finish`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// `main`'s return value, rendered.
    pub rendered_value: String,
    /// Everything printed by the program.
    pub output: String,
}

/// Runs `main()` of `prog` on the engine `code` names, under `limits`.
/// Each run gets a fresh engine and heap that die with it.
#[must_use]
pub fn execute(prog: &CheckedProgram, code: Code<'_>, limits: Limits) -> Execution {
    match code {
        Code::Ast => {
            let cache_base = prog.table.cache.stats();
            let mut interp = Interp::new(prog);
            interp.state.set_limits(limits);
            let outcome = interp.run_main();
            let cache_stats = prog.table.cache.stats().since(&cache_base);
            readout(&mut interp.state, outcome, cache_stats, None, None)
        }
        Code::Vm(code) => execute_vm(Vm::with_code(prog, Arc::clone(code)), None, limits),
        Code::Tier(tier) => execute_vm(
            Vm::with_code(prog, Arc::clone(tier.code())),
            Some(tier),
            limits,
        ),
    }
}

/// The VM half of [`execute`], over a [`Vm`] the caller has set up — a
/// collect-always heap, an installed coverage map. With `tier`, which
/// must be compiled from the VM's own bytecode, Tier 2 runs instead of
/// the dispatch loop.
///
/// # Panics
///
/// Panics if `tier` was compiled from different bytecode.
#[must_use]
pub fn execute_vm(mut vm: Vm<'_>, tier: Option<&TierProgram>, limits: Limits) -> Execution {
    let cache_base = vm.prog.table.cache.stats();
    vm.state.set_limits(limits);
    let outcome = match tier {
        Some(tier) => vm.run_main_tier(tier),
        None => vm.run_main(),
    };
    let cache_stats = vm.prog.table.cache.stats().since(&cache_base);
    let opt_stats = Some(vm.code.opt_stats);
    let tier_stats = tier.map(TierProgram::compiled);
    readout(&mut vm.state, outcome, cache_stats, opt_stats, tier_stats)
}

/// What a finished run showed, read out of its [`RunState`] plus the
/// counters that live outside it.
fn readout(
    state: &mut RunState,
    outcome: Result<Value, RuntimeError>,
    cache_stats: CacheStats,
    opt_stats: Option<OptStats>,
    tier_stats: Option<TierStats>,
) -> Execution {
    Execution {
        outcome: outcome.map(|v| state.render(&v)),
        output: state.take_output(),
        dispatch_stats: state.dispatch_stats(),
        cache_stats,
        opt_stats,
        resource_stats: state.resource_stats(),
        tier_stats,
    }
}

/// A checked program's compiled code at one opt level: its bytecode, and
/// the Tier-2 closures over that bytecode, each compiled at most once,
/// by the first run that needs it. Racing threads agree on one compile
/// of each. A serve cache entry owns one (a disk-loaded entry's starts
/// with its bytecode set); a [`CompileSession`] keeps one per generation.
pub struct CompiledCode {
    opt: u8,
    vm: OnceLock<Arc<VmProgram>>,
    tier: OnceLock<Arc<TierProgram>>,
}

impl CompiledCode {
    /// Nothing compiled yet; the bytecode will be optimized at `opt`.
    #[must_use]
    pub fn new(opt: u8) -> CompiledCode {
        CompiledCode {
            opt,
            vm: OnceLock::new(),
            tier: OnceLock::new(),
        }
    }

    /// Code whose bytecode, optimized at `opt`, is already in hand.
    #[must_use]
    pub fn with_bytecode(opt: u8, vm: Arc<VmProgram>) -> CompiledCode {
        CompiledCode {
            vm: OnceLock::from(vm),
            ..CompiledCode::new(opt)
        }
    }

    /// The bytecode of `prog`, compiling it on first use. `prog` is the
    /// program this code belongs to.
    pub fn bytecode(&self, prog: &CheckedProgram) -> &Arc<VmProgram> {
        self.vm
            .get_or_init(|| Arc::new(compile_optimized(prog, self.opt)))
    }

    /// The Tier-2 closures over [`CompiledCode::bytecode`], compiling them
    /// (and the bytecode, if no run needed it yet) on first use. Their
    /// functions are translated later, each by the first run that
    /// enters it.
    pub fn tier(&self, prog: &CheckedProgram) -> &Arc<TierProgram> {
        self.tier
            .get_or_init(|| Arc::new(compile_tier(self.bytecode(prog))))
    }

    /// Whether the Tier-2 closures have been compiled (without
    /// compiling them).
    #[must_use]
    pub fn tier_compiled(&self) -> bool {
        self.tier.get().is_some()
    }

    /// The code `engine` runs over `prog`, compiling what it lacks, and
    /// whether that code had been compiled before this call (never on
    /// the AST engine, which runs no compiled code).
    pub fn code<'a>(&'a self, prog: &CheckedProgram, engine: Engine) -> (Code<'a>, bool) {
        match engine {
            Engine::Ast => (Code::Ast, false),
            Engine::Vm => {
                let reused = self.vm.get().is_some();
                (Code::Vm(self.bytecode(prog)), reused)
            }
            Engine::Jit => {
                let reused = self.tier_compiled();
                (Code::Tier(self.tier(prog)), reused)
            }
        }
    }
}

impl fmt::Debug for CompiledCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledCode")
            .field("opt", &self.opt)
            .field("bytecode_compiled", &self.vm.get().is_some())
            .field("tier_compiled", &self.tier_compiled())
            .finish()
    }
}

/// A long-lived, editable compilation pipeline: named units go in via
/// [`update_source`](CompileSession::update_source), diagnostics and
/// runnable programs come out of [`check`](CompileSession::check) and
/// [`execute`](CompileSession::execute), and everything in between —
/// parse trees, the semantic prefix, per-unit verdicts, compiled code —
/// is memoized so an edit re-derives only what the edit could have
/// changed.
///
/// It wraps the demand-driven [`genus_check::Session`] with two things:
///
/// 1. **Stdlib seeding.** [`CompileSession::with_stdlib`] registers the
///    standard library's units as always-visible modules whose source
///    map and parse trees come from a process-wide seed, so repeated
///    one-shot checks stop re-parsing the stdlib.
/// 2. **Compiled code per generation.** The session's *generation*
///    changes whenever a re-check may have changed the checked program;
///    the session keeps one [`CompiledCode`] for the current generation
///    and opt level. Re-running an unchanged program compiles nothing,
///    and an edit compiles again exactly once.
///
/// The `genus` facade's `Compiler`, its CLI (`genus run`, `genus check
/// --watch`) and `genus-serve`'s named sessions all hold this type.
///
/// ```
/// use genus_vm::exec::{CompileSession, Engine};
/// use genus_interp::Limits;
///
/// let mut s = CompileSession::with_stdlib();
/// s.update_source("main.genus", "int main() { return 41; }");
/// assert!(!s.check().has_errors());
/// s.update_source("main.genus", "int main() { return 42; }");
/// let report = s.check();
/// assert!(!report.has_errors());
/// // The stdlib and prelude were not re-checked for a main-only edit.
/// assert!(report.stats.units_not_rechecked() >= 5);
/// let run = s.run(Engine::Vm, Limits::default()).unwrap();
/// assert_eq!(run.rendered_value, "42");
/// ```
pub struct CompileSession {
    inner: Session,
    opt_level: u8,
    /// The compiled code of the generation it was compiled for.
    code: Option<(u64, CompiledCode)>,
    /// Compiles whose base functions came from the lowered-base cache.
    lowerings_reused: u64,
}

impl Default for CompileSession {
    fn default() -> Self {
        CompileSession::new()
    }
}

impl CompileSession {
    /// A session containing only the built-in prelude.
    #[must_use]
    pub fn new() -> Self {
        CompileSession::wrap(Session::new())
    }

    /// A session pre-loaded with the standard library as always-visible
    /// modules, their parses seeded from the process-wide memo.
    #[must_use]
    pub fn with_stdlib() -> Self {
        CompileSession::wrap(Session::with_stdlib())
    }

    fn wrap(inner: Session) -> Self {
        CompileSession {
            inner,
            opt_level: 2,
            code: None,
            lowerings_reused: 0,
        }
    }

    /// [`CompileSession::with_stdlib`] when `stdlib`, else
    /// [`CompileSession::new`]: the choice `--no-stdlib` and a serve
    /// request's `stdlib` field make.
    #[must_use]
    pub fn seeded(stdlib: bool) -> Self {
        if stdlib {
            CompileSession::with_stdlib()
        } else {
            CompileSession::new()
        }
    }

    /// Selects the bytecode optimization level (default 2; any nonzero
    /// level runs the whole pipeline, see [`crate::opt::level`]).
    pub fn opt_level(&mut self, level: u8) {
        self.opt_level = crate::opt::level(level);
    }

    /// Adds or replaces the source text of the unit named `name`.
    pub fn update_source(&mut self, name: &str, src: &str) {
        self.inner.update_source(name, src);
    }

    /// Re-derives diagnostics for the current sources, reusing memoized
    /// parses and verdicts where content hashes allow.
    pub fn check(&mut self) -> SessionReport {
        self.inner.check()
    }

    /// Cumulative reuse statistics over the session's lifetime.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    /// How many of this session's bytecode compiles copied the lowered
    /// prelude and stdlib from the process-wide cache instead of lowering
    /// them (see [`crate::compile_program`]).
    #[must_use]
    pub fn lowerings_reused(&self) -> u64 {
        self.lowerings_reused
    }

    /// Changes whenever a check may have changed the runnable program.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// The session's source map, for rendering diagnostics.
    #[must_use]
    pub fn sm(&self) -> &SourceMap {
        self.inner.sm()
    }

    /// The diagnostics of the last check, in normalized order.
    #[must_use]
    pub fn last_diags(&self) -> &[Diagnostic] {
        self.inner.last_diags()
    }

    /// The checked program of the last check, when it had no errors.
    #[must_use]
    pub fn program(&self) -> Option<&CheckedProgram> {
        self.inner.program()
    }

    /// Collapses the session into a one-shot [`CheckReport`], checking
    /// first if no check has run yet.
    #[must_use]
    pub fn into_report(self) -> CheckReport {
        self.inner.into_report()
    }

    /// Renders the last check's diagnostics (errors and warnings alike)
    /// in `format`, joined the way [`CheckReport::render`] joins them.
    #[must_use]
    pub fn render_diags(&self, format: ErrorFormat) -> String {
        diag::render_all(self.last_diags(), self.sm(), format)
    }

    /// Renders only the last check's errors in the classic one-line mode —
    /// the message every failed compile carries.
    #[must_use]
    pub fn render_errors_short(&self) -> String {
        diag::render_errors_short(self.last_diags(), self.sm())
    }

    /// Checks, then runs `main()` on `engine`, reusing compiled code
    /// when nothing changed since the last run.
    ///
    /// # Errors
    ///
    /// Returns the diagnostics (rendered in the classic short format) when
    /// the current sources do not check.
    pub fn execute(&mut self, engine: Engine, limits: Limits) -> Result<Execution, String> {
        if self.check().has_errors() {
            return Err(self.render_errors_short());
        }
        Ok(self.run_checked(engine, limits).0)
    }

    /// [`execute`](CompileSession::execute) collapsed to the value/output
    /// pair ([`Execution::finish`]).
    ///
    /// # Errors
    ///
    /// Returns rendered diagnostics or the runtime error message.
    pub fn run(&mut self, engine: Engine, limits: Limits) -> Result<RunResult, String> {
        self.execute(engine, limits)?.finish()
    }

    /// Runs `main()` of the last check's program on `engine`, and says
    /// whether the code `engine` runs was reused from an earlier run of
    /// the same generation and opt level. The AST engine gets its big
    /// stack here.
    ///
    /// # Panics
    ///
    /// Panics if the last check had errors or no check ran.
    pub fn run_checked(&mut self, engine: Engine, limits: Limits) -> (Execution, bool) {
        let generation = self.inner.generation();
        let opt = self.opt_level;
        if !matches!(&self.code, Some((g, c)) if *g == generation && c.opt == opt) {
            self.code = Some((generation, CompiledCode::new(opt)));
        }
        let code = &self.code.as_ref().expect("filled above").1;
        let prog = self
            .inner
            .program()
            .expect("run_checked follows a check without errors");
        let lowers = engine != Engine::Ast && code.vm.get().is_none();
        let (run, reused) = code.code(prog, engine);
        if lowers && code.bytecode(prog).funcs_reused > 0 {
            self.lowerings_reused += 1;
        }
        let ex = match run {
            Code::Ast => with_interp_stack(|| execute(prog, Code::Ast, limits)),
            run => execute(prog, run, limits),
        };
        (ex, reused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_check::check_source;

    const SRC: &str = "class Box { int v; Box(int v) { this.v = v; } }
        int main() {
          int s = 0;
          for (int i = 0; i < 50; i = i + 1) { s = s + new Box(i).v; }
          println(\"sum \" + s);
          return s;
        }";

    #[test]
    fn a_cold_stdlib_check_shares_the_checked_and_lowered_base() {
        let cold = |src: &str| {
            let mut session = CompileSession::with_stdlib();
            session.update_source("main.genus", src);
            session.check();
            assert_eq!(session.stats().units_rechecked, 1, "only the unit checks");
            session.into_report().program.expect("checks")
        };
        let stamp = genus_check::CheckedBase::get(true).stamp;
        assert!(stamp.is_some());
        let first = cold("int main() { return 1; }");
        let prog = cold(SRC);
        assert_eq!((first.base, prog.base), (stamp, stamp));
        let _ = crate::compile_program(&first);
        assert!(crate::compile_program(&prog).funcs_reused > 0);
    }

    #[test]
    fn engines_agree_and_report_their_own_counters() {
        let prog = check_source(SRC).unwrap();
        let code = Arc::new(compile_optimized(&prog, 2));
        let tier = compile_tier(&code);
        let ast = with_interp_stack(|| execute(&prog, Code::Ast, Limits::default()));
        let vm = execute(&prog, Code::Vm(&code), Limits::default());
        let jit = execute(&prog, Code::Tier(&tier), Limits::default());
        for ex in [&ast, &vm, &jit] {
            assert_eq!(ex.outcome.as_deref(), Ok("1225"));
            assert_eq!(ex.output, "sum 1225\n");
            assert_eq!(ex.resource_stats.mem_used, ast.resource_stats.mem_used);
        }
        assert_eq!(vm.resource_stats.fuel_used, jit.resource_stats.fuel_used);
        assert!(ast.opt_stats.is_none() && ast.tier_stats.is_none());
        assert!(vm.opt_stats.is_some() && vm.tier_stats.is_none());
        let tiered = jit.tier_stats.expect("jit runs carry tier stats");
        assert!(tiered.funcs_tiered >= 1 && tiered.blocks >= tiered.funcs_tiered);
    }

    #[test]
    fn a_caller_set_up_vm_runs_under_the_same_limits() {
        let prog = check_source(SRC).unwrap();
        let code = Arc::new(compile_optimized(&prog, 2));
        let limits = Limits {
            fuel: Some(100),
            ..Limits::default()
        };
        let plain = execute(&prog, Code::Vm(&code), limits);
        let mut vm = Vm::with_code(&prog, Arc::clone(&code));
        vm.state.heap = genus_heap::Heap::with_stress(true);
        let stress = execute_vm(vm, None, limits);
        assert_eq!(
            plain.outcome.as_ref().map_err(RuntimeError::code),
            Err("R0009")
        );
        assert_eq!(stress.outcome, plain.outcome);
        assert_eq!(stress.output, plain.output);
        assert_eq!(
            stress.resource_stats.fuel_used,
            plain.resource_stats.fuel_used
        );
        assert!(stress.resource_stats.collections > plain.resource_stats.collections);
    }

    #[test]
    fn engine_names_round_trip() {
        assert_eq!(Engine::from_name("vm"), Some(Engine::Vm));
        assert_eq!(Engine::from_name("ast"), Some(Engine::Ast));
        assert_eq!(Engine::from_name("jit"), Some(Engine::Jit));
        assert_eq!(Engine::from_name("tier"), Some(Engine::Jit));
        assert_eq!(Engine::from_name("llvm"), None);
        assert_eq!(Engine::Vm.name(), "vm");
        assert_eq!(Engine::Jit.name(), "jit");
    }

    #[test]
    fn compiled_code_compiles_each_form_once() {
        let prog = check_source(SRC).unwrap();
        let code = CompiledCode::new(2);
        assert!(!code.tier_compiled());
        let (_, reused) = code.code(&prog, Engine::Vm);
        assert!(!reused, "the first VM run compiles the bytecode");
        let (_, reused) = code.code(&prog, Engine::Jit);
        assert!(!reused, "the first Tier-2 run compiles the closures");
        assert!(Arc::ptr_eq(code.tier(&prog).code(), code.bytecode(&prog)));
        assert!(code.code(&prog, Engine::Vm).1 && code.code(&prog, Engine::Jit).1);
        assert!(!code.code(&prog, Engine::Ast).1);
        let preset = CompiledCode::with_bytecode(2, Arc::clone(code.bytecode(&prog)));
        assert!(
            preset.code(&prog, Engine::Vm).1,
            "preset bytecode is reused"
        );
    }

    #[test]
    fn stdlib_seeding_skips_reparsing() {
        let mut s = CompileSession::with_stdlib();
        s.update_source("main.genus", "int main() { return 1; }");
        s.check();
        let stats = s.stats();
        // Only the user unit was a parse-cache miss: prelude and stdlib
        // came from process-wide memos.
        assert_eq!(stats.parse_new, 1, "{stats:?}");
    }

    #[test]
    fn body_edit_reuses_compiled_stdlib_verdicts() {
        let mut s = CompileSession::with_stdlib();
        s.update_source(
            "main.genus",
            "int main() { ArrayList[int] l = new ArrayList[int](); l.add(40); return l.get(0); }",
        );
        let r1 = s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(r1.rendered_value, "40");
        s.update_source(
            "main.genus",
            "int main() { ArrayList[int] l = new ArrayList[int](); l.add(42); return l.get(0); }",
        );
        let r2 = s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(r2.rendered_value, "42");
        let stats = s.stats();
        assert!(stats.units_not_rechecked() > 0, "{stats:?}");
    }

    #[test]
    fn unchanged_rerun_reuses_bytecode() {
        let bytecode = |s: &CompileSession| {
            let (generation, code) = s.code.as_ref().expect("a run compiled code");
            assert_eq!(*generation, s.generation());
            assert!(
                code.vm.get().is_some(),
                "the run compiled the bytecode the session holds"
            );
            Arc::clone(code.bytecode(s.program().unwrap()))
        };
        let mut s = CompileSession::new();
        s.update_source("m.genus", "int main() { return 6 * 7; }");
        s.run(Engine::Vm, Limits::default()).unwrap();
        let gen1 = s.generation();
        let code1 = bytecode(&s);
        s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(s.generation(), gen1, "no-op re-check must not bump");
        let code2 = bytecode(&s);
        assert_eq!(
            Arc::as_ptr(&code1),
            Arc::as_ptr(&code2),
            "bytecode must be reused across reruns"
        );
        assert!(s.run_checked(Engine::Vm, Limits::default()).1);
        // An edit invalidates the cached bytecode.
        s.update_source("m.genus", "int main() { return 6 * 8; }");
        let r = s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(r.rendered_value, "48");
        assert_ne!(s.generation(), gen1);
    }

    #[test]
    fn all_engines_agree_in_session() {
        for engine in [Engine::Ast, Engine::Vm, Engine::Jit] {
            let mut s = CompileSession::with_stdlib();
            s.update_source(
                "main.genus",
                "int main() { ArrayList[int] l = new ArrayList[int](); l.add(7); return l.get(0) * 6; }",
            );
            let r = s.run(engine, Limits::default()).unwrap();
            assert_eq!(r.rendered_value, "42", "{engine:?}");
        }
    }
}
