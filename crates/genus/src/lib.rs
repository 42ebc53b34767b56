//! Facade for the Genus language implementation: a one-stop compile-and-run
//! pipeline over `genus-syntax`, `genus-check`, the two execution engines
//! (`genus-interp`, `genus-vm`), and the `genus-stdlib` sources.
//!
//! # Examples
//!
//! ```
//! use genus::{Compiler, Engine};
//!
//! let result = Compiler::new()
//!     .source("demo.genus", "int main() { return 21 * 2; }")
//!     .run()
//!     .unwrap();
//! assert_eq!(result.rendered_value, "42");
//!
//! // Same program through the bytecode VM:
//! let result = Compiler::new()
//!     .engine(Engine::Vm)
//!     .source("demo.genus", "int main() { return 21 * 2; }")
//!     .run()
//!     .unwrap();
//! assert_eq!(result.rendered_value, "42");
//! ```

pub use genus_check::{hir, CheckReport, CheckedProgram, SessionReport, SessionStats};
pub use genus_common::{
    codes, json, Diagnostic, Diagnostics, ErrorFormat, Severity, SourceMap, Span,
};
pub use genus_interp::{
    DispatchStats, ErrorKind, Interp, Limits, Meter, ResourceStats, RuntimeError, Value,
    INTERP_STACK_SIZE,
};
pub use genus_types::{caches_enabled, set_caches_enabled, CacheStats};
pub use genus_vm::exec::{CompileSession, Engine, Execution, RunResult};
pub use genus_vm::{
    compile_optimized, compile_program, compile_program_uncached, compile_tier, OptStats,
    TierProgram, TierStats, Vm, VmProgram,
};

/// A builder-style compiler front end.
///
/// Sources are checked together with the built-in prelude and (optionally)
/// the standard library ported from the Java Collections Framework and the
/// FindBugs-style graph library (§8.1, §8.2 of the paper).
#[derive(Debug, Clone)]
pub struct Compiler {
    sources: Vec<(String, String)>,
    stdlib: bool,
    engine: Engine,
    opt_level: u8,
    limits: Limits,
}

impl Default for Compiler {
    fn default() -> Self {
        Compiler {
            sources: Vec::new(),
            stdlib: false,
            engine: Engine::default(),
            opt_level: 2,
            limits: Limits::default(),
        }
    }
}

impl Compiler {
    /// Creates an empty compiler.
    pub fn new() -> Self {
        Compiler::default()
    }

    /// Adds a named source file.
    pub fn source(mut self, name: impl Into<String>, src: impl Into<String>) -> Self {
        self.sources.push((name.into(), src.into()));
        self
    }

    /// Includes the Genus standard library (collections + graph).
    pub fn with_stdlib(mut self) -> Self {
        self.stdlib = true;
        self
    }

    /// Selects the execution engine (default: [`Engine::Ast`]).
    pub fn engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the VM's bytecode optimization level (default: 2).
    /// `0` disables the optimizer (the paper's homogeneous translation);
    /// `2`, or any other nonzero level, runs the whole pipeline:
    /// specialization (heterogeneous translation), cleanup, leaf inlining
    /// and type reification (see [`genus_vm::opt::level`]). Ignored by
    /// the AST engine. Observable behaviour is identical at both levels —
    /// only speed and the [`Execution::opt_stats`] counters differ.
    pub fn opt_level(mut self, level: u8) -> Self {
        self.opt_level = level;
        self
    }

    /// Caps the run at `fuel` execution steps (statements/expressions on
    /// the AST engine, opcodes on the VM). Exhaustion traps with the
    /// stable code `R0009`. Unlimited by default.
    pub fn fuel(mut self, fuel: u64) -> Self {
        self.limits.fuel = Some(fuel);
        self
    }

    /// Caps the run at `bytes` cumulative allocated heap bytes (charged
    /// at object, array, string, and existential-package allocation
    /// sites with exact per-object sizes — see `genus-heap`). Exceeding
    /// the cap traps with the stable code `R0010`. Unlimited by default.
    pub fn memory_limit(mut self, bytes: u64) -> Self {
        self.limits.memory = Some(bytes);
        self
    }

    /// Imposes a wall-clock deadline on the run, measured from when the
    /// engine starts. Missing it traps with `R0009` (deadlines are a
    /// form of fuel). Unlimited by default.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.limits.deadline_ms = Some(ms);
        self
    }

    /// Installs a full [`Limits`] bundle at once (serve requests).
    pub fn limits(mut self, limits: Limits) -> Self {
        self.limits = limits;
        self
    }

    /// Type-checks everything and returns the structured [`CheckReport`]:
    /// every diagnostic (errors and warnings) with its stable code and
    /// spans, plus the checked program when there were no errors.
    ///
    /// One-shot checks are a cold pass of the incremental session
    /// machinery, which extends the process-wide checked prelude and stdlib
    /// ([`genus_check::CheckedBase`]) when the reuse rule allows, so
    /// repeated `check_report` calls parse and check only the user sources.
    pub fn check_report(&self) -> CheckReport {
        self.session().into_report()
    }

    /// A fresh [`CompileSession`] over this compiler's sources, stdlib
    /// choice and opt level: the one pipeline behind checking and
    /// running.
    fn session(&self) -> CompileSession {
        let mut session = CompileSession::seeded(self.stdlib);
        session.opt_level(self.opt_level);
        for (name, src) in &self.sources {
            session.update_source(name, src);
        }
        session
    }

    /// Type-checks everything and returns the checked program.
    ///
    /// # Errors
    ///
    /// Returns the short-format diagnostics on any parse or type error.
    pub fn compile(&self) -> Result<CheckedProgram, String> {
        self.check_report().into_program()
    }

    /// Compiles and runs `main()` on the selected engine, returning the
    /// full [`Execution`] — outcome, captured output, and statistics —
    /// whether or not the program trapped.
    ///
    /// # Errors
    ///
    /// Returns rendered diagnostics on compile errors. Runtime errors
    /// are reported inside [`Execution::outcome`], not here.
    pub fn execute(&self) -> Result<Execution, String> {
        self.session().execute(self.engine, self.limits)
    }

    /// Compiles and runs `main()`, returning its value and captured output.
    ///
    /// # Errors
    ///
    /// Returns rendered diagnostics on compile errors, or the runtime
    /// error message. Output printed before a trap is appended to the
    /// error so it is never silently dropped.
    pub fn run(&self) -> Result<RunResult, String> {
        self.execute()?.finish()
    }

    /// Compiles once, runs `main()` on **all three** engines (AST
    /// interpreter, bytecode VM, closure-compiled Tier 2), and checks
    /// that they agree. Successful runs must agree on the rendered value
    /// and captured output; traps must agree on the **structured** error
    /// — the stable `R0xxx` code — rather than the exact message
    /// string, so an engine can reword a message without breaking
    /// parity. The VM and Tier 2 run the *same* bytecode, so their fuel
    /// accounting must additionally be **identical**, step for step —
    /// the by-construction guarantee behind R0009/R0010 parity.
    ///
    /// # Errors
    ///
    /// Returns compile diagnostics, the (structurally identical) runtime
    /// error, or a divergence report prefixed with `engine divergence` if
    /// the engines disagree — the backstop assertion of the differential
    /// test suite.
    pub fn run_differential(&self) -> Result<RunResult, String> {
        let mut session = self.session();
        let ast = session.execute(Engine::Ast, self.limits)?;
        let vm = session.execute(Engine::Vm, self.limits)?;
        let jit = session.execute(Engine::Jit, self.limits)?;
        let pair_agrees = |a: &Execution, b: &Execution| {
            let outcomes = match (&a.outcome, &b.outcome) {
                (Ok(x), Ok(y)) => x == y,
                // Structured parity: the code, not the message text.
                (Err(x), Err(y)) => x.code() == y.code(),
                _ => false,
            };
            outcomes && a.output == b.output
        };
        if !pair_agrees(&ast, &vm) || !pair_agrees(&vm, &jit) {
            return Err(format!(
                "engine divergence:\n  ast outcome: {:?}\n  vm  outcome: {:?}\n  jit outcome: {:?}\n  ast output: {:?}\n  vm  output: {:?}\n  jit output: {:?}",
                ast.outcome, vm.outcome, jit.outcome, ast.output, vm.output, jit.output
            ));
        }
        // Same bytecode ⇒ same step sequence: exact fuel agreement.
        if vm.resource_stats.fuel_used != jit.resource_stats.fuel_used {
            return Err(format!(
                "engine divergence: fuel accounting differs (vm {} vs jit {})",
                vm.resource_stats.fuel_used, jit.resource_stats.fuel_used
            ));
        }
        vm.finish()
    }
}

/// Compiles and runs a single source with the standard library available.
///
/// # Errors
///
/// Propagates compile diagnostics or runtime errors as strings.
pub fn run_with_stdlib(src: &str) -> Result<RunResult, String> {
    Compiler::new()
        .with_stdlib()
        .source("main.genus", src)
        .run()
}

/// Compiles and runs a single source with only the prelude.
///
/// # Errors
///
/// Propagates compile diagnostics or runtime errors as strings.
pub fn run_simple(src: &str) -> Result<RunResult, String> {
    Compiler::new().source("main.genus", src).run()
}

/// [`run_with_stdlib`], but on both engines with a divergence check.
///
/// # Errors
///
/// Propagates compile diagnostics, runtime errors, or a divergence
/// report as strings.
pub fn run_differential_with_stdlib(src: &str) -> Result<RunResult, String> {
    Compiler::new()
        .with_stdlib()
        .source("main.genus", src)
        .run_differential()
}

/// [`run_simple`], but on both engines with a divergence check.
///
/// # Errors
///
/// Propagates compile diagnostics, runtime errors, or a divergence
/// report as strings.
pub fn run_differential_simple(src: &str) -> Result<RunResult, String> {
    Compiler::new().source("main.genus", src).run_differential()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs() {
        let r = run_simple("int main() { println(\"x\"); return 7; }").unwrap();
        assert_eq!(r.rendered_value, "7");
        assert_eq!(r.output, "x\n");
    }

    #[test]
    fn compile_errors_are_reported() {
        let e = run_simple("int main() { return undefinedVariable; }").unwrap_err();
        assert!(e.contains("unknown variable"), "{e}");
    }

    #[test]
    fn stdlib_is_available() {
        let r = run_with_stdlib(
            "int main() {
               ArrayList[int] l = new ArrayList[int]();
               l.add(4); l.add(2);
               return l.get(0) * 10 + l.get(1);
             }",
        )
        .unwrap();
        assert_eq!(r.rendered_value, "42");
    }

    #[test]
    fn vm_engine_runs() {
        let r = Compiler::new()
            .engine(Engine::Vm)
            .source("m.genus", "int main() { println(\"y\"); return 8; }")
            .run()
            .unwrap();
        assert_eq!(r.rendered_value, "8");
        assert_eq!(r.output, "y\n");
    }

    #[test]
    fn output_survives_runtime_errors() {
        for engine in [Engine::Ast, Engine::Vm, Engine::Jit] {
            let ex = Compiler::new()
                .engine(engine)
                .source(
                    "m.genus",
                    "int main() { println(\"before\"); int[] a = new int[1]; return a[3]; }",
                )
                .execute()
                .unwrap();
            assert!(ex.outcome.is_err(), "{engine:?} should trap");
            assert_eq!(ex.output, "before\n", "{engine:?} dropped pre-trap output");
            // And run() carries it inside the error message.
            let e = Compiler::new()
                .engine(engine)
                .source(
                    "m.genus",
                    "int main() { println(\"before\"); int[] a = new int[1]; return a[3]; }",
                )
                .run()
                .unwrap_err();
            assert!(e.contains("before"), "{engine:?}: {e}");
        }
    }

    #[test]
    fn differential_agreement_and_divergence_reporting() {
        let r = run_differential_simple(
            "int main() { int s = 0; for (int i = 0; i < 5; i = i + 1) { s += i; } return s; }",
        )
        .unwrap();
        assert_eq!(r.rendered_value, "10");
        // Identical runtime errors pass through differential runs.
        let e = run_differential_simple("int main() { return 1 % 0; }").unwrap_err();
        assert!(e.contains("% by zero"), "{e}");
        assert!(!e.contains("divergence"), "{e}");
    }

    #[test]
    fn session_errors_render_like_one_shot() {
        let mut s = CompileSession::new();
        s.update_source("main.genus", "int main() { return nope; }");
        let err = s.run(Engine::Ast, Limits::default()).unwrap_err();
        let one_shot = run_simple("int main() { return nope; }").unwrap_err();
        assert_eq!(err, one_shot);
    }

    #[test]
    fn jit_engine_runs_and_reports_tier_stats() {
        let ex = Compiler::new()
            .engine(Engine::Jit)
            .source("m.genus", "int main() { println(\"z\"); return 9; }")
            .execute()
            .unwrap();
        assert_eq!(ex.outcome.as_deref(), Ok("9"));
        assert_eq!(ex.output, "z\n");
        let stats = ex.tier_stats.expect("jit engine reports tier stats");
        assert!(stats.funcs_tiered >= 1, "{stats:?}");
    }
}
