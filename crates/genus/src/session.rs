//! Facade-level incremental compile sessions.
//!
//! A [`CompileSession`] wraps the demand-driven [`genus_check::Session`]
//! with the two pieces the checker crate cannot provide itself:
//!
//! 1. **Stdlib seeding.** The standard library's units are registered as
//!    always-visible modules and their parse trees come from a
//!    process-wide memo ([`genus_check::incremental::stdlib_parses`]) —
//!    parsed once per process, at
//!    the exact file ids every seeded session assigns them, so the
//!    memoized spans are valid everywhere. This is what makes repeated
//!    `Compiler::check_report` calls stop re-parsing four stdlib files
//!    per call.
//! 2. **Engine caching.** Compiled bytecode (and Tier-2 closures) are
//!    cached per session in a [`genus_vm::exec::CodeSlot`], keyed by the
//!    session's *generation* counter — a number that changes whenever a
//!    re-check may have changed the checked program — and the opt level.
//!    Re-running an unchanged program skips bytecode compilation
//!    entirely; editing a body invalidates exactly once.
//!
//! ```
//! use genus::CompileSession;
//!
//! let mut s = CompileSession::with_stdlib();
//! s.update_source("main.genus", "int main() { return 41; }");
//! assert!(!s.check().has_errors());
//! s.update_source("main.genus", "int main() { return 42; }");
//! let report = s.check();
//! assert!(!report.has_errors());
//! // The stdlib and prelude were not re-checked for a main-only edit.
//! assert!(report.stats.units_not_rechecked() >= 5);
//! ```

use crate::{finish, Engine, Execution, RunResult};
use genus_check::{CheckReport, CheckedProgram, Session, SessionReport, SessionStats};
use genus_common::{Diagnostic, ErrorFormat, Severity, SourceMap};
use genus_interp::{with_interp_stack, Limits};
use genus_vm::exec::{execute, Code, CodeSlot};

/// A long-lived, editable compilation pipeline: named units go in via
/// [`update_source`](CompileSession::update_source), diagnostics and
/// runnable programs come out of [`check`](CompileSession::check) and
/// [`execute`](CompileSession::execute), and everything in between —
/// parse trees, the semantic prefix, per-unit verdicts, compiled
/// bytecode — is memoized by content hashes so an edit re-derives only
/// what the edit could have changed.
pub struct CompileSession {
    inner: Session,
    opt_level: u8,
    /// Compiled bytecode and Tier-2 closures for the current program,
    /// kept per `(generation, opt level)`.
    code: CodeSlot,
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
    pub fn new() -> Self {
        CompileSession {
            inner: Session::new(),
            opt_level: 2,
            code: CodeSlot::default(),
            lowerings_reused: 0,
        }
    }

    /// A session pre-loaded with the standard library as always-visible
    /// modules, their parses seeded from the process-wide memo.
    pub fn with_stdlib() -> Self {
        CompileSession {
            inner: Session::with_stdlib(),
            ..CompileSession::new()
        }
    }

    /// Selects the bytecode optimization level for [`execute`]
    /// (default 2; see [`crate::Compiler::opt_level`]).
    pub fn opt_level(&mut self, level: u8) {
        self.opt_level = genus_vm::opt::level(level);
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
    pub fn stats(&self) -> SessionStats {
        self.inner.stats()
    }

    /// How many of this session's bytecode compiles copied the lowered
    /// prelude and stdlib from the process-wide cache instead of lowering
    /// them (see [`genus_vm::compile_program`]).
    pub fn lowerings_reused(&self) -> u64 {
        self.lowerings_reused
    }

    /// Changes whenever a check may have changed the runnable program.
    pub fn generation(&self) -> u64 {
        self.inner.generation()
    }

    /// The session's source map, for rendering diagnostics.
    pub fn sm(&self) -> &SourceMap {
        self.inner.sm()
    }

    /// The diagnostics of the last check, in normalized order.
    pub fn last_diags(&self) -> &[Diagnostic] {
        self.inner.last_diags()
    }

    /// The checked program of the last check, when it had no errors.
    pub fn program(&self) -> Option<&CheckedProgram> {
        self.inner.program()
    }

    /// Collapses the session into a one-shot [`CheckReport`], checking
    /// first if no check has run yet.
    pub fn into_report(self) -> CheckReport {
        self.inner.into_report()
    }

    /// Renders the last check's diagnostics (errors and warnings alike)
    /// in `format`, joined the way [`CheckReport::render`] joins them.
    pub fn render_diags(&self, format: ErrorFormat) -> String {
        let sm = self.inner.sm();
        let sep = if format == ErrorFormat::Human {
            "\n\n"
        } else {
            "\n"
        };
        self.inner
            .last_diags()
            .iter()
            .map(|d| d.render_with(sm, format))
            .collect::<Vec<_>>()
            .join(sep)
    }

    /// Renders only the last check's errors in the classic one-line mode —
    /// the same shape [`crate::Compiler::run`] puts in its `Err`.
    pub fn render_errors_short(&self) -> String {
        let sm = self.inner.sm();
        self.inner
            .last_diags()
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .map(|d| d.render(sm))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// Checks, then runs `main()` on `engine`, reusing compiled bytecode
    /// when nothing changed since the last run.
    ///
    /// # Errors
    ///
    /// Returns the diagnostics (rendered in the classic short format) when
    /// the current sources do not check.
    pub fn execute(&mut self, engine: Engine, limits: Limits) -> Result<Execution, String> {
        let report = self.inner.check();
        if report.has_errors() {
            return Err(self.render_errors_short());
        }
        let generation = self.inner.generation();
        let opt_level = self.opt_level;
        let prog = self
            .inner
            .program()
            .expect("no errors implies a checked program");
        Ok(match engine {
            Engine::Ast => with_interp_stack(|| execute(prog, Code::Ast, limits)),
            Engine::Vm | Engine::Jit => {
                let (code, hit) = self.code.bytecode(prog, generation, opt_level);
                self.lowerings_reused += u64::from(!hit && code.funcs_reused > 0);
                if engine == Engine::Vm {
                    execute(prog, Code::Vm(&code), limits)
                } else {
                    let (tier, _) = self.code.tier(prog, generation, opt_level);
                    execute(prog, Code::Tier(&tier), limits)
                }
            }
        })
    }

    /// [`execute`](CompileSession::execute) collapsed to the value/output
    /// pair, like [`crate::Compiler::run`].
    ///
    /// # Errors
    ///
    /// Returns rendered diagnostics or the runtime error message.
    pub fn run(&mut self, engine: Engine, limits: Limits) -> Result<RunResult, String> {
        finish(self.execute(engine, limits)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
        let mut s = CompileSession::new();
        s.update_source("m.genus", "int main() { return 6 * 7; }");
        s.run(Engine::Vm, Limits::default()).unwrap();
        let gen1 = s.generation();
        let (code1, hit) = s.code.bytecode(s.inner.program().unwrap(), gen1, 2);
        assert!(hit, "the run compiled the bytecode the slot holds");
        s.run(Engine::Vm, Limits::default()).unwrap();
        assert_eq!(s.generation(), gen1, "no-op re-check must not bump");
        let (code2, _) = s.code.bytecode(s.inner.program().unwrap(), gen1, 2);
        assert_eq!(
            Arc::as_ptr(&code1),
            Arc::as_ptr(&code2),
            "bytecode must be reused across reruns"
        );
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

    #[test]
    fn session_errors_render_like_one_shot() {
        let mut s = CompileSession::new();
        s.update_source("main.genus", "int main() { return nope; }");
        let err = s.run(Engine::Ast, Limits::default()).unwrap_err();
        let one_shot = crate::run_simple("int main() { return nope; }").unwrap_err();
        assert_eq!(err, one_shot);
    }
}
