//! The one run path: run `main()` on an engine and collect what the run
//! showed — the rendered value or trap, the printed output, and the
//! counters.
//!
//! Every caller that runs a program goes through [`execute`]: the
//! `genus` facade (`Compiler` and `CompileSession`) and its CLI,
//! `genus-serve`'s workers and sessions, and the fuzzer's oracle legs.
//! This crate is the lowest one that sees all three engines. Callers
//! choose and cache the code to run ([`Code`]); how an engine is set up,
//! limited, run and read out is written here once.

use crate::tier::{TierProgram, TierStats};
use crate::{compile_optimized, compile_tier, OptStats, Vm, VmProgram};
use genus_check::CheckedProgram;
use genus_interp::{DispatchStats, Interp, Limits, ResourceStats, RuntimeError};
use genus_types::CacheStats;
use std::sync::Arc;

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

/// Runs `main()` of `prog` on the engine `code` names, under `limits`.
/// Each run gets a fresh engine and heap that die with it.
#[must_use]
pub fn execute(prog: &CheckedProgram, code: Code<'_>, limits: Limits) -> Execution {
    match code {
        Code::Ast => {
            let cache_base = prog.table.cache.stats();
            let mut interp = Interp::new(prog);
            interp.set_limits(limits);
            let outcome = interp.run_main().map(|v| interp.render(&v));
            Execution {
                outcome,
                output: interp.take_output(),
                dispatch_stats: interp.dispatch_stats(),
                cache_stats: prog.table.cache.stats().since(&cache_base),
                opt_stats: None,
                resource_stats: interp.resource_stats(),
                tier_stats: None,
            }
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
    vm.set_limits(limits);
    let outcome = match tier {
        Some(tier) => vm.run_main_tier(tier),
        None => vm.run_main(),
    }
    .map(|v| vm.render(&v));
    Execution {
        outcome,
        output: vm.take_output(),
        dispatch_stats: vm.dispatch_stats(),
        cache_stats: vm.prog.table.cache.stats().since(&cache_base),
        opt_stats: Some(vm.code.opt_stats),
        resource_stats: vm.resource_stats(),
        tier_stats: tier.map(TierProgram::compiled),
    }
}

/// An editable program's compiled code: its bytecode and the Tier-2
/// closures over that bytecode, each compiled at most once per
/// `(generation, opt level)`. A generation is a number the owner changes
/// whenever the checked program may have changed (a compile session's
/// counter), so an unchanged program keeps its code and an edit compiles
/// it again exactly once.
#[derive(Default)]
pub struct CodeSlot {
    code: Option<SlotCode>,
}

/// The code of one `(generation, opt)`: the bytecode, and the Tier-2
/// closures once a run asked for them.
struct SlotCode {
    key: (u64, u8),
    vm: Arc<VmProgram>,
    tier: Option<Arc<TierProgram>>,
}

impl CodeSlot {
    /// The bytecode of `prog` at `opt`, and whether it was reused from an
    /// earlier call under the same `(generation, opt)`. Compiling drops
    /// the Tier-2 closures of the code it replaces.
    pub fn bytecode(
        &mut self,
        prog: &CheckedProgram,
        generation: u64,
        opt: u8,
    ) -> (Arc<VmProgram>, bool) {
        if let Some(c) = &self.code {
            if c.key == (generation, opt) {
                return (Arc::clone(&c.vm), true);
            }
        }
        let vm = Arc::new(compile_optimized(prog, opt));
        self.code = Some(SlotCode {
            key: (generation, opt),
            vm: Arc::clone(&vm),
            tier: None,
        });
        (vm, false)
    }

    /// The Tier-2 closures over [`CodeSlot::bytecode`]'s code, and
    /// whether they were reused.
    pub fn tier(
        &mut self,
        prog: &CheckedProgram,
        generation: u64,
        opt: u8,
    ) -> (Arc<TierProgram>, bool) {
        let (code, _) = self.bytecode(prog, generation, opt);
        let slot = &mut self.code.as_mut().expect("bytecode() filled the slot").tier;
        let reused = slot.is_some();
        let tier = slot.get_or_insert_with(|| Arc::new(compile_tier(&code)));
        (Arc::clone(tier), reused)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile_optimized, compile_tier};
    use genus_check::check_source;
    use genus_interp::with_interp_stack;

    const SRC: &str = "class Box { int v; Box(int v) { this.v = v; } }
        int main() {
          int s = 0;
          for (int i = 0; i < 50; i = i + 1) { s = s + new Box(i).v; }
          println(\"sum \" + s);
          return s;
        }";

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
        vm.heap = genus_heap::Heap::with_stress(true);
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
}
