//! The bytecode optimizer: automatic heterogeneous translation (§7.3)
//! plus classic intra-function cleanup.
//!
//! The VM's baseline compilation is the paper's *homogeneous* translation:
//! one copy of each generic body, parameterized over runtime type/model
//! witnesses passed through frame environments, with every constraint
//! operation dispatched through `Op::CallModel`. This module closes the
//! gap to the *heterogeneous* translation the paper credits for its
//! Table 1 wins, without giving up the dictionary-passing fallback:
//!
//! 0. **Reachability** (`reach`, level 2): a name-based call graph from
//!    `main` and the initializers. The later passes touch only what it
//!    reaches (and the clones made from it); everything else keeps its
//!    valid unoptimized body, so an over-approximation costs compile
//!    time and a miss costs speed, never correctness.
//! 1. **Specialization** (`specialize`): walk every function, find call
//!    sites whose type/model-argument tuples are closed terms (statically
//!    known), clone the callee per tuple with the bindings substituted
//!    into its spec tables, and rewrite the site to a direct call. Inside
//!    those clones, `Op::CallModel` sites become direct calls to model
//!    methods, virtual calls, or primitive built-ins. A per-function and
//!    global clone budget bounds code growth; over-budget or dynamically
//!    known sites (model variables bound by `Open`, existential
//!    witnesses) keep the dictionary-passing original.
//! 2. **Cleanup** (`cleanup`): constant folding and propagation, branch
//!    folding on constant conditions, jump threading, `Move` coalescing,
//!    and unreachable-code elimination.
//! 3. **Inlining** (`inline`, level 2): splice each `Op::CallDirect` to a
//!    small frameless leaf into its caller behind an `Op::Inline` prologue
//!    that keeps the call's traps, then clean the changed bodies again.
//! 4. **Type reification**: `types`-table entries that are closed and
//!    existential-free are pre-evaluated once into
//!    [`VmProgram::rt_types`], so `NewArray`/`DefaultValue`/`InstanceOf`/
//!    `Cast` skip per-execution type evaluation.
//!
//! Every transformation preserves observable behaviour exactly — values,
//! output bytes, error codes *and* messages — which the differential
//! suites check at every opt level.

mod cleanup;
mod inline;
mod reach;
mod specialize;
pub(crate) mod subst;

use crate::bytecode::VmProgram;
use crate::compile::compile_program;
use genus_check::CheckedProgram;
use genus_interp::rtti::{self, MEnv, TEnv};

/// Counters reported by `--stats`: what the pipeline did to a program.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OptStats {
    /// The level the program was optimized at (0 = untouched).
    pub level: u8,
    /// Specialized clones created (heterogeneous translation).
    pub funcs_specialized: usize,
    /// Call sites rewritten to `Op::CallDirect`.
    pub calls_directed: usize,
    /// `Op::CallModel` sites devirtualized (to direct, virtual, static,
    /// or primitive calls).
    pub call_model_devirted: usize,
    /// `Op::CallVirtual` sites rewritten to direct calls by
    /// class-hierarchy analysis (one possible target in the closed
    /// class tree).
    pub calls_devirted: usize,
    /// Specialization requests declined by the clone budget.
    pub budget_fallbacks: usize,
    /// `CallModel` sites kept on dictionary passing because the witness
    /// or receiver/argument types are only dynamically known.
    pub dynamic_fallbacks: usize,
    /// Operations folded to constants.
    pub consts_folded: usize,
    /// Conditional branches folded on constant conditions.
    pub branches_folded: usize,
    /// `Move`s coalesced into their producing instruction.
    pub moves_coalesced: usize,
    /// Instructions removed (dead code, threaded jumps, no-ops).
    pub ops_eliminated: usize,
    /// `Op::CallDirect` sites replaced by the callee's body.
    pub calls_inlined: usize,
    /// Compiled functions outside the set reachable from `main` and the
    /// initializers, left unoptimized.
    pub funcs_unreached: usize,
    /// `types`-table entries pre-reified into `rt_types`.
    pub types_reified: usize,
}

/// Compiles `prog` and runs the optimization pipeline at `level`
/// (clamped to `0..=2`).
#[must_use]
pub fn compile_optimized(prog: &CheckedProgram, level: u8) -> VmProgram {
    let mut code = compile_program(prog);
    optimize(&mut code, prog, level);
    code
}

/// Runs the pipeline in place. Level 1 is cleanup and type reification
/// over every function. Level 2 first finds the functions reachable from
/// `main` and the initializers, then runs specialization, cleanup,
/// inlining and a second cleanup (of the bodies inlining changed) over
/// those and their clones only; the rest keep their unoptimized bodies.
/// Level 0 leaves the program untouched.
pub fn optimize(code: &mut VmProgram, prog: &CheckedProgram, level: u8) {
    let level = level.min(2);
    code.opt_stats.level = level;
    if level == 0 {
        return;
    }
    if level >= 2 {
        let live = specialize_reachable(code, prog);
        cleanup::cleanup(code, &live);
        let inlined = inline::inline(code, &live);
        cleanup::cleanup(code, &inlined);
    } else {
        cleanup::cleanup(code, &vec![true; code.funcs.len()]);
    }
    reify_types(code, prog);
}

/// The first O2 stage: finds the reachable functions and specializes
/// them. Returns the set to optimize further, one flag per function:
/// the reachable originals and every clone.
fn specialize_reachable(code: &mut VmProgram, prog: &CheckedProgram) -> Vec<bool> {
    let mut live = reach::reachable(code, prog);
    code.opt_stats.funcs_unreached = live.iter().filter(|&&r| !r).count();
    specialize::specialize(code, prog, &live);
    live.resize(code.funcs.len(), true);
    live
}

/// Compiles `prog` and stops the O2 pipeline right after specialization,
/// so tests see the specializer's own output.
#[cfg(test)]
pub(crate) fn compile_specialized(prog: &CheckedProgram) -> VmProgram {
    let mut code = compile_program(prog);
    specialize_reachable(&mut code, prog);
    code
}

/// Pre-evaluates every closed, existential-free `types` entry. Closed
/// terms evaluate identically under any environment, and non-existential
/// targets take the plain reified path in `instanceof`/`cast`, so the VM
/// can substitute the cached reification wherever one exists.
pub(crate) fn reify_types(code: &mut VmProgram, prog: &CheckedProgram) {
    let (tenv, menv) = (TEnv::new(), MEnv::new());
    let mut out = Vec::with_capacity(code.types.len());
    for t in &code.types {
        if subst::ty_closed(t) && !subst::contains_existential(t) {
            code.opt_stats.types_reified += 1;
            out.push(Some(rtti::eval_type(prog, &tenv, &menv, t)));
        } else {
            out.push(None);
        }
    }
    code.rt_types = out;
}
