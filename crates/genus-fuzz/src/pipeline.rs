//! Compile-and-run plumbing for the fuzzer's oracles.
//!
//! Checking goes through the same stdlib-seeded [`genus_check::Session`]
//! [`genus_vm::exec::CompileSession`] wraps ([`stdlib_session`], [`compile`]),
//! and every engine leg through the one run path,
//! [`genus_vm::exec::execute`]. A [`Leg`] keeps the part of an
//! [`Execution`] the oracles compare: rendered value or the trap's
//! stable code, printed output, and resource counters.
//!
//! The AST interpreter needs a large native stack; callers run whole
//! fuzz loops inside [`with_big_stack`] rather than per-case threads.

use genus_check::{CheckReport, CheckedProgram, Session};
use genus_common::{ByteReader, ByteWriter, EdgeMap};
use genus_heap::Heap;
use genus_interp::{Limits, ResourceStats, RuntimeError};
use genus_vm::exec::{execute, execute_vm, Code, Execution};
use genus_vm::{read_program, write_program, TierProgram, Vm, VmProgram};
use std::rc::Rc;
use std::sync::Arc;

pub use genus_interp::with_interp_stack as with_big_stack;

/// Unit name every fuzz case is checked under.
pub const UNIT_NAME: &str = "fuzz.genus";

/// A fresh checker session with the standard library registered and its
/// memoized parse trees installed.
pub fn stdlib_session() -> Session {
    Session::with_stdlib()
}

/// One-shot ("scratch") compile of a fuzz case: fresh session, stdlib
/// seeded, nothing warm. The incremental and base oracles compare it with
/// a long-lived session's view of the same source and the full build.
pub fn compile(src: &str) -> CheckReport {
    let mut s = stdlib_session();
    s.update_source(UNIT_NAME, src);
    s.check();
    s.into_report()
}

/// The observable behaviour of one engine run: everything the
/// differential oracles compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Leg {
    /// Rendered `main()` value, or the structured runtime trap.
    pub outcome: Result<String, RuntimeError>,
    /// Everything the program printed.
    pub output: String,
    /// Fuel / memory counters (`fuel_used` must match exactly between
    /// the VM and Tier 2; `mem_used` between plain and GC-stress runs).
    pub stats: ResourceStats,
}

impl From<Execution> for Leg {
    fn from(ex: Execution) -> Leg {
        Leg {
            outcome: ex.outcome,
            output: ex.output,
            stats: ex.resource_stats,
        }
    }
}

impl Leg {
    /// Whether the run died on the fuel/deadline meter (`R0009`). Fuel
    /// is counted in engine-specific units (AST statements vs VM
    /// opcodes), so a budgeted case where *any* leg trips the meter is
    /// excluded from parity comparison instead of reported as divergent.
    pub fn fuel_limited(&self) -> bool {
        matches!(&self.outcome, Err(e) if e.code() == "R0009")
    }

    /// The comparable shape of the outcome: the rendered value on
    /// success, the stable code on a trap. Message texts are
    /// deliberately not compared (engines may phrase them differently).
    pub fn outcome_key(&self) -> Result<&str, &'static str> {
        match &self.outcome {
            Ok(v) => Ok(v.as_str()),
            Err(e) => Err(e.code()),
        }
    }
}

/// Runs `main()` on the tree-walking interpreter. The caller must
/// provide a big native stack (see [`with_big_stack`]).
pub fn run_ast(prog: &CheckedProgram, limits: Limits) -> Leg {
    execute(prog, Code::Ast, limits).into()
}

/// Runs `main()` on the bytecode VM. `stress` swaps in a
/// collect-on-every-allocation heap (the GC oracle); `cov`, when given,
/// is reset and installed so the run's edges land in it.
pub fn run_vm(
    prog: &CheckedProgram,
    code: &Arc<VmProgram>,
    limits: Limits,
    stress: bool,
    cov: Option<&Rc<EdgeMap>>,
) -> Leg {
    let mut vm = Vm::with_code(prog, Arc::clone(code));
    if stress {
        vm.state.heap = Heap::with_stress(true);
    }
    if let Some(map) = cov {
        map.reset();
        vm.set_coverage(Rc::clone(map));
    }
    execute_vm(vm, None, limits).into()
}

/// Runs `main()` on the Tier 2 closure-compiled engine.
pub fn run_tier(prog: &CheckedProgram, tier: &TierProgram, limits: Limits) -> Leg {
    execute(prog, Code::Tier(tier), limits).into()
}

/// Serializes compiled bytecode and reads it back (the round-trip
/// oracle's subject). Errors are the decoder's message.
pub fn roundtrip(code: &VmProgram, prog: &CheckedProgram) -> Result<VmProgram, String> {
    let bytes = lowered_bytes(code);
    let mut r = ByteReader::new(&bytes);
    read_program(&mut r, prog)
}

/// The bytes [`write_program`] encodes `code` as.
pub fn lowered_bytes(code: &VmProgram) -> Vec<u8> {
    let mut w = ByteWriter::new();
    write_program(&mut w, code);
    w.into_bytes()
}
