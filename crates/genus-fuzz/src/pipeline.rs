//! Compile-and-run plumbing for the fuzzer.
//!
//! `genus-fuzz` sits *below* the `genus` facade crate (the facade's CLI
//! depends on this crate, so depending back on it would be a cycle).
//! This module therefore re-creates the two thin pieces of facade
//! machinery the oracles need:
//!
//! 1. **Stdlib-seeded sessions** ([`stdlib_session`]): a
//!    [`genus_check::Session`] with the prelude and standard library
//!    registered as always-visible units and their parse trees taken
//!    from a process-wide memo, exactly mirroring the facade's
//!    `CompileSession::with_stdlib` layout (prelude at file 0, stdlib
//!    units at 1..=N) so memoized spans are valid in every session.
//! 2. **Per-engine leg runners** ([`run_ast`], [`run_vm`], [`run_tier`]):
//!    each executes `main()` on one engine and captures the [`Leg`]
//!    observables the oracles compare — rendered value or structured
//!    `(code, span)` trap, printed output, and resource counters.
//!
//! The AST interpreter needs a large native stack; callers run whole
//! fuzz loops inside [`with_big_stack`] rather than per-case threads.

use genus_check::{CheckReport, CheckedProgram, Session};
use genus_common::{ByteReader, ByteWriter, EdgeMap, Span};
use genus_heap::Heap;
use genus_interp::{Interp, Limits, ResourceStats, RuntimeError};
use genus_vm::{read_program, write_program, TierProgram, Vm, VmProgram};
use std::rc::Rc;
use std::sync::Arc;

/// Unit name every fuzz case is checked under.
pub const UNIT_NAME: &str = "fuzz.genus";

/// Native stack for anything that runs the AST interpreter: each Genus
/// frame costs tens of KiB of host stack in debug builds (same constant
/// as the facade's `INTERP_STACK_SIZE`).
pub const INTERP_STACK_SIZE: usize = 256 << 20;

/// A fresh checker session with the standard library registered and its
/// memoized parse trees installed.
pub fn stdlib_session() -> Session {
    Session::with_stdlib()
}

/// One-shot ("scratch") compile of a fuzz case: fresh session, stdlib
/// seeded, nothing warm. The incremental oracle compares this against a
/// long-lived session's view of the same source.
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

impl Leg {
    /// Whether the run died on the fuel/deadline meter (`R0009`). Fuel
    /// is counted in engine-specific units (AST statements vs VM
    /// opcodes), so a budgeted case where *any* leg trips the meter is
    /// excluded from parity comparison instead of reported as divergent.
    pub fn fuel_limited(&self) -> bool {
        matches!(&self.outcome, Err(e) if e.code() == "R0009")
    }

    /// The comparable shape of the outcome: the rendered value on
    /// success, the stable `(code, span)` pair on a trap. Message texts
    /// are deliberately not compared (engines may phrase them
    /// differently).
    pub fn outcome_key(&self) -> Result<&str, (&'static str, Span)> {
        match &self.outcome {
            Ok(v) => Ok(v.as_str()),
            Err(e) => Err((e.code(), e.span)),
        }
    }
}

/// Runs `main()` on the tree-walking interpreter. The caller must
/// provide a big native stack (see [`with_big_stack`]).
pub fn run_ast(prog: &CheckedProgram, limits: Limits) -> Leg {
    let mut interp = Interp::new(prog);
    interp.set_limits(limits);
    let outcome = interp.run_main().map(|v| interp.render(&v));
    Leg {
        outcome,
        stats: interp.resource_stats(),
        output: interp.take_output(),
    }
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
        vm.heap = Heap::with_stress(true);
    }
    if let Some(map) = cov {
        map.reset();
        vm.set_coverage(Rc::clone(map));
    }
    vm.set_limits(limits);
    let outcome = vm.run_main().map(|v| vm.render(&v));
    Leg {
        outcome,
        stats: vm.resource_stats(),
        output: vm.take_output(),
    }
}

/// Runs `main()` on the Tier 2 closure-compiled engine.
pub fn run_tier(prog: &CheckedProgram, tier: &TierProgram, limits: Limits) -> Leg {
    let mut vm = Vm::with_code(prog, Arc::clone(tier.code()));
    vm.set_limits(limits);
    let outcome = vm.run_main_tier(tier).map(|v| vm.render(&v));
    Leg {
        outcome,
        stats: vm.resource_stats(),
        output: vm.take_output(),
    }
}

/// Serializes compiled bytecode and reads it back (the round-trip
/// oracle's subject). Errors are the decoder's message.
pub fn roundtrip(code: &VmProgram, prog: &CheckedProgram) -> Result<VmProgram, String> {
    let mut w = ByteWriter::new();
    write_program(&mut w, code);
    let bytes = w.into_bytes();
    let mut r = ByteReader::new(&bytes);
    read_program(&mut r, prog)
}

/// Runs `f` on a thread with enough native stack for the AST
/// interpreter and returns its result. Fuzz loops (and oracle replays)
/// run entirely inside one such thread instead of paying a thread spawn
/// per case.
pub fn with_big_stack<R, F>(f: F) -> R
where
    R: Send + 'static,
    F: FnOnce() -> R + Send + 'static,
{
    std::thread::Builder::new()
        .name("genus-fuzz".to_string())
        .stack_size(INTERP_STACK_SIZE)
        .spawn(f)
        .expect("spawn fuzz thread")
        .join()
        .expect("fuzz thread panicked")
}
