//! Tier 2: a closure-compiled execution engine.
//!
//! The register VM (`crate::vm`) interprets bytecode through a central
//! fetch/decode loop: every executed instruction pays for the stack-top
//! lookup, the function/code indexing, the `pc` bump, and the big opcode
//! match. This module removes that loop by translating each compiled
//! [`VmFunc`] — *after* the optimizer has run, so specialization and
//! devirtualization (§7.3 heterogeneous translation) have already done
//! their work — into a tree of pre-resolved nested Rust closures.
//!
//! # One definition per opcode
//!
//! What an op does — its value, its trap kind and message, its meter
//! charge — is written once, as a `Vm::op_*` routine in `crate::vm`.
//! Each closure here calls the same routine as the VM loop's arm for
//! that op, with its operands decided at translation time instead of
//! decoded per execution:
//!
//! - operands are **captured register indices** and spec payloads;
//! - a type operand is decided **reified or open** once (`Ty`);
//! - `CallDirect` captures its spec, so a specialized call builds the
//!   callee frame in place with zero dispatch;
//! - primitive constants are **captured immediates** (string constants
//!   stay pool clones, sharing the pool's `Rc`).
//!
//! A few shapes are computed inline, and each falls back to the shared
//! routine on any other operand, so none raises a trap of its own:
//! `int` add/sub/mul fall back to `Vm::op_arith`, the six `int`
//! orderings to `Vm::op_cmp`, and a `PrimCall` of `compareTo` or
//! `equals` on two `int`s to `Vm::op_prim_call`.
//!
//! # Block structure and the outer loop
//!
//! A function is split into basic blocks at jump targets and after every
//! frame-pushing call. Each block is compiled *backwards* into one nested
//! closure chain: the closure for instruction `i` captures the closure
//! for instruction `i + 1` and tail-calls it, so straight-line code runs
//! with no dispatch at all. A block returns a `Ctl` transfer:
//! `Jump(block)`, `Ret(value)`, or `Call(frame)`. The outer loop in
//! [`Vm::run_main_tier`] keeps Genus frames in the same explicit stack
//! the VM uses (`VmFrame::pc` is reinterpreted as a *block* index — entry
//! is block 0, matching the VM's `pc = 0` convention), so the host stack
//! stays flat and [`genus_interp::MAX_DEPTH`] keeps its meaning.
//!
//! # Meter parity (R0009/R0010 by construction)
//!
//! Every op closure begins with `vm.state.meter.step()?` — exactly one step per
//! executed opcode, the same accounting as the VM loop's per-iteration
//! step — and the shared routines make every other charge. Fuel and
//! memory traps therefore fire after the *identical* step/unit sequence
//! on both tiers: the differential
//! harness asserts `fuel_used` equality, not mere trap agreement.
//! Nested execution (field-initializer chains, `toString` dispatch from
//! stringification, static initializers) runs on the VM loop via the
//! shared `run_call` machinery, which meters identically.
//!
//! # Lazy translation
//!
//! [`compile_tier`] only allocates one empty slot per bytecode function;
//! a function is translated on its first entry, as a JVM compiles a
//! method when it first runs. A program that links the whole stdlib
//! therefore pays only for the functions it actually calls. Each slot is
//! a [`OnceLock`], so one `Arc<TierProgram>` stays shareable across serve
//! workers: racing first entries translate a function exactly once, and
//! the losers wait for the winner's result. Translation itself never
//! touches a slot — thunks capture callee [`FuncId`]s, never another
//! function's compiled form — so a recursive call cannot re-enter its own
//! initialization, and recursion needs no special case. When a function
//! is translated changes nothing a run can observe: its thunks, their
//! metering and nested VM-loop execution do not depend on it.

use crate::bytecode::{Const, FuncId, Op, VmFunc, VmProgram};
use crate::vm::{Action, Ty, Vm, VmFrame};
use genus_check::hir::NumKind;
use genus_common::FastMap;
use genus_interp::{RtType, RuntimeError, Value};
use genus_syntax::ast::BinOp;
use genus_types::Type;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

type RResult<T> = Result<T, RuntimeError>;

/// Control transfer out of a compiled block.
///
/// Deliberately small: every op closure in a chain returns
/// `Result<Ctl>` by value, so a frame-sized variant would put a
/// `VmFrame` memcpy on every executed instruction. Call transfers park
/// the callee in [`Vm::pending_call`] instead.
pub(crate) enum Ctl {
    /// Continue at this block of the current function.
    Jump(u32),
    /// Return a value to the parent frame (or finish the root).
    Ret(Value),
    /// Push the callee frame parked in `Vm::pending_call`. Its `dst` is
    /// already set, and the *caller's* `pc` already points at the
    /// resume block.
    Call,
}

/// One compiled instruction chain. Thunks capture only `Send + Sync`
/// data (indices, [`crate::bytecode::Const`]-style literals, types,
/// symbols — never `Value`s), so a [`TierProgram`] can be cached once
/// and shared across serve workers like the bytecode it was built from.
pub(crate) type Thunk =
    Box<dyn for<'a, 'p> Fn(&'a Vm<'p>, &mut VmFrame) -> RResult<Ctl> + Send + Sync>;

/// A function compiled to closure trees, one per basic block.
pub struct CompiledFunc {
    pub(crate) blocks: Vec<Thunk>,
}

/// Tier-translation counters (the `funcs_tiered` anti-vacuity signal of
/// the differential tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Functions translated to closure trees.
    pub funcs_tiered: usize,
    /// Total basic blocks across those functions.
    pub blocks: usize,
    /// Functions in the bytecode, translated or not.
    pub funcs_in_program: usize,
}

/// A whole program prepared for Tier 2, pinned to the exact bytecode it
/// was built from (thunks capture indices into that program's pools).
/// Each function is translated on its first entry; see the module docs
/// on lazy translation.
pub struct TierProgram {
    code: Arc<VmProgram>,
    /// One slot per bytecode function, filled by [`TierProgram::func`].
    funcs: Vec<OnceLock<CompiledFunc>>,
    funcs_tiered: AtomicUsize,
    blocks: AtomicUsize,
    /// What [`compile_tier`] translated up front: its `funcs_tiered` and
    /// `blocks` are always zero, since every function is translated on
    /// its first entry. Read [`TierProgram::compiled`] for what running
    /// the program translated.
    pub stats: TierStats,
}

impl TierProgram {
    /// The bytecode this tier program was compiled from.
    #[must_use]
    pub fn code(&self) -> &Arc<VmProgram> {
        &self.code
    }

    /// The functions translated so far, over every run of this program.
    #[must_use]
    pub fn compiled(&self) -> TierStats {
        TierStats {
            funcs_tiered: self.funcs_tiered.load(Ordering::Relaxed),
            blocks: self.blocks.load(Ordering::Relaxed),
            funcs_in_program: self.funcs.len(),
        }
    }

    /// Function `id`'s closure trees, translating it on first entry.
    /// Sound for recursion only because [`compile_func`] never touches a
    /// slot: re-entering `get_or_init` on the slot being filled is an
    /// error (it deadlocks or panics).
    fn func(&self, id: FuncId) -> &CompiledFunc {
        self.funcs[id.0 as usize].get_or_init(|| {
            let cf = compile_func(&self.code, &self.code.funcs[id.0 as usize]);
            self.funcs_tiered.fetch_add(1, Ordering::Relaxed);
            self.blocks.fetch_add(cf.blocks.len(), Ordering::Relaxed);
            cf
        })
    }
}

/// Compile-time proof that a tier-compiled program can be cached once
/// and shared across serve workers (`Arc<TierProgram>`).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TierProgram>();
};

/// Prepares `code` for Tier 2: one empty slot per function, each filled
/// on the function's first entry.
#[must_use]
pub fn compile_tier(code: &Arc<VmProgram>) -> TierProgram {
    TierProgram {
        code: Arc::clone(code),
        funcs: code.funcs.iter().map(|_| OnceLock::new()).collect(),
        funcs_tiered: AtomicUsize::new(0),
        blocks: AtomicUsize::new(0),
        stats: TierStats {
            funcs_in_program: code.funcs.len(),
            ..TierStats::default()
        },
    }
}

impl<'p> Vm<'p> {
    /// Runs static initializers then `main()` on the closure-compiled
    /// tier. `tier` must have been compiled from this VM's bytecode.
    ///
    /// # Errors
    ///
    /// Returns the first uncaught [`RuntimeError`].
    ///
    /// # Panics
    ///
    /// Panics if `tier` was compiled from a different [`VmProgram`].
    pub fn run_main_tier(&mut self, tier: &TierProgram) -> RResult<Value> {
        assert!(
            Arc::ptr_eq(self.code(), tier.code()),
            "tier program was compiled from different bytecode"
        );
        match self.main_call()? {
            Action::Value(v) => Ok(v),
            Action::Frame(f) => self.nested(|| self.tier_frames(tier, f)),
        }
    }

    /// The tier's outer loop: runs block thunks, applying their control
    /// transfers against the same explicit frame stack as the VM.
    fn tier_frames(&self, tier: &TierProgram, root: VmFrame) -> RResult<Value> {
        self.enter(root.counted)?;
        let mut cur = tier.func(root.func);
        let mut stack: Vec<VmFrame> = vec![root];
        loop {
            // Block granularity is a coarser GC cadence than the VM
            // loop's per-op poll — byte accounting and R0010 sites are
            // charge-driven and GC-timing independent, so parity holds.
            if self.nesting.get() == 1 {
                self.maybe_gc(&stack);
            }
            let frame = stack.last_mut().expect("frame");
            match cur.blocks[frame.pc](self, frame)? {
                Ctl::Jump(b) => frame.pc = b as usize,
                Ctl::Ret(v) => {
                    if let Some(v) = self.pop_frame(&mut stack, v) {
                        return Ok(v);
                    }
                    cur = tier.func(stack.last().expect("frame").func);
                }
                Ctl::Call => {
                    let callee = self.pending_call.take().expect("parked callee frame");
                    self.enter(callee.counted)?;
                    cur = tier.func(callee.func);
                    stack.push(callee);
                }
            }
        }
    }
}

/// Type alias soup for the block maps.
type BlockMap = FastMap<usize, u32>;

/// Translates one function. It reads only the bytecode, never a
/// [`TierProgram`] slot, so [`TierProgram::func`] may call it inside the
/// slot's `get_or_init`.
fn compile_func(code: &VmProgram, f: &VmFunc) -> CompiledFunc {
    // Leaders: entry, every jump target, and the resume point after
    // every frame-pushing call (returns re-enter at a block boundary).
    let mut leaders: Vec<usize> = vec![0];
    for (pc, op) in f.code.iter().enumerate() {
        if let Some(target) = op.target() {
            leaders.push(target as usize);
        }
        if matches!(
            op,
            Op::CallDirect { .. }
                | Op::CallVirtual { .. }
                | Op::CallStatic { .. }
                | Op::CallGlobal { .. }
                | Op::CallModel { .. }
                | Op::New { .. }
        ) {
            leaders.push(pc + 1);
        }
    }
    leaders.sort_unstable();
    leaders.dedup();
    leaders.retain(|&l| l < f.code.len());
    let block_of: BlockMap = leaders
        .iter()
        .enumerate()
        .map(|(i, &pc)| (pc, i as u32))
        .collect();
    let mut blocks = Vec::with_capacity(leaders.len());
    for (i, &start) in leaders.iter().enumerate() {
        let end = leaders.get(i + 1).copied().unwrap_or(f.code.len());
        blocks.push(compile_block(code, f, start, end, &block_of));
    }
    CompiledFunc { blocks }
}

/// Compiles `f.code[start..end]` into one closure chain, built backwards
/// so each op captures its continuation.
fn compile_block(
    code: &VmProgram,
    f: &VmFunc,
    start: usize,
    end: usize,
    blocks: &BlockMap,
) -> Thunk {
    // Fall-through continuation into the next leader. Never invoked when
    // the block ends in a terminator (those closures don't capture it).
    let mut next: Thunk = match blocks.get(&end) {
        Some(&b) => Box::new(move |_, _| Ok(Ctl::Jump(b))),
        None => Box::new(|_, _| unreachable!("block falls off the function end")),
    };
    for pc in (start..end).rev() {
        next = op_thunk(code, f.code[pc], pc, next, blocks);
    }
    next
}

/// The block index a jump target belongs to (targets are leaders by
/// construction).
fn target_block(blocks: &BlockMap, target: u32) -> u32 {
    *blocks
        .get(&(target as usize))
        .expect("jump target is a block leader")
}

/// A type operand decided at translation time: an owned [`Ty`].
enum TyRef {
    Reified(RtType),
    Open(Type),
}

impl TyRef {
    fn of(code: &VmProgram, ty: u32) -> TyRef {
        match Ty::of(code, ty) {
            Ty::Reified(rt) => TyRef::Reified(rt.clone()),
            Ty::Open(t) => TyRef::Open(t.clone()),
        }
    }

    fn get(&self) -> Ty<'_> {
        match self {
            TyRef::Reified(rt) => Ty::Reified(rt),
            TyRef::Open(t) => Ty::Open(t),
        }
    }
}

/// Parks `callee` for the outer loop to push, with the caller resuming
/// at block `resume`.
fn park(vm: &Vm<'_>, f: &mut VmFrame, resume: u32, callee: VmFrame) -> Ctl {
    f.pc = resume as usize;
    vm.pending_call.set(Some(callee));
    Ctl::Call
}

/// Applies a resolved call: immediate values jump straight to the resume
/// block, frames return to the caller's `dst` and are parked.
fn finish_call(
    vm: &Vm<'_>,
    f: &mut VmFrame,
    dst: u16,
    resume: u32,
    action: Action,
) -> RResult<Ctl> {
    match action {
        Action::Value(v) => {
            f.regs[dst as usize] = v;
            Ok(Ctl::Jump(resume))
        }
        Action::Frame(mut callee) => {
            callee.dst = Some(dst);
            Ok(park(vm, f, resume, callee))
        }
    }
}

/// Boxes a closure as a [`Thunk`] (guides HRTB inference).
fn thunk(
    t: impl for<'a, 'p> Fn(&'a Vm<'p>, &mut VmFrame) -> RResult<Ctl> + Send + Sync + 'static,
) -> Thunk {
    Box::new(t)
}

/// An op that falls through: one fuel step, its routine `op`, then the
/// rest of the block.
fn seq(
    rest: Thunk,
    op: impl for<'a, 'p> Fn(&'a Vm<'p>, &mut VmFrame) -> RResult<()> + Send + Sync + 'static,
) -> Thunk {
    thunk(move |vm, f| {
        vm.state.meter.step()?;
        op(vm, f)?;
        rest(vm, f)
    })
}

/// A call that ends its block: one fuel step, the routine `op` that
/// resolves it, then [`finish_call`].
fn call(
    dst: u16,
    resume: u32,
    op: impl for<'a, 'p> Fn(&'a Vm<'p>, &VmFrame) -> RResult<Action> + Send + Sync + 'static,
) -> Thunk {
    thunk(move |vm, f| {
        vm.state.meter.step()?;
        let action = op(vm, f)?;
        finish_call(vm, f, dst, resume, action)
    })
}

/// Compiles one instruction into a closure over its continuation: the
/// operands captured, the op's shared `Vm::op_*` routine called.
#[allow(clippy::too_many_lines)]
fn op_thunk(code: &VmProgram, op: Op, pc: usize, rest: Thunk, blocks: &BlockMap) -> Thunk {
    let resume = || target_block(blocks, pc as u32 + 1);
    match op {
        Op::Const { dst, k } => match code.consts[k as usize].clone() {
            // Strings stay indexed clones: the VM's pool shares one `Rc`
            // per literal, and `Const::to_value` would rebuild the
            // allocation on every execution.
            Const::Str(_) => seq(rest, move |vm, f| {
                vm.op_const(f, dst, k);
                Ok(())
            }),
            // Primitives become captured immediates — no pool lookup, no
            // clone dispatch.
            c => seq(rest, move |_, f| {
                f.regs[dst as usize] = c.to_value();
                Ok(())
            }),
        },
        Op::Move { dst, src } => seq(rest, move |vm, f| {
            vm.op_move(f, dst, src);
            Ok(())
        }),
        Op::Jump { target } => {
            let b = target_block(blocks, target);
            thunk(move |vm, _| {
                vm.state.meter.step()?;
                Ok(Ctl::Jump(b))
            })
        }
        Op::JumpIfFalse { cond, target } | Op::JumpIfTrue { cond, target } => {
            let b = target_block(blocks, target);
            let on = matches!(op, Op::JumpIfTrue { .. });
            thunk(move |vm, f| {
                vm.state.meter.step()?;
                if vm.op_cond(f, cond)? == on {
                    Ok(Ctl::Jump(b))
                } else {
                    rest(vm, f)
                }
            })
        }
        Op::Return { src } => thunk(move |vm, f| {
            vm.state.meter.step()?;
            Ok(Ctl::Ret(f.regs[src as usize].clone()))
        }),
        Op::ReturnVoid => thunk(move |vm, _| {
            vm.state.meter.step()?;
            Ok(Ctl::Ret(Value::Void))
        }),
        Op::FallOff => thunk(move |vm, _| {
            vm.state.meter.step()?;
            Err(vm.op_fall_off())
        }),
        Op::Escaped => thunk(move |vm, _| {
            vm.state.meter.step()?;
            Err(vm.op_escaped())
        }),
        Op::GetField { dst, obj, slot } => {
            seq(rest, move |vm, f| vm.op_get_field(f, dst, obj, slot))
        }
        Op::SetField { obj, slot, src } => {
            seq(rest, move |vm, f| vm.op_set_field(f, obj, slot, src))
        }
        Op::GetStatic { dst, class, field } => seq(rest, move |vm, f| {
            vm.op_get_static(f, dst, class, field);
            Ok(())
        }),
        Op::SetStatic { class, field, src } => seq(rest, move |vm, f| {
            vm.op_set_static(f, class, field, src);
            Ok(())
        }),
        Op::Arith { dst, op, nk, l, r } => arith_thunk(dst, op, nk, l, r, rest),
        Op::Cmp { dst, op, nk, l, r } => cmp_thunk(dst, op, nk, l, r, rest),
        Op::RefEq { dst, l, r, negate } => seq(rest, move |vm, f| {
            vm.op_ref_eq(f, dst, l, r, negate);
            Ok(())
        }),
        Op::Concat { dst, l, r } => seq(rest, move |vm, f| vm.op_concat(f, dst, l, r)),
        Op::Not { dst, src } => seq(rest, move |vm, f| vm.op_not(f, dst, src)),
        Op::Neg { dst, src, nk } => seq(rest, move |vm, f| vm.op_neg(f, dst, src, nk)),
        Op::Widen { dst, src, to } => seq(rest, move |vm, f| {
            vm.op_widen(f, dst, src, to);
            Ok(())
        }),
        Op::NewArray { dst, len, elem } => {
            let elem = TyRef::of(code, elem);
            seq(rest, move |vm, f| vm.op_new_array(f, dst, len, elem.get()))
        }
        Op::ArrayLen { dst, arr } => seq(rest, move |vm, f| vm.op_array_len(f, dst, arr)),
        Op::ArrayGet { dst, arr, idx } => seq(rest, move |vm, f| vm.op_array_get(f, dst, arr, idx)),
        Op::ArraySet { arr, idx, src } => seq(rest, move |vm, f| vm.op_array_set(f, arr, idx, src)),
        Op::InstanceOf { dst, src, ty } => {
            let ty = TyRef::of(code, ty);
            seq(rest, move |vm, f| {
                vm.op_instance_of(f, dst, src, ty.get());
                Ok(())
            })
        }
        Op::Cast { dst, src, ty } => {
            let ty = TyRef::of(code, ty);
            seq(rest, move |vm, f| vm.op_cast(f, dst, src, ty.get()))
        }
        Op::DefaultValue { dst, ty } => {
            let ty = TyRef::of(code, ty);
            seq(rest, move |vm, f| {
                vm.op_default(f, dst, ty.get());
                Ok(())
            })
        }
        Op::Pack { dst, src, spec } => {
            let s = code.pack_specs[spec as usize].clone();
            seq(rest, move |vm, f| vm.op_pack(f, dst, src, &s))
        }
        Op::Open { dst, src, spec } => {
            let s = code.open_specs[spec as usize].clone();
            seq(rest, move |vm, f| vm.op_open(f, dst, src, &s))
        }
        Op::Print { src, newline } => seq(rest, move |vm, f| {
            vm.op_print(f, src, newline);
            Ok(())
        }),
        Op::CallVirtual {
            dst,
            recv,
            spec,
            site,
        } => {
            let s = code.virt_specs[spec as usize].clone();
            call(dst, resume(), move |vm, f| {
                vm.op_call_virtual(f, recv, &s, site)
            })
        }
        Op::CallStatic { dst, spec } => {
            let s = code.static_specs[spec as usize].clone();
            call(dst, resume(), move |vm, f| vm.op_call_static(f, &s))
        }
        Op::CallGlobal { dst, spec } => {
            let s = code.global_specs[spec as usize].clone();
            call(dst, resume(), move |vm, f| vm.op_call_global(f, &s))
        }
        Op::CallModel { dst, spec, site } => {
            let s = code.model_specs[spec as usize].clone();
            call(dst, resume(), move |vm, f| vm.op_call_model(f, &s, site))
        }
        Op::CallDirect { dst, spec } => {
            // Resolved at translation time: the callee, receiver, null
            // check and argument registers are captured, and the callee
            // frame is built in place.
            let s = code.direct_specs[spec as usize].clone();
            call(dst, resume(), move |vm, f| {
                vm.op_call_direct(f, &s).map(Action::Frame)
            })
        }
        Op::Inline {
            recv,
            this,
            null_check,
            nest,
        } => seq(rest, move |vm, f| {
            vm.op_inline(f, recv, this, null_check, nest)
        }),
        Op::New { dst, spec } => {
            let s = code.new_specs[spec as usize].clone();
            let resume = resume();
            thunk(move |vm, f| {
                vm.state.meter.step()?;
                let ctor = vm.op_new(f, dst, &s)?;
                Ok(park(vm, f, resume, ctor))
            })
        }
        Op::PrimCall { dst, spec } => {
            let s = code.prim_specs[spec as usize].clone();
            // `natives::prim_call` dispatches on the method *name string*
            // and takes its arguments in a fresh `Vec`: per-call costs a
            // devirtualized natural-model method should not pay. The two
            // hottest names on two `int`s are computed here; any other
            // operand falls back to the shared routine.
            match (s.recv, s.name.as_str(), s.args.len()) {
                (Some(r), "compareTo", 1) => {
                    let a = s.args[0];
                    seq(rest, move |vm, f| {
                        match (&f.regs[r as usize], &f.regs[a as usize]) {
                            (&Value::Int(x), &Value::Int(y)) => {
                                f.regs[dst as usize] = Value::Int(x.cmp(&y) as i32);
                                Ok(())
                            }
                            _ => vm.op_prim_call(f, dst, &s),
                        }
                    })
                }
                (Some(r), "equals", 1) => {
                    let a = s.args[0];
                    seq(rest, move |vm, f| {
                        match (&f.regs[r as usize], &f.regs[a as usize]) {
                            (&Value::Int(x), &Value::Int(y)) => {
                                f.regs[dst as usize] = Value::Bool(x == y);
                                Ok(())
                            }
                            _ => vm.op_prim_call(f, dst, &s),
                        }
                    })
                }
                _ => seq(rest, move |vm, f| vm.op_prim_call(f, dst, &s)),
            }
        }
        Op::Native { dst, spec } => {
            let s = code.native_specs[spec as usize].clone();
            seq(rest, move |vm, f| vm.op_native(f, dst, &s))
        }
    }
}

/// `Arith` with the hot `int` add/sub/mul computed inline; any other
/// shape, and any operand that is not an `int`, takes the shared
/// [`Vm::op_arith`].
fn arith_thunk(dst: u16, op: BinOp, nk: NumKind, l: u16, r: u16, rest: Thunk) -> Thunk {
    macro_rules! int_fast {
        ($apply:expr) => {
            seq(rest, move |vm, f| {
                match (&f.regs[l as usize], &f.regs[r as usize]) {
                    (&Value::Int(a), &Value::Int(b)) => {
                        f.regs[dst as usize] = Value::Int($apply(a, b));
                        Ok(())
                    }
                    _ => vm.op_arith(f, dst, op, nk, l, r),
                }
            })
        };
    }
    match (op, nk) {
        (BinOp::Add, NumKind::Int) => int_fast!(i32::wrapping_add),
        (BinOp::Sub, NumKind::Int) => int_fast!(i32::wrapping_sub),
        (BinOp::Mul, NumKind::Int) => int_fast!(i32::wrapping_mul),
        _ => seq(rest, move |vm, f| vm.op_arith(f, dst, op, nk, l, r)),
    }
}

/// `Cmp` with the six `int` orderings computed inline, falling back to
/// the shared [`Vm::op_cmp`] like [`arith_thunk`].
fn cmp_thunk(dst: u16, op: BinOp, nk: NumKind, l: u16, r: u16, rest: Thunk) -> Thunk {
    macro_rules! int_fast {
        ($apply:expr) => {
            seq(rest, move |vm, f| {
                match (&f.regs[l as usize], &f.regs[r as usize]) {
                    (&Value::Int(a), &Value::Int(b)) => {
                        f.regs[dst as usize] = Value::Bool($apply(a, b));
                        Ok(())
                    }
                    _ => vm.op_cmp(f, dst, op, nk, l, r),
                }
            })
        };
    }
    match (op, nk) {
        (BinOp::Lt, NumKind::Int) => int_fast!(|a, b| a < b),
        (BinOp::Le, NumKind::Int) => int_fast!(|a, b| a <= b),
        (BinOp::Gt, NumKind::Int) => int_fast!(|a, b| a > b),
        (BinOp::Ge, NumKind::Int) => int_fast!(|a, b| a >= b),
        (BinOp::Eq, NumKind::Int) => int_fast!(|a, b| a == b),
        (BinOp::Ne, NumKind::Int) => int_fast!(|a, b| a != b),
        _ => seq(rest, move |vm, f| vm.op_cmp(f, dst, op, nk, l, r)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::compile_optimized;
    use genus_check::check_source;
    use genus_heap::meter::Limits;

    /// One engine's run: its rendered outcome, output and fuel.
    type TierRun = (RResult<String>, String, u64);

    fn run_both_tiers(src: &str, limits: Option<Limits>) -> (TierRun, TierRun) {
        let prog = check_source(src).unwrap_or_else(|e| panic!("check failed:\n{e}"));
        let code = Arc::new(compile_optimized(&prog, 2));
        let mut vm = Vm::with_code(&prog, Arc::clone(&code));
        if let Some(l) = limits {
            vm.state.set_limits(l);
        }
        // Render on the owning VM: handles are per-heap indices.
        let v = vm.run_main().map(|v| vm.render(&v));
        let vm_out = (v, vm.take_output(), vm.resource_stats().fuel_used);
        let tier = compile_tier(&code);
        let mut jit = Vm::with_code(&prog, Arc::clone(&code));
        if let Some(l) = limits {
            jit.state.set_limits(l);
        }
        let v = jit.run_main_tier(&tier).map(|v| jit.render(&v));
        let tier_out = (v, jit.take_output(), jit.resource_stats().fuel_used);
        (vm_out, tier_out)
    }

    fn assert_parity(src: &str, limits: Option<Limits>) {
        let ((vv, vo, vf), (tv, to, tf)) = run_both_tiers(src, limits);
        match (&vv, &tv) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "values diverge"),
            (Err(a), Err(b)) => {
                assert_eq!(a.code(), b.code(), "codes diverge");
                assert_eq!(a.to_string(), b.to_string(), "messages diverge");
            }
            _ => panic!("outcome shape diverges: vm={vv:?} tier={tv:?}"),
        }
        assert_eq!(vo, to, "output diverges");
        assert_eq!(vf, tf, "fuel accounting diverges");
    }

    #[test]
    fn tier_agrees_on_loops_and_calls() {
        assert_parity(
            "class P { int v; P(int v) { this.v = v; } int get() { return v; } }
             int add(int a, int b) { return a + b; }
             int main() {
               int s = 0;
               for (int i = 0; i < 50; i = i + 1) { s = add(s, new P(i).get()); }
               println(\"sum \" + s);
               return s;
             }",
            None,
        );
    }

    #[test]
    fn tier_agrees_on_model_dispatch() {
        assert_parity(
            "constraint Ord[T] { boolean T.before(T other); }
             model IntOrd for Ord[int] { boolean before(int other) { return this < other; } }
             int count[T](T[] xs, T p) where Ord[T] {
               int n = 0;
               for (int i = 0; i < xs.length; i = i + 1) { if (xs[i].before(p)) { n = n + 1; } }
               return n;
             }
             int main() {
               int[] xs = new int[10];
               for (int i = 0; i < 10; i = i + 1) { xs[i] = i * 3 % 7; }
               return count[int with IntOrd](xs, 4);
             }",
            None,
        );
    }

    #[test]
    fn tier_agrees_on_traps_and_fuel() {
        // Index out of bounds: identical structured error.
        assert_parity("int main() { int[] a = new int[2]; return a[5]; }", None);
        // Fuel exhaustion mid-loop: identical step count at the trap.
        assert_parity(
            "int main() { int i = 0; while (true) { i = i + 1; } return i; }",
            Some(Limits {
                fuel: Some(10_000),
                ..Limits::default()
            }),
        );
    }

    #[test]
    fn tier_stats_count_functions() {
        let prog = check_source("int main() { return 1; }").expect("checks");
        let code = Arc::new(compile_optimized(&prog, 2));
        let tier = compile_tier(&code);
        Vm::with_code(&prog, Arc::clone(&code))
            .run_main_tier(&tier)
            .expect("runs");
        let stats = tier.compiled();
        assert!(stats.funcs_tiered >= 1);
        assert!(stats.blocks >= stats.funcs_tiered);
    }

    #[test]
    fn uncalled_functions_are_never_translated() {
        let prog = check_source(
            "int unused(int x) { return x * 2; }
             int main() { return 1; }",
        )
        .expect("checks");
        let code = Arc::new(compile_optimized(&prog, 2));
        let tier = compile_tier(&code);
        assert_eq!(tier.compiled().funcs_tiered, 0);
        Vm::with_code(&prog, Arc::clone(&code))
            .run_main_tier(&tier)
            .expect("runs");
        let slot = |name: &str| {
            let id = code.funcs.iter().position(|f| f.name == name).expect(name);
            tier.funcs[id].get().is_some()
        };
        assert!(slot("global main"));
        assert!(!slot("global unused"));
        assert!(tier.compiled().funcs_tiered < code.funcs.len());
        assert_eq!(tier.stats.funcs_tiered, 0);
    }

    #[test]
    fn recursion_translates_on_first_entry() {
        assert_parity(
            "int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
             int main() { println(\"fact \" + fact(10)); return fact(12); }",
            None,
        );
        assert_parity(
            "boolean isEven(int n) { if (n == 0) { return true; } return isOdd(n - 1); }
             boolean isOdd(int n) { if (n == 0) { return false; } return isEven(n - 1); }
             int main() {
               int c = 0;
               for (int i = 0; i < 30; i = i + 1) { if (isEven(i)) { c = c + 1; } }
               println(\"evens \" + c);
               return c;
             }",
            None,
        );
    }

    #[test]
    fn a_shared_program_translates_each_function_once() {
        let src = "class Acc { int n; Acc() { this.n = 0; } void add(int x) { n = n + x; } }
             int sq(int x) { return x * x; }
             int sum(int k) { Acc a = new Acc(); for (int i = 0; i < k; i = i + 1) { a.add(sq(i)); } return a.n; }
             int main() { println(\"sum \" + sum(40)); return sum(20); }";
        let prog = check_source(src).expect("checks");
        let code = Arc::new(compile_optimized(&prog, 2));
        let run = |tier: &TierProgram| {
            let mut vm = Vm::with_code(&prog, Arc::clone(&code));
            let v = vm.run_main_tier(tier).map(|v| vm.render(&v));
            (v, vm.take_output(), vm.resource_stats().fuel_used)
        };
        let alone = compile_tier(&code);
        let expected = run(&alone);
        let shared = Arc::new(compile_tier(&code));
        let start = std::sync::Barrier::new(4);
        let runs: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        run(&shared)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("runner thread"))
                .collect()
        });
        for r in &runs {
            assert_eq!(r, &expected);
        }
        assert_eq!(shared.compiled(), alone.compiled());
    }
}
