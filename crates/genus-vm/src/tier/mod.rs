//! Tier 2: a closure-compiled execution engine.
//!
//! The register VM (`crate::vm`) interprets bytecode through a central
//! fetch/decode loop: every executed instruction pays for the stack-top
//! lookup, the function/code indexing, the `pc` bump, and the big opcode
//! match. This module removes that loop by translating each compiled
//! [`VmFunc`] — *after* the optimizer has run, so specialization and
//! devirtualization (§7.3 heterogeneous translation) have already done
//! their work — into a tree of pre-resolved nested Rust closures:
//!
//! - Operands become **captured register indices**; there is no operand
//!   decoding at run time.
//! - `CallDirect` payloads are **resolved at tier-compile time**: the
//!   callee, receiver/argument registers, and null-check flag are
//!   captured directly, so a specialized call is a frame push with zero
//!   dispatch. (Most small frameless callees never get here: at O2 the
//!   optimizer has already spliced them into their callers.)
//! - Reified type images (`rt_types`) are **pre-materialized** into the
//!   closures for `instanceof`/casts/array allocation, hoisting the
//!   side-table lookup out of the hot path.
//! - Inline-cache sites (`CallVirtual`'s `site`, `CallModel`'s model
//!   site) capture their slot index, feeding the same monomorphic caches
//!   the VM uses.
//! - Hot arithmetic/comparison shapes (`int` add/sub/mul and the six
//!   orderings) are specialized into closures that test the operand
//!   variants inline, falling back to the shared `ops` helpers — and
//!   their exact error identities — on any mismatch.
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
//! stays flat and `max_depth` keeps its meaning.
//!
//! # Going faster than the loop
//!
//! Removing fetch/decode alone roughly breaks even with the VM's
//! jump-table match, so the tier's wins come from doing *less work per
//! executed op*, never from skipping accounting:
//!
//! - **Borrowed fast paths.** Array and field ops index the register
//!   file in place — no `Rc` refcount round trip on the receiver, one
//!   `RefCell` borrow instead of two. Primitive constants are captured
//!   immediates instead of pool lookups.
//!
//! # Meter parity (R0009/R0010 by construction)
//!
//! Every op closure begins with `vm.meter.step()?` — exactly one step per
//! executed opcode, the same accounting as the VM loop's per-iteration
//! step — and allocation sites charge the same costs through
//! `Meter::charge`. Fuel and memory traps therefore fire after the
//! *identical* step/unit sequence on both tiers: the differential
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
use crate::vm::{Action, Vm, VmFrame};
use genus_check::hir::NumKind;
use genus_common::FastMap;
use genus_heap::str_bytes;
use genus_interp::natives;
use genus_interp::ops::{arith, compare, widen_value};
use genus_interp::rtti;
use genus_interp::{ErrorKind, ModelValue, RtType, RuntimeError, Value};
use genus_syntax::ast::BinOp;
use genus_types::Type;
use std::rc::Rc;
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
        self.init_statics()?;
        let Some(main) = self.prog.main_index() else {
            return Err(RuntimeError::new(ErrorKind::Other, "no `main()` method"));
        };
        match self.prepare_global(main, vec![], vec![], vec![])? {
            Action::Value(v) => Ok(v),
            Action::Frame(f) => self.run_tier_call(tier, f),
        }
    }

    /// Runs `root` (and every frame it pushes) to completion on the tier,
    /// restoring the Genus depth budget on error like the VM's
    /// `run_call`.
    fn run_tier_call(&self, tier: &TierProgram, root: VmFrame) -> RResult<Value> {
        let base = self.depth.get();
        self.nesting.set(self.nesting.get() + 1);
        let r = self.tier_frames(tier, root);
        self.nesting.set(self.nesting.get() - 1);
        if r.is_err() {
            self.depth.set(base);
        }
        r
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
        match op {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. } => leaders.push(*target as usize),
            Op::CallDirect { .. }
            | Op::CallVirtual { .. }
            | Op::CallStatic { .. }
            | Op::CallGlobal { .. }
            | Op::CallModel { .. }
            | Op::New { .. } => leaders.push(pc + 1),
            _ => {}
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

/// A type operand resolved at tier-compile time: either the optimizer's
/// pre-reified image (closed terms) or the open term to evaluate against
/// the frame's environment — the same split the VM makes per call, but
/// decided once here.
enum TyRef {
    Reified(RtType),
    Open(Type),
}

impl TyRef {
    fn of(code: &VmProgram, ty: u32) -> TyRef {
        match code.rt_types.get(ty as usize).and_then(Option::as_ref) {
            Some(rt) => TyRef::Reified(rt.clone()),
            None => TyRef::Open(code.types[ty as usize].clone()),
        }
    }

    fn reify(&self, vm: &Vm<'_>, f: &VmFrame) -> RtType {
        match self {
            TyRef::Reified(rt) => rt.clone(),
            TyRef::Open(t) => rtti::eval_type(vm.prog, &f.tenv, &f.menv, t),
        }
    }
}

/// Applies a resolved call: immediate values jump straight to the resume
/// block, frames park the caller at the resume block and the callee in
/// `Vm::pending_call` for the outer loop to push.
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
            f.pc = resume as usize;
            callee.dst = Some(dst);
            vm.pending_call.set(Some(callee));
            Ok(Ctl::Call)
        }
    }
}

/// Boxes a closure as a [`Thunk`] (guides HRTB inference).
fn thunk(
    t: impl for<'a, 'p> Fn(&'a Vm<'p>, &mut VmFrame) -> RResult<Ctl> + Send + Sync + 'static,
) -> Thunk {
    Box::new(t)
}

/// Compiles one instruction into a closure over its continuation.
///
/// Every closure's first action is `vm.meter.step()?` — see the module
/// docs on meter parity. Error messages are verbatim copies of the VM
/// loop's, so `(code, message)` identity is preserved, not just the
/// code.
#[allow(clippy::too_many_lines)]
fn op_thunk(code: &VmProgram, op: Op, pc: usize, rest: Thunk, blocks: &BlockMap) -> Thunk {
    match op {
        Op::Const { dst, k } => {
            let (dst, k) = (dst as usize, k as usize);
            match code.consts[k].clone() {
                // Strings stay indexed clones: the VM's pool shares one
                // `Rc` per literal, and `Const::to_value` would rebuild
                // the allocation on every execution.
                Const::Str(_) => thunk(move |vm, f| {
                    vm.meter.step()?;
                    f.regs[dst] = vm.consts[k].clone();
                    rest(vm, f)
                }),
                // Primitives become captured immediates — no pool
                // lookup, no clone dispatch.
                c => thunk(move |vm, f| {
                    vm.meter.step()?;
                    f.regs[dst] = c.to_value();
                    rest(vm, f)
                }),
            }
        }
        Op::Move { dst, src } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                f.regs[dst] = f.regs[src].clone();
                rest(vm, f)
            })
        }
        Op::Jump { target } => {
            let b = target_block(blocks, target);
            thunk(move |vm, _| {
                vm.meter.step()?;
                Ok(Ctl::Jump(b))
            })
        }
        Op::JumpIfFalse { cond, target } => {
            let cond = cond as usize;
            let b = target_block(blocks, target);
            thunk(move |vm, f| {
                vm.meter.step()?;
                match &f.regs[cond] {
                    Value::Bool(false) => Ok(Ctl::Jump(b)),
                    Value::Bool(true) => rest(vm, f),
                    other => Err(RuntimeError::new(
                        ErrorKind::Other,
                        format!("condition evaluated to non-boolean {other:?}"),
                    )),
                }
            })
        }
        Op::JumpIfTrue { cond, target } => {
            let cond = cond as usize;
            let b = target_block(blocks, target);
            thunk(move |vm, f| {
                vm.meter.step()?;
                match &f.regs[cond] {
                    Value::Bool(true) => Ok(Ctl::Jump(b)),
                    Value::Bool(false) => rest(vm, f),
                    other => Err(RuntimeError::new(
                        ErrorKind::Other,
                        format!("condition evaluated to non-boolean {other:?}"),
                    )),
                }
            })
        }
        Op::Return { src } => {
            let src = src as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                Ok(Ctl::Ret(f.regs[src].clone()))
            })
        }
        Op::ReturnVoid => thunk(move |vm, _| {
            vm.meter.step()?;
            Ok(Ctl::Ret(Value::Void))
        }),
        Op::FallOff => thunk(move |vm, _| {
            vm.meter.step()?;
            Err(RuntimeError::new(
                ErrorKind::MissingReturn,
                "non-void body completed without returning",
            ))
        }),
        Op::Escaped => thunk(move |vm, _| {
            vm.meter.step()?;
            Err(RuntimeError::new(
                ErrorKind::Other,
                "break/continue escaped a body",
            ))
        }),
        Op::GetField { dst, obj, slot } => {
            let (dst, obj, slot) = (dst as usize, obj as usize, slot as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let o = rtti::expect_obj(&vm.heap, &f.regs[obj])?;
                let v = o.fields.borrow()[slot].clone();
                f.regs[dst] = v;
                rest(vm, f)
            })
        }
        Op::SetField { obj, slot, src } => {
            let (obj, src, slot) = (obj as usize, src as usize, slot as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                {
                    let v = f.regs[src].clone();
                    let o = rtti::expect_obj(&vm.heap, &f.regs[obj])?;
                    o.fields.borrow_mut()[slot] = v;
                }
                rest(vm, f)
            })
        }
        Op::GetStatic { dst, class, field } => {
            let dst = dst as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                f.regs[dst] = vm
                    .statics
                    .borrow()
                    .get(&(class.0, field))
                    .cloned()
                    .unwrap_or(Value::Null);
                rest(vm, f)
            })
        }
        Op::SetStatic { class, field, src } => {
            let src = src as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                vm.statics.borrow_mut().insert((class.0, field), v);
                rest(vm, f)
            })
        }
        Op::Arith { dst, op, nk, l, r } => arith_thunk(dst, op, nk, l, r, rest),
        Op::Cmp { dst, op, nk, l, r } => cmp_thunk(dst, op, nk, l, r, rest),
        Op::RefEq { dst, l, r, negate } => {
            let (dst, l, r) = (dst as usize, l as usize, r as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let eq = vm.heap.ref_eq(&f.regs[l], &f.regs[r]);
                f.regs[dst] = Value::Bool(eq != negate);
                rest(vm, f)
            })
        }
        Op::Concat { dst, l, r } => {
            let (dst, l, r) = (dst as usize, l as usize, r as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let lv = f.regs[l].clone();
                let rv = f.regs[r].clone();
                let mut s = vm.stringify(&lv)?;
                s.push_str(&vm.stringify(&rv)?);
                vm.meter.charge(str_bytes(s.len()))?;
                f.regs[dst] = Value::Str(Rc::from(s.as_str()));
                rest(vm, f)
            })
        }
        Op::Not { dst, src } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                match &f.regs[src] {
                    Value::Bool(b) => f.regs[dst] = Value::Bool(!*b),
                    _ => return Err(RuntimeError::new(ErrorKind::Other, "`!` on non-boolean")),
                }
                rest(vm, f)
            })
        }
        Op::Neg { dst, src, nk } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                f.regs[dst] = match (nk, v) {
                    (NumKind::Int, Value::Int(x)) => Value::Int(x.wrapping_neg()),
                    (NumKind::Long, Value::Long(x)) => Value::Long(x.wrapping_neg()),
                    (NumKind::Double, Value::Double(x)) => Value::Double(-x),
                    (_, v) => {
                        return Err(RuntimeError::new(
                            ErrorKind::Other,
                            format!("cannot negate {v:?}"),
                        ))
                    }
                };
                rest(vm, f)
            })
        }
        Op::Widen { dst, src, to } => {
            let (dst, src) = (dst as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                f.regs[dst] = widen_value(v, to);
                rest(vm, f)
            })
        }
        Op::NewArray { dst, len, elem } => {
            let (dst, len) = (dst as usize, len as usize);
            let elem = TyRef::of(code, elem);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let et = elem.reify(vm, f);
                let Value::Int(n) = f.regs[len] else {
                    return Err(RuntimeError::new(
                        ErrorKind::Other,
                        "array length must be int",
                    ));
                };
                if n < 0 {
                    return Err(RuntimeError::new(
                        ErrorKind::IndexOutOfBounds,
                        format!("negative array length {n}"),
                    ));
                }
                f.regs[dst] = vm.heap.alloc_arr(&vm.meter, et, n as usize)?;
                rest(vm, f)
            })
        }
        Op::ArrayLen { dst, arr } => {
            let (dst, arr) = (dst as usize, arr as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let len = rtti::expect_arr(&vm.heap, &f.regs[arr])?
                    .storage
                    .borrow()
                    .len();
                f.regs[dst] = Value::Int(len as i32);
                rest(vm, f)
            })
        }
        Op::ArrayGet { dst, arr, idx } => {
            let (dst, arr, idx) = (dst as usize, arr as usize, idx as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = {
                    let a = rtti::expect_arr(&vm.heap, &f.regs[arr])?;
                    let s = a.storage.borrow();
                    let i = rtti::expect_index(&f.regs[idx], s.len())?;
                    s.get(i)
                };
                f.regs[dst] = v;
                rest(vm, f)
            })
        }
        Op::ArraySet { arr, idx, src } => {
            let (arr, idx, src) = (arr as usize, idx as usize, src as usize);
            thunk(move |vm, f| {
                vm.meter.step()?;
                {
                    let a = rtti::expect_arr(&vm.heap, &f.regs[arr])?;
                    let mut s = a.storage.borrow_mut();
                    let i = rtti::expect_index(&f.regs[idx], s.len())?;
                    let v = f.regs[src].clone();
                    s.set(i, v);
                }
                rest(vm, f)
            })
        }
        Op::InstanceOf { dst, src, ty } => {
            let (dst, src) = (dst as usize, src as usize);
            let ty = TyRef::of(code, ty);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                let b = match &ty {
                    TyRef::Reified(rt) => rtti::value_instanceof(vm.prog, &vm.heap, &v, rt),
                    TyRef::Open(t) => {
                        rtti::instanceof_type(vm.prog, &vm.heap, &f.tenv, &f.menv, &v, t)
                    }
                };
                f.regs[dst] = Value::Bool(b);
                rest(vm, f)
            })
        }
        Op::Cast { dst, src, ty } => {
            let (dst, src) = (dst as usize, src as usize);
            let ty = TyRef::of(code, ty);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                f.regs[dst] = match &ty {
                    TyRef::Reified(rt) => rtti::cast_value_rt(vm.prog, &vm.heap, v, rt)?,
                    TyRef::Open(t) => {
                        rtti::cast_value(vm.prog, &vm.heap, &vm.meter, &f.tenv, &f.menv, v, t)?
                    }
                };
                rest(vm, f)
            })
        }
        Op::DefaultValue { dst, ty } => {
            let dst = dst as usize;
            let ty = TyRef::of(code, ty);
            thunk(move |vm, f| {
                vm.meter.step()?;
                f.regs[dst] = ty.reify(vm, f).default_value();
                rest(vm, f)
            })
        }
        Op::Pack { dst, src, spec } => {
            let (dst, src) = (dst as usize, src as usize);
            let s = code.pack_specs[spec as usize].clone();
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                let ts = s
                    .types
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let ms = s
                    .models
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                f.regs[dst] = vm.heap.alloc_packed(&vm.meter, v, ts, ms)?;
                rest(vm, f)
            })
        }
        Op::Open { dst, src, spec } => {
            let (dst, src) = (dst as usize, src as usize);
            let s = code.open_specs[spec as usize].clone();
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                match v {
                    Value::Packed(h) => {
                        let p = vm.heap.packed(h);
                        for (tv, t) in s.tvs.iter().zip(&p.types) {
                            f.tenv.insert(*tv, t.clone());
                        }
                        for (mv, m) in s.mvs.iter().zip(&p.models) {
                            f.menv.insert(*mv, m.clone());
                        }
                        f.regs[dst] = p.value.clone();
                    }
                    Value::Null => {
                        return Err(RuntimeError::new(
                            ErrorKind::NullPointer,
                            "cannot open a null existential",
                        ));
                    }
                    other => {
                        let rt = rtti::value_rt_type(vm.prog, &vm.heap, &other);
                        for tv in &s.tvs {
                            f.tenv.insert(*tv, rt.clone());
                        }
                        f.regs[dst] = other;
                    }
                }
                rest(vm, f)
            })
        }
        Op::Print { src, newline } => {
            let src = src as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                let v = f.regs[src].clone();
                let s = vm.stringify(&v)?;
                {
                    let mut out = vm.output.borrow_mut();
                    out.push_str(&s);
                    if newline {
                        out.push('\n');
                    }
                }
                if vm.echo {
                    if newline {
                        println!("{s}");
                    } else {
                        print!("{s}");
                    }
                }
                rest(vm, f)
            })
        }
        Op::CallVirtual {
            dst,
            recv,
            spec,
            site,
        } => {
            let s = code.virt_specs[spec as usize].clone();
            let recv = recv as usize;
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let r = f.regs[recv].clone();
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let rt: Vec<RtType> = s
                    .targs
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let rm: Vec<ModelValue> = s
                    .margs
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                let action = vm.prepare_virtual(Some(site), r, s.name, s.arity, rt, rm, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallStatic { dst, spec } => {
            let s = code.static_specs[spec as usize].clone();
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let rt: Vec<RtType> = s
                    .targs
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let rm: Vec<ModelValue> = s
                    .margs
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                let action =
                    vm.prepare_class_method(s.class, s.method, vec![], vec![], None, rt, rm, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallGlobal { dst, spec } => {
            let s = code.global_specs[spec as usize].clone();
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let rt: Vec<RtType> = s
                    .targs
                    .iter()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t))
                    .collect();
                let rm: Vec<ModelValue> = s
                    .margs
                    .iter()
                    .map(|m| rtti::eval_model(vm.prog, &f.tenv, &f.menv, m))
                    .collect();
                let action = vm.prepare_global(s.index, rt, rm, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallModel { dst, spec, site } => {
            let s = code.model_specs[spec as usize].clone();
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let mv = rtti::eval_model(vm.prog, &f.tenv, &f.menv, &s.model);
                let r = s.recv.map(|r| f.regs[r as usize].clone());
                let srt = s
                    .static_recv
                    .as_ref()
                    .map(|t| rtti::eval_type(vm.prog, &f.tenv, &f.menv, t));
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let action = vm.prepare_model(Some(site), &mv, s.name, r, srt, args)?;
                finish_call(vm, f, dst, resume, action)
            })
        }
        Op::CallDirect { dst, spec } => {
            // Fully pre-resolved at tier-compile time: callee, receiver,
            // null check, and argument registers are captured directly,
            // and the callee frame is built in place — no intermediate
            // argument vector.
            let s = code.direct_specs[spec as usize].clone();
            let (func, recv, null_check) = (s.func, s.recv, s.null_check);
            let argv = s.args;
            let num_regs = code.funcs[func.0 as usize].num_regs;
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let this = match recv {
                    Some(r) => Some(vm.direct_recv(f.regs[r as usize].clone(), null_check)?),
                    None => None,
                };
                let mut regs = vm.grab_regs(num_regs);
                let mut slot = 0;
                if let Some(t) = this {
                    regs[0] = t;
                    slot = 1;
                }
                for &a in &argv {
                    regs[slot] = f.regs[a as usize].clone();
                    slot += 1;
                }
                let callee = VmFrame {
                    func,
                    pc: 0,
                    regs,
                    tenv: Default::default(),
                    menv: Default::default(),
                    dst: Some(dst),
                    counted: true,
                };
                f.pc = resume as usize;
                vm.pending_call.set(Some(callee));
                Ok(Ctl::Call)
            })
        }
        Op::Inline {
            recv,
            this,
            null_check,
            nest,
        } => {
            let this = this as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                if let Some(r) = recv {
                    f.regs[this] = vm.direct_recv(f.regs[r as usize].clone(), null_check)?;
                }
                vm.probe_depth(nest)?;
                rest(vm, f)
            })
        }
        Op::New { dst, spec } => {
            let s = code.new_specs[spec as usize].clone();
            let dst = dst as usize;
            let resume = target_block(blocks, pc as u32 + 1);
            thunk(move |vm, f| {
                vm.meter.step()?;
                let (this, callee) = vm.new_site(&s, &f.tenv, &f.menv, &f.regs)?;
                f.regs[dst] = this;
                f.pc = resume as usize;
                vm.pending_call.set(Some(callee));
                Ok(Ctl::Call)
            })
        }
        Op::PrimCall { dst, spec } => {
            let s = code.prim_specs[spec as usize].clone();
            let dst = dst as usize;
            // The shared `natives::prim_call` helper dispatches on the
            // method *name string* and takes its arguments in a fresh
            // `Vec` — per-call costs a devirtualized natural-model method
            // should not pay. Resolve the hottest names here, once, at
            // tier-compile time; the fast path engages only on the exact
            // value shapes the helper computes identically, and anything
            // else falls back to it for error and semantic parity.
            match (s.recv, s.name.as_str(), s.args.len()) {
                (Some(r), "compareTo", 1) => {
                    let (r, a0) = (r as usize, s.args[0] as usize);
                    thunk(move |vm, f| {
                        vm.meter.step()?;
                        f.regs[dst] = match (&f.regs[r], &f.regs[a0]) {
                            (&Value::Int(a), &Value::Int(b)) => Value::Int(a.cmp(&b) as i32),
                            _ => {
                                let recv = Some(f.regs[r].clone());
                                let args = vec![f.regs[a0].clone()];
                                natives::prim_call(&vm.heap, s.prim, s.name, recv, args)?
                            }
                        };
                        rest(vm, f)
                    })
                }
                (Some(r), "equals", 1) => {
                    let (r, a0) = (r as usize, s.args[0] as usize);
                    thunk(move |vm, f| {
                        vm.meter.step()?;
                        f.regs[dst] = match (&f.regs[r], &f.regs[a0]) {
                            (&Value::Int(a), &Value::Int(b)) => Value::Bool(a == b),
                            _ => {
                                let recv = Some(f.regs[r].clone());
                                let args = vec![f.regs[a0].clone()];
                                natives::prim_call(&vm.heap, s.prim, s.name, recv, args)?
                            }
                        };
                        rest(vm, f)
                    })
                }
                _ => thunk(move |vm, f| {
                    vm.meter.step()?;
                    let r = s.recv.map(|r| f.regs[r as usize].clone());
                    let args: Vec<Value> =
                        s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                    f.regs[dst] = natives::prim_call(&vm.heap, s.prim, s.name, r, args)?;
                    rest(vm, f)
                }),
            }
        }
        Op::Native { dst, spec } => {
            let s = code.native_specs[spec as usize].clone();
            let dst = dst as usize;
            thunk(move |vm, f| {
                vm.meter.step()?;
                let r = s.recv.map(|r| f.regs[r as usize].clone());
                let args: Vec<Value> = s.args.iter().map(|&a| f.regs[a as usize].clone()).collect();
                let v = vm.native(s.op, r, args)?;
                f.regs[dst] = v;
                rest(vm, f)
            })
        }
    }
}

/// Arithmetic closures, specialized per `(op, kind)` for the hot `int`
/// shapes; everything else (and every operand mismatch) funnels through
/// the shared [`arith`] helper for exact error parity.
fn arith_thunk(dst: u16, op: BinOp, nk: NumKind, l: u16, r: u16, rest: Thunk) -> Thunk {
    let (dst, l, r) = (dst as usize, l as usize, r as usize);
    macro_rules! int_fast {
        ($apply:expr) => {
            thunk(move |vm, f| {
                vm.meter.step()?;
                if let (&Value::Int(a), &Value::Int(b)) = (&f.regs[l], &f.regs[r]) {
                    f.regs[dst] = Value::Int($apply(a, b));
                } else {
                    let lv = f.regs[l].clone();
                    let rv = f.regs[r].clone();
                    f.regs[dst] = arith(op, nk, lv, rv)?;
                }
                rest(vm, f)
            })
        };
    }
    match (op, nk) {
        (BinOp::Add, NumKind::Int) => int_fast!(i32::wrapping_add),
        (BinOp::Sub, NumKind::Int) => int_fast!(i32::wrapping_sub),
        (BinOp::Mul, NumKind::Int) => int_fast!(i32::wrapping_mul),
        _ => thunk(move |vm, f| {
            vm.meter.step()?;
            let lv = f.regs[l].clone();
            let rv = f.regs[r].clone();
            f.regs[dst] = arith(op, nk, lv, rv)?;
            rest(vm, f)
        }),
    }
}

/// Comparison closures, `int`-specialized like [`arith_thunk`].
fn cmp_thunk(dst: u16, op: BinOp, nk: NumKind, l: u16, r: u16, rest: Thunk) -> Thunk {
    let (dst, l, r) = (dst as usize, l as usize, r as usize);
    macro_rules! int_fast {
        ($apply:expr) => {
            thunk(move |vm, f| {
                vm.meter.step()?;
                if let (&Value::Int(a), &Value::Int(b)) = (&f.regs[l], &f.regs[r]) {
                    f.regs[dst] = Value::Bool($apply(a, b));
                } else {
                    let lv = f.regs[l].clone();
                    let rv = f.regs[r].clone();
                    f.regs[dst] = compare(op, nk, lv, rv)?;
                }
                rest(vm, f)
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
        _ => thunk(move |vm, f| {
            vm.meter.step()?;
            let lv = f.regs[l].clone();
            let rv = f.regs[r].clone();
            f.regs[dst] = compare(op, nk, lv, rv)?;
            rest(vm, f)
        }),
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
            vm.set_limits(l);
        }
        // Render on the owning VM: handles are per-heap indices.
        let v = vm.run_main().map(|v| vm.render(&v));
        let vm_out = (v, vm.take_output(), vm.resource_stats().fuel_used);
        let tier = compile_tier(&code);
        let mut jit = Vm::with_code(&prog, Arc::clone(&code));
        if let Some(l) = limits {
            jit.set_limits(l);
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
