//! The register VM: an explicit-frame dispatch loop over compiled
//! bytecode.
//!
//! Where the tree-walking interpreter recurses on the host stack (one
//! native frame per Genus frame), the VM keeps Genus frames in an
//! explicit `Vec` and loops — the host stack stays flat on the hot call
//! path, so the VM does not need the facade's big-stack thread. The few
//! remaining host-recursive paths (stringification's `toString`
//! dispatch, field and static initializers) each include counted Genus
//! frames, so they stay bounded by the same [`genus_interp::MAX_DEPTH`]
//! budget as the interpreter.
//!
//! Semantics are shared with the interpreter through
//! [`genus_interp::rtti`] (reification, dispatch resolution),
//! [`genus_interp::dispatch`] (the caches and counters in front of that
//! resolution), [`genus_interp::natives`]/[`genus_interp::ops`]
//! (built-ins, arithmetic) and [`genus_interp::state`] (the run's meter,
//! heap, statics, output and depth guard): the two engines cannot drift
//! on type tests, dispatch decisions, cache counts, charges, or primitive
//! behavior. The differential test suite (see
//! the `genus` facade) asserts identical results, captured output, and
//! runtime errors on every test program.
//!
//! Each opcode's semantics are written once, as a `Vm::op_*` routine
//! ("Per-op semantics" below). The dispatch loop decodes an instruction
//! and calls its routine; Tier 2 ([`crate::tier`]) calls the same
//! routines from its closures, so the two engines cannot drift either.
//!
//! # Examples
//!
//! ```
//! use genus_check::check_source;
//! use genus_vm::Vm;
//!
//! let prog = check_source(r#"
//!     int main() { println("hi"); return 41 + 1; }
//! "#).unwrap();
//! let mut vm = Vm::new(&prog);
//! let v = vm.run_main().unwrap();
//! assert!(matches!(v, genus_interp::Value::Int(42)));
//! assert_eq!(vm.take_output(), "hi\n");
//! ```

use crate::bytecode::{
    DirectSpec, FuncId, GlobalSpec, ModelSpec, NativeSpec, NewSpec, Op, OpenSpec, PackSpec,
    PrimSpec, StaticSpec, VirtSpec, VmProgram,
};
use crate::compile::compile_program;
use genus_check::hir::{NativeOp, NumKind};
use genus_check::CheckedProgram;
use genus_common::Symbol;
use genus_heap::meter::ResourceStats;
use genus_interp::dispatch::{Site, StaticTarget};
use genus_interp::natives;
use genus_interp::ops::{arith, compare, negate, widen_value};
use genus_interp::rtti::{self, MEnv, ModelTarget, TEnv};
use genus_interp::{
    Dispatch, DispatchStats, ErrorKind, ModelValue, RtType, RunState, RuntimeError, Value,
};
use genus_syntax::ast::BinOp;
use genus_types::{ClassId, Model, ModelId, PrimTy, Type};
use std::cell::{Cell, RefCell};
use std::sync::Arc;

type RResult<T> = Result<T, RuntimeError>;

/// One VM activation record. Registers `0..num_locals` are the HIR
/// locals; the rest are expression temporaries.
pub(crate) struct VmFrame {
    pub(crate) func: FuncId,
    pub(crate) pc: usize,
    pub(crate) regs: Vec<Value>,
    pub(crate) tenv: TEnv,
    pub(crate) menv: MEnv,
    /// Register in the *parent* frame receiving the return value
    /// (`None` discards it, e.g. constructor frames).
    pub(crate) dst: Option<u16>,
    /// Whether this frame counts against the Genus call-depth budget
    /// (initializer frames do not, matching the interpreter).
    pub(crate) counted: bool,
}

/// Result of resolving a call: either an immediate value (natives,
/// primitives) or a frame to push.
pub(crate) enum Action {
    Value(Value),
    Frame(VmFrame),
}

/// A decoded type operand: the optimizer's pre-reified image of a
/// closed term, or the open term to evaluate under the frame's
/// environment.
#[derive(Clone, Copy)]
pub(crate) enum Ty<'a> {
    Reified(&'a RtType),
    Open(&'a Type),
}

impl<'a> Ty<'a> {
    /// Decodes `types[ty]`, taking its reified image when one exists
    /// (closed terms evaluate the same under any environment).
    pub(crate) fn of(code: &'a VmProgram, ty: u32) -> Self {
        match code.rt_types.get(ty as usize).and_then(Option::as_ref) {
            Some(rt) => Ty::Reified(rt),
            None => Ty::Open(&code.types[ty as usize]),
        }
    }

    fn reify(self, vm: &Vm<'_>, f: &VmFrame) -> RtType {
        match self {
            Ty::Reified(rt) => rt.clone(),
            Ty::Open(t) => rtti::eval_type(vm.prog, &f.tenv, &f.menv, t),
        }
    }
}

/// The values of argument registers `args`, in order.
fn reg_args(f: &VmFrame, args: &[u16]) -> Vec<Value> {
    args.iter().map(|&a| f.regs[a as usize].clone()).collect()
}

/// The virtual machine: one run's [`RunState`] plus the bytecode and
/// the VM's own frame machinery.
pub struct Vm<'p> {
    pub(crate) prog: &'p CheckedProgram,
    pub(crate) code: Arc<VmProgram>,
    /// Constant pool materialized as runtime values for this VM instance
    /// (`Op::Const` stays a plain indexed clone; the shared program keeps
    /// only `Send + Sync` [`crate::bytecode::Const`]s).
    pub(crate) consts: Vec<Value>,
    /// Meter, heap, dispatch, statics, output and depth of the run,
    /// shared by the dispatch loop and Tier 2 ([`crate::tier`]).
    pub state: RunState,
    /// Recycled register vectors: frames return their registers here on
    /// exit so a call does not pay a heap allocation.
    regs_pool: RefCell<Vec<Vec<Value>>>,
    /// Callee frame parked by a Tier 2 call closure for the tier's outer
    /// loop to push ([`crate::tier`]). Keeping the frame out of the
    /// block-transfer value keeps every compiled-block return small.
    pub(crate) pending_call: Cell<Option<VmFrame>>,
    /// Depth of nested dispatch loops (`run_frames`/`tier_frames`).
    /// Collections only trigger at the *outermost* loop — nested loops
    /// (stringification, field initializers) run while their caller
    /// holds values in host locals the collector cannot see.
    pub(crate) nesting: Cell<u32>,
    /// Edge-coverage sink for the fuzzer: when installed, the dispatch
    /// loop reports every executed `(function, pc)` site. Compiled out
    /// entirely without the `coverage` feature; when compiled in but not
    /// installed the per-op cost is one `Option` branch.
    #[cfg(feature = "coverage")]
    coverage: Option<std::rc::Rc<genus_common::EdgeMap>>,
}

impl<'p> Vm<'p> {
    /// Compiles `prog` to bytecode and creates a VM for it.
    pub fn new(prog: &'p CheckedProgram) -> Self {
        Self::with_code(prog, Arc::new(compile_program(prog)))
    }

    /// Creates a VM over already-compiled bytecode (lets callers share
    /// one compilation across runs and threads).
    pub fn with_code(prog: &'p CheckedProgram, code: Arc<VmProgram>) -> Self {
        let consts = code.consts.iter().map(|c| c.to_value()).collect();
        let dispatch = Dispatch::with_sites(code.num_sites, code.num_model_sites);
        Vm {
            prog,
            code,
            consts,
            state: RunState::new(dispatch),
            regs_pool: RefCell::new(Vec::new()),
            pending_call: Cell::new(None),
            nesting: Cell::new(0),
            #[cfg(feature = "coverage")]
            coverage: None,
        }
    }

    /// Installs an edge-coverage sink: every `(function, pc)` site the
    /// dispatch loop executes from now on is recorded into `map` (see
    /// [`genus_common::EdgeMap`]). Recording never changes observable
    /// behaviour — the fuzzer's parity oracles run with it installed.
    #[cfg(feature = "coverage")]
    pub fn set_coverage(&mut self, map: std::rc::Rc<genus_common::EdgeMap>) {
        self.coverage = Some(map);
    }

    /// The compiled bytecode this VM executes.
    #[must_use]
    pub fn code(&self) -> &Arc<VmProgram> {
        &self.code
    }

    /// [`RunState::resource_stats`] of this VM's run.
    pub fn resource_stats(&self) -> ResourceStats {
        self.state.resource_stats()
    }

    /// [`RunState::render`] on this VM's heap.
    #[must_use]
    pub fn render(&self, v: &Value) -> String {
        self.state.render(v)
    }

    /// [`RunState::take_output`] of this VM's run.
    pub fn take_output(&mut self) -> String {
        self.state.take_output()
    }

    /// [`RunState::dispatch_stats`] of this VM's run.
    #[must_use]
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.state.dispatch_stats()
    }

    /// Runs static initializers then `main()`.
    ///
    /// # Errors
    ///
    /// Returns the first uncaught [`RuntimeError`].
    pub fn run_main(&mut self) -> RResult<Value> {
        let main = self.main_call()?;
        self.complete(main)
    }

    /// Runs static initializers and resolves the call of `main()`: the
    /// prologue [`Vm::run_main`] and [`Vm::run_main_tier`] share.
    pub(crate) fn main_call(&self) -> RResult<Action> {
        let main = self
            .state
            .prologue(self.prog, &self.code.static_inits, |&fid| {
                self.run_call(self.frame(fid, None, vec![], false))
            })?;
        self.prepare_global(main, vec![], vec![], vec![])
    }

    // ------------------------------------------------------------------
    // Frames
    // ------------------------------------------------------------------

    /// A fresh frame for `func` with `this`/`args` in the leading
    /// registers and empty type/model environments.
    /// Grabs a recycled register vector (or a fresh one) sized to `n`.
    pub(crate) fn grab_regs(&self, n: usize) -> Vec<Value> {
        let mut regs = self.regs_pool.borrow_mut().pop().unwrap_or_default();
        regs.resize(n, Value::Null);
        regs
    }

    /// Returns a frame's registers to the pool. Values are dropped now
    /// (not at reuse), releasing their references as promptly as a
    /// non-pooled frame would.
    pub(crate) fn recycle_regs(&self, mut regs: Vec<Value>) {
        let mut pool = self.regs_pool.borrow_mut();
        if pool.len() < 64 {
            regs.clear();
            pool.push(regs);
        }
    }

    pub(crate) fn frame(
        &self,
        func: FuncId,
        this: Option<Value>,
        args: impl IntoIterator<Item = Value>,
        counted: bool,
    ) -> VmFrame {
        let f = &self.code.funcs[func.0 as usize];
        let mut regs = self.grab_regs(f.num_regs);
        let mut slot = 0;
        if let Some(t) = this {
            regs[0] = t;
            slot = 1;
        }
        for a in args {
            regs[slot] = a;
            slot += 1;
        }
        VmFrame {
            func,
            pc: 0,
            regs,
            tenv: TEnv::default(),
            menv: MEnv::default(),
            dst: None,
            counted,
        }
    }

    /// Depth accounting at frame entry; errors like the interpreter's
    /// `run_body` prologue.
    pub(crate) fn enter(&self, counted: bool) -> RResult<()> {
        if counted {
            self.state.enter()?;
        }
        Ok(())
    }

    /// The receiver a direct call (framed or inlined) binds to the
    /// callee's `this`: null-checked when the spec asks, then unpacked.
    pub(crate) fn direct_recv(&self, v: Value, null_check: bool) -> RResult<Value> {
        if null_check && self.state.heap.is_null(&v) {
            return Err(RuntimeError::new(ErrorKind::NullPointer, "call on null"));
        }
        Ok(self.state.heap.unpack(v))
    }

    /// Runs a resolved call to completion on a nested frame stack.
    pub(crate) fn complete(&self, action: Action) -> RResult<Value> {
        match action {
            Action::Value(v) => Ok(v),
            Action::Frame(f) => self.run_call(f),
        }
    }

    /// Applies a resolved call inside the dispatch loop: immediate
    /// values write `dst` directly, frames are pushed.
    fn apply(&self, stack: &mut Vec<VmFrame>, dst: u16, action: Action) -> RResult<()> {
        match action {
            Action::Value(v) => {
                stack.last_mut().expect("frame").regs[dst as usize] = v;
            }
            Action::Frame(mut f) => {
                self.enter(f.counted)?;
                f.dst = Some(dst);
                stack.push(f);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // The dispatch loop
    // ------------------------------------------------------------------

    /// Runs `run` as one nested frame loop: counts the nesting (only the
    /// outermost loop polls the collector, see [`Vm::maybe_gc`]) and
    /// restores the Genus depth counter on error, so callers that swallow
    /// errors (stringification) do not leak budget. The VM loop and
    /// Tier 2's outer loop both run under it.
    pub(crate) fn nested(&self, run: impl FnOnce() -> RResult<Value>) -> RResult<Value> {
        self.nesting.set(self.nesting.get() + 1);
        let r = self.state.restoring_depth(run);
        self.nesting.set(self.nesting.get() - 1);
        r
    }

    /// Runs `root` (and every frame it pushes) to completion on a nested
    /// dispatch loop.
    fn run_call(&self, root: VmFrame) -> RResult<Value> {
        self.nested(|| self.run_frames(root))
    }

    /// GC safe point: collects if the heap wants to, rooting every
    /// register of every frame on `stack`, the static fields, and any
    /// parked Tier 2 callee. Called only where `stack` is the *complete*
    /// set of live Genus frames (`nesting == 1`) — mid-instruction
    /// temporaries never live across a poll, and nested loops (field
    /// initializers, `toString` dispatch) never collect.
    pub(crate) fn maybe_gc(&self, stack: &[VmFrame]) {
        self.state.maybe_gc(|roots| {
            let parked = self.pending_call.take();
            for f in stack.iter().chain(&parked) {
                for v in &f.regs {
                    self.state.heap.root(roots, v);
                }
            }
            self.pending_call.set(parked);
        });
    }

    /// The loop: one fuel step, a GC poll and the coverage hook per
    /// instruction, then the decoded instruction's routine (see "Per-op
    /// semantics" below).
    fn run_frames(&self, root: VmFrame) -> RResult<Value> {
        let code = Arc::clone(&self.code);
        self.enter(root.counted)?;
        let mut stack: Vec<VmFrame> = vec![root];
        loop {
            self.state.meter.step()?;
            if self.nesting.get() == 1 {
                self.maybe_gc(&stack);
            }
            let frame = stack.last_mut().expect("frame");
            let op = code.funcs[frame.func.0 as usize].code[frame.pc];
            #[cfg(feature = "coverage")]
            if let Some(cov) = &self.coverage {
                cov.record_site(frame.func.0, frame.pc as u32);
            }
            frame.pc += 1;
            match op {
                Op::Const { dst, k } => self.op_const(frame, dst, k),
                Op::Move { dst, src } => self.op_move(frame, dst, src),
                Op::Jump { target } => frame.pc = target as usize,
                Op::JumpIfFalse { cond, target } => {
                    if !self.op_cond(frame, cond)? {
                        frame.pc = target as usize;
                    }
                }
                Op::JumpIfTrue { cond, target } => {
                    if self.op_cond(frame, cond)? {
                        frame.pc = target as usize;
                    }
                }
                Op::Return { src } => {
                    let v = frame.regs[src as usize].clone();
                    if let Some(v) = self.pop_frame(&mut stack, v) {
                        return Ok(v);
                    }
                }
                Op::ReturnVoid => {
                    if let Some(v) = self.pop_frame(&mut stack, Value::Void) {
                        return Ok(v);
                    }
                }
                Op::FallOff => return Err(self.op_fall_off()),
                Op::Escaped => return Err(self.op_escaped()),
                Op::GetField { dst, obj, slot } => self.op_get_field(frame, dst, obj, slot)?,
                Op::SetField { obj, slot, src } => self.op_set_field(frame, obj, slot, src)?,
                Op::GetStatic { dst, class, field } => self.op_get_static(frame, dst, class, field),
                Op::SetStatic { class, field, src } => self.op_set_static(frame, class, field, src),
                Op::Arith { dst, op, nk, l, r } => self.op_arith(frame, dst, op, nk, l, r)?,
                Op::Cmp { dst, op, nk, l, r } => self.op_cmp(frame, dst, op, nk, l, r)?,
                Op::RefEq { dst, l, r, negate } => self.op_ref_eq(frame, dst, l, r, negate),
                Op::Concat { dst, l, r } => self.op_concat(frame, dst, l, r)?,
                Op::Not { dst, src } => self.op_not(frame, dst, src)?,
                Op::Neg { dst, src, nk } => self.op_neg(frame, dst, src, nk)?,
                Op::Widen { dst, src, to } => self.op_widen(frame, dst, src, to),
                Op::NewArray { dst, len, elem } => {
                    self.op_new_array(frame, dst, len, Ty::of(&code, elem))?;
                }
                Op::ArrayLen { dst, arr } => self.op_array_len(frame, dst, arr)?,
                Op::ArrayGet { dst, arr, idx } => self.op_array_get(frame, dst, arr, idx)?,
                Op::ArraySet { arr, idx, src } => self.op_array_set(frame, arr, idx, src)?,
                Op::InstanceOf { dst, src, ty } => {
                    self.op_instance_of(frame, dst, src, Ty::of(&code, ty));
                }
                Op::Cast { dst, src, ty } => self.op_cast(frame, dst, src, Ty::of(&code, ty))?,
                Op::DefaultValue { dst, ty } => self.op_default(frame, dst, Ty::of(&code, ty)),
                Op::Pack { dst, src, spec } => {
                    self.op_pack(frame, dst, src, &code.pack_specs[spec as usize])?;
                }
                Op::Open { dst, src, spec } => {
                    self.op_open(frame, dst, src, &code.open_specs[spec as usize])?;
                }
                Op::Print { src, newline } => self.op_print(frame, src, newline),
                Op::CallVirtual {
                    dst,
                    recv,
                    spec,
                    site,
                } => {
                    let s = &code.virt_specs[spec as usize];
                    let action = self.op_call_virtual(frame, recv, s, site)?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallStatic { dst, spec } => {
                    let action = self.op_call_static(frame, &code.static_specs[spec as usize])?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallGlobal { dst, spec } => {
                    let action = self.op_call_global(frame, &code.global_specs[spec as usize])?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallModel { dst, spec, site } => {
                    let s = &code.model_specs[spec as usize];
                    let action = self.op_call_model(frame, s, site)?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallDirect { dst, spec } => {
                    let callee = self.op_call_direct(frame, &code.direct_specs[spec as usize])?;
                    self.apply(&mut stack, dst, Action::Frame(callee))?;
                }
                Op::Inline {
                    recv,
                    this,
                    null_check,
                    nest,
                } => self.op_inline(frame, recv, this, null_check, nest)?,
                Op::New { dst, spec } => {
                    let ctor = self.op_new(frame, dst, &code.new_specs[spec as usize])?;
                    self.enter(ctor.counted)?;
                    stack.push(ctor);
                }
                Op::PrimCall { dst, spec } => {
                    self.op_prim_call(frame, dst, &code.prim_specs[spec as usize])?;
                }
                Op::Native { dst, spec } => {
                    self.op_native(frame, dst, &code.native_specs[spec as usize])?;
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Per-op semantics, shared with Tier 2
    // ------------------------------------------------------------------
    //
    // Each routine is one opcode's whole effect on the current frame: the
    // value it computes, its trap kind and message, and its meter charge
    // beyond the one fuel step every executed op pays. Operands arrive
    // decoded (register indices, the spec, the type reified or open). The
    // dispatch loop above and Tier 2's closures (`crate::tier`) call the
    // same routine for each op; only the control transfers (`Jump`,
    // `Return`, pushing a callee) are each engine's own.

    #[inline]
    pub(crate) fn op_const(&self, f: &mut VmFrame, dst: u16, k: u32) {
        f.regs[dst as usize] = self.consts[k as usize].clone();
    }

    #[inline]
    pub(crate) fn op_move(&self, f: &mut VmFrame, dst: u16, src: u16) {
        f.regs[dst as usize] = f.regs[src as usize].clone();
    }

    /// The boolean a `JumpIfFalse`/`JumpIfTrue` branches on.
    #[inline]
    pub(crate) fn op_cond(&self, f: &VmFrame, cond: u16) -> RResult<bool> {
        match &f.regs[cond as usize] {
            Value::Bool(b) => Ok(*b),
            other => Err(RuntimeError::new(
                ErrorKind::Other,
                format!("condition evaluated to non-boolean {other:?}"),
            )),
        }
    }

    /// The trap `FallOff` raises.
    pub(crate) fn op_fall_off(&self) -> RuntimeError {
        RuntimeError::new(
            ErrorKind::MissingReturn,
            "non-void body completed without returning",
        )
    }

    /// The trap `Escaped` raises.
    pub(crate) fn op_escaped(&self) -> RuntimeError {
        RuntimeError::new(ErrorKind::Other, "break/continue escaped a body")
    }

    #[inline]
    pub(crate) fn op_get_field(
        &self,
        f: &mut VmFrame,
        dst: u16,
        obj: u16,
        slot: u32,
    ) -> RResult<()> {
        let o = rtti::expect_obj(&self.state.heap, &f.regs[obj as usize])?;
        let v = o.fields.borrow()[slot as usize].clone();
        f.regs[dst as usize] = v;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_set_field(&self, f: &VmFrame, obj: u16, slot: u32, src: u16) -> RResult<()> {
        let v = f.regs[src as usize].clone();
        let o = rtti::expect_obj(&self.state.heap, &f.regs[obj as usize])?;
        o.fields.borrow_mut()[slot as usize] = v;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_get_static(&self, f: &mut VmFrame, dst: u16, class: ClassId, field: u32) {
        f.regs[dst as usize] = self.state.get_static(class, field);
    }

    #[inline]
    pub(crate) fn op_set_static(&self, f: &VmFrame, class: ClassId, field: u32, src: u16) {
        let v = f.regs[src as usize].clone();
        self.state.set_static(class, field, v);
    }

    #[inline]
    pub(crate) fn op_arith(
        &self,
        f: &mut VmFrame,
        dst: u16,
        op: BinOp,
        nk: NumKind,
        l: u16,
        r: u16,
    ) -> RResult<()> {
        let (lv, rv) = (f.regs[l as usize].clone(), f.regs[r as usize].clone());
        f.regs[dst as usize] = arith(op, nk, lv, rv)?;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_cmp(
        &self,
        f: &mut VmFrame,
        dst: u16,
        op: BinOp,
        nk: NumKind,
        l: u16,
        r: u16,
    ) -> RResult<()> {
        let (lv, rv) = (f.regs[l as usize].clone(), f.regs[r as usize].clone());
        f.regs[dst as usize] = compare(op, nk, lv, rv)?;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_ref_eq(&self, f: &mut VmFrame, dst: u16, l: u16, r: u16, negate: bool) {
        let eq = self
            .state
            .heap
            .ref_eq(&f.regs[l as usize], &f.regs[r as usize]);
        f.regs[dst as usize] = Value::Bool(eq != negate);
    }

    /// [`RunState::concat`] with this engine's `toString` call.
    #[inline]
    pub(crate) fn op_concat(&self, f: &mut VmFrame, dst: u16, l: u16, r: u16) -> RResult<()> {
        let (lv, rv) = (&f.regs[l as usize], &f.regs[r as usize]);
        f.regs[dst as usize] = self.state.concat(lv, rv, &|v| self.call_to_string(v))?;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_not(&self, f: &mut VmFrame, dst: u16, src: u16) -> RResult<()> {
        match &f.regs[src as usize] {
            Value::Bool(b) => f.regs[dst as usize] = Value::Bool(!*b),
            _ => return Err(RuntimeError::new(ErrorKind::Other, "`!` on non-boolean")),
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn op_neg(&self, f: &mut VmFrame, dst: u16, src: u16, nk: NumKind) -> RResult<()> {
        f.regs[dst as usize] = negate(nk, f.regs[src as usize].clone())?;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_widen(&self, f: &mut VmFrame, dst: u16, src: u16, to: PrimTy) {
        f.regs[dst as usize] = widen_value(f.regs[src as usize].clone(), to);
    }

    /// Allocates `new elem[len]`, charging its bytes.
    #[inline]
    pub(crate) fn op_new_array(
        &self,
        f: &mut VmFrame,
        dst: u16,
        len: u16,
        elem: Ty<'_>,
    ) -> RResult<()> {
        let et = elem.reify(self, f);
        let n = rtti::expect_length(&f.regs[len as usize])?;
        f.regs[dst as usize] = self.state.heap.alloc_arr(&self.state.meter, et, n)?;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_array_len(&self, f: &mut VmFrame, dst: u16, arr: u16) -> RResult<()> {
        let len = rtti::expect_arr(&self.state.heap, &f.regs[arr as usize])?
            .storage
            .borrow()
            .len();
        f.regs[dst as usize] = Value::Int(len as i32);
        Ok(())
    }

    #[inline]
    pub(crate) fn op_array_get(
        &self,
        f: &mut VmFrame,
        dst: u16,
        arr: u16,
        idx: u16,
    ) -> RResult<()> {
        let v = {
            let a = rtti::expect_arr(&self.state.heap, &f.regs[arr as usize])?;
            let s = a.storage.borrow();
            let i = rtti::expect_index(&f.regs[idx as usize], s.len())?;
            s.get(i)
        };
        f.regs[dst as usize] = v;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_array_set(&self, f: &VmFrame, arr: u16, idx: u16, src: u16) -> RResult<()> {
        let a = rtti::expect_arr(&self.state.heap, &f.regs[arr as usize])?;
        let mut s = a.storage.borrow_mut();
        let i = rtti::expect_index(&f.regs[idx as usize], s.len())?;
        s.set(i, f.regs[src as usize].clone());
        Ok(())
    }

    #[inline]
    pub(crate) fn op_instance_of(&self, f: &mut VmFrame, dst: u16, src: u16, ty: Ty<'_>) {
        let v = &f.regs[src as usize];
        // A reified image exists only for non-existential types, whose
        // `instanceof_type` is exactly `value_instanceof` of the
        // evaluated term.
        let b = match ty {
            Ty::Reified(rt) => rtti::value_instanceof(self.prog, &self.state.heap, v, rt),
            Ty::Open(t) => {
                rtti::instanceof_type(self.prog, &self.state.heap, &f.tenv, &f.menv, v, t)
            }
        };
        f.regs[dst as usize] = Value::Bool(b);
    }

    #[inline]
    pub(crate) fn op_cast(&self, f: &mut VmFrame, dst: u16, src: u16, ty: Ty<'_>) -> RResult<()> {
        let v = f.regs[src as usize].clone();
        f.regs[dst as usize] = match ty {
            Ty::Reified(rt) => rtti::cast_value_rt(self.prog, &self.state.heap, v, rt)?,
            Ty::Open(t) => rtti::cast_value(
                self.prog,
                &self.state.heap,
                &self.state.meter,
                &f.tenv,
                &f.menv,
                v,
                t,
            )?,
        };
        Ok(())
    }

    #[inline]
    pub(crate) fn op_default(&self, f: &mut VmFrame, dst: u16, ty: Ty<'_>) {
        f.regs[dst as usize] = ty.reify(self, f).default_value();
    }

    /// Packs `src` with the witnesses of `s` (§6.1), charging the package.
    #[inline]
    pub(crate) fn op_pack(&self, f: &mut VmFrame, dst: u16, src: u16, s: &PackSpec) -> RResult<()> {
        let v = f.regs[src as usize].clone();
        let ts = s
            .types
            .iter()
            .map(|t| rtti::eval_type(self.prog, &f.tenv, &f.menv, t))
            .collect();
        let ms = s
            .models
            .iter()
            .map(|m| rtti::eval_model(self.prog, &f.tenv, &f.menv, m))
            .collect();
        f.regs[dst as usize] = self.state.heap.alloc_packed(&self.state.meter, v, ts, ms)?;
        Ok(())
    }

    /// Opens `src` into `dst` (§6.2), binding the witnesses of `s` in the
    /// frame's environment.
    #[inline]
    pub(crate) fn op_open(&self, f: &mut VmFrame, dst: u16, src: u16, s: &OpenSpec) -> RResult<()> {
        match f.regs[src as usize].clone() {
            Value::Packed(h) => {
                let p = self.state.heap.packed(h);
                for (tv, t) in s.tvs.iter().zip(&p.types) {
                    f.tenv.insert(*tv, t.clone());
                }
                for (mv, m) in s.mvs.iter().zip(&p.models) {
                    f.menv.insert(*mv, m.clone());
                }
                f.regs[dst as usize] = p.value.clone();
            }
            Value::Null => {
                return Err(RuntimeError::new(
                    ErrorKind::NullPointer,
                    "cannot open a null existential",
                ));
            }
            other => {
                // Witnesses were statically evident (no packing was
                // needed): bind from the runtime type.
                let rt = rtti::value_rt_type(self.prog, &self.state.heap, &other);
                for tv in &s.tvs {
                    f.tenv.insert(*tv, rt.clone());
                }
                f.regs[dst as usize] = other;
            }
        }
        Ok(())
    }

    #[inline]
    pub(crate) fn op_print(&self, f: &VmFrame, src: u16, newline: bool) {
        let v = &f.regs[src as usize];
        self.state.print(v, newline, &|r| self.call_to_string(r));
    }

    /// The arguments, type arguments and model arguments of a call, read
    /// from the frame's registers and evaluated under its environment.
    #[inline]
    fn call_args(
        &self,
        f: &VmFrame,
        args: &[u16],
        targs: &[Type],
        margs: &[Model],
    ) -> (Vec<Value>, Vec<RtType>, Vec<ModelValue>) {
        (
            reg_args(f, args),
            targs
                .iter()
                .map(|t| rtti::eval_type(self.prog, &f.tenv, &f.menv, t))
                .collect(),
            margs
                .iter()
                .map(|m| rtti::eval_model(self.prog, &f.tenv, &f.menv, m))
                .collect(),
        )
    }

    #[inline]
    pub(crate) fn op_call_virtual(
        &self,
        f: &VmFrame,
        recv: u16,
        s: &VirtSpec,
        site: u32,
    ) -> RResult<Action> {
        let r = f.regs[recv as usize].clone();
        let (args, rt, rm) = self.call_args(f, &s.args, &s.targs, &s.margs);
        self.prepare_virtual(Some(site), r, s.name, s.arity, rt, rm, args)
    }

    #[inline]
    pub(crate) fn op_call_static(&self, f: &VmFrame, s: &StaticSpec) -> RResult<Action> {
        let (args, rt, rm) = self.call_args(f, &s.args, &s.targs, &s.margs);
        self.prepare_class_method(s.class, s.method, vec![], vec![], None, rt, rm, args)
    }

    #[inline]
    pub(crate) fn op_call_global(&self, f: &VmFrame, s: &GlobalSpec) -> RResult<Action> {
        let (args, rt, rm) = self.call_args(f, &s.args, &s.targs, &s.margs);
        self.prepare_global(s.index, rt, rm, args)
    }

    #[inline]
    pub(crate) fn op_call_model(&self, f: &VmFrame, s: &ModelSpec, site: u32) -> RResult<Action> {
        let mv = rtti::eval_model(self.prog, &f.tenv, &f.menv, &s.model);
        let r = s.recv.map(|r| f.regs[r as usize].clone());
        let srt = s
            .static_recv
            .as_ref()
            .map(|t| rtti::eval_type(self.prog, &f.tenv, &f.menv, t));
        self.prepare_model(Some(site), &mv, s.name, r, srt, reg_args(f, &s.args))
    }

    /// The callee frame of a direct call, its registers filled in place
    /// from the caller's: the receiver checked and unpacked, then the
    /// arguments.
    #[inline]
    pub(crate) fn op_call_direct(&self, f: &VmFrame, s: &DirectSpec) -> RResult<VmFrame> {
        let this = match s.recv {
            Some(r) => Some(self.direct_recv(f.regs[r as usize].clone(), s.null_check)?),
            None => None,
        };
        let args = s.args.iter().map(|&a| f.regs[a as usize].clone());
        Ok(self.frame(s.func, this, args, true))
    }

    #[inline]
    pub(crate) fn op_inline(
        &self,
        f: &mut VmFrame,
        recv: Option<u16>,
        this: u16,
        null_check: bool,
        nest: u16,
    ) -> RResult<()> {
        if let Some(r) = recv {
            f.regs[this as usize] = self.direct_recv(f.regs[r as usize].clone(), null_check)?;
        }
        self.state.probe_depth(nest)
    }

    /// Builds the object of a `New` site into `dst` and returns its
    /// constructor's frame, for the caller to enter.
    #[inline]
    pub(crate) fn op_new(&self, f: &mut VmFrame, dst: u16, s: &NewSpec) -> RResult<VmFrame> {
        let (this, ctor) = self.new_site(s, &f.tenv, &f.menv, &f.regs)?;
        f.regs[dst as usize] = this;
        Ok(ctor)
    }

    #[inline]
    pub(crate) fn op_prim_call(&self, f: &mut VmFrame, dst: u16, s: &PrimSpec) -> RResult<()> {
        let r = s.recv.map(|r| f.regs[r as usize].clone());
        let args = reg_args(f, &s.args);
        f.regs[dst as usize] = natives::prim_call(&self.state.heap, s.prim, s.name, r, args)?;
        Ok(())
    }

    #[inline]
    pub(crate) fn op_native(&self, f: &mut VmFrame, dst: u16, s: &NativeSpec) -> RResult<()> {
        let r = s.recv.map(|r| f.regs[r as usize].clone());
        f.regs[dst as usize] = self.native(s.op, r, reg_args(f, &s.args))?;
        Ok(())
    }

    /// Pops the finished frame, delivering `v` to the parent. Returns
    /// `Some(v)` when the root frame finished.
    pub(crate) fn pop_frame(&self, stack: &mut Vec<VmFrame>, v: Value) -> Option<Value> {
        let mut fin = stack.pop().expect("frame");
        if fin.counted {
            self.state.leave();
        }
        self.recycle_regs(std::mem::take(&mut fin.regs));
        match stack.last_mut() {
            Some(parent) => {
                if let Some(d) = fin.dst {
                    parent.regs[d as usize] = v;
                }
                None
            }
            None => Some(v),
        }
    }

    // ------------------------------------------------------------------
    // Call resolution (targets from `genus_interp::dispatch`)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prepare_virtual(
        &self,
        site: Option<u32>,
        recv: Value,
        name: Symbol,
        arity: usize,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Action> {
        let recv = self.state.heap.unpack(recv);
        match &recv {
            Value::Obj(h) => {
                let o = self.state.heap.obj(*h);
                let (cid, mi, cargs, cmodels) = self.state.dispatch.virtual_target(
                    self.prog,
                    site.map(Site::Slot),
                    o.class,
                    &o.targs,
                    &o.models,
                    name,
                    arity,
                )?;
                self.prepare_class_method(
                    cid,
                    mi,
                    cargs,
                    cmodels,
                    Some(recv.clone()),
                    targs,
                    margs,
                    args,
                )
            }
            _ => {
                let to_string = |v| self.call_to_string(v);
                let v = self
                    .state
                    .builtin_method(self.prog, recv, name, args, &to_string)?;
                Ok(Action::Value(v))
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn prepare_class_method(
        &self,
        cid: ClassId,
        mi: usize,
        cargs: Vec<RtType>,
        cmodels: Vec<ModelValue>,
        this: Option<Value>,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Action> {
        let def = self.prog.table.class(cid);
        let m = &def.methods[mi];
        if m.is_native {
            if let Some(op) = genus_check::body::native_op(def.name, m.name) {
                return Ok(Action::Value(self.native(op, this, args)?));
            }
        }
        let Some(&fid) = self.code.methods.get(&(cid.0, mi as u32)) else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("method `{}::{}` has no body", def.name, m.name),
            ));
        };
        let mut frame = self.frame(fid, this, args, true);
        for (tv, t) in def.params.iter().zip(cargs) {
            frame.tenv.insert(*tv, t);
        }
        for (w, mm) in def.wheres.iter().zip(cmodels) {
            frame.menv.insert(w.mv, mm);
        }
        for (tv, t) in m.tparams.iter().zip(targs) {
            frame.tenv.insert(*tv, t);
        }
        for (w, mm) in m.wheres.iter().zip(margs) {
            frame.menv.insert(w.mv, mm);
        }
        Ok(Action::Frame(frame))
    }

    pub(crate) fn prepare_global(
        &self,
        index: usize,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Action> {
        let g = &self.prog.table.globals[index];
        let Some(&fid) = self.code.globals.get(&(index as u32)) else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("global `{}` has no body", g.name),
            ));
        };
        let mut frame = self.frame(fid, None, args, true);
        for (tv, t) in g.tparams.iter().zip(targs) {
            frame.tenv.insert(*tv, t);
        }
        for (w, m) in g.wheres.iter().zip(margs) {
            frame.menv.insert(w.mv, m);
        }
        Ok(Action::Frame(frame))
    }

    /// Executes a `New` site up to its constructor call: reifies the
    /// type and model arguments under `tenv`/`menv` (a site without any
    /// skips that), builds the object from its class's construction plan,
    /// and returns it with the constructor's frame, its arguments copied
    /// from `regs`. The caller enters the frame.
    pub(crate) fn new_site(
        &self,
        s: &NewSpec,
        tenv: &TEnv,
        menv: &MEnv,
        regs: &[Value],
    ) -> RResult<(Value, VmFrame)> {
        let (rt, rm): (Vec<RtType>, Vec<ModelValue>) = if s.targs.is_empty() && s.models.is_empty()
        {
            (Vec::new(), Vec::new())
        } else {
            (
                s.targs
                    .iter()
                    .map(|t| rtti::eval_type(self.prog, tenv, menv, t))
                    .collect(),
                s.models
                    .iter()
                    .map(|m| rtti::eval_model(self.prog, tenv, menv, m))
                    .collect(),
            )
        };
        let code = &self.code;
        let plan = code.plans.get(self.prog, s.class, |c, fi| {
            code.field_inits.get(&(c.0, fi as u32)).copied()
        });
        let this = plan.construct(
            self.prog,
            &self.state.heap,
            &self.state.meter,
            s.class,
            &rt,
            &rm,
            // No rooting: initializers run in nested dispatch loops,
            // which never collect.
            |_| {},
            |this, &fid, init_tenv, init_menv| {
                let mut frame = self.frame(fid, Some(this.clone()), [], false);
                frame.tenv = init_tenv.clone();
                frame.menv = init_menv.clone();
                self.run_call(frame)
            },
        )?;
        let def = self.prog.table.class(s.class);
        let Some(fid) = s.func else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("class `{}` ctor {} has no body", def.name, s.ctor),
            ));
        };
        let args = s.args.iter().map(|&a| regs[a as usize].clone());
        let mut f = self.frame(fid, Some(this.clone()), args, true);
        for (tv, t) in def.params.iter().zip(rt) {
            f.tenv.insert(*tv, t);
        }
        for (w, mm) in def.wheres.iter().zip(rm) {
            f.menv.insert(w.mv, mm);
        }
        Ok((this, f))
    }

    // ------------------------------------------------------------------
    // Model dispatch (multimethods, §5.1)
    // ------------------------------------------------------------------

    pub(crate) fn prepare_model(
        &self,
        site: Option<u32>,
        model: &ModelValue,
        name: Symbol,
        recv: Option<Value>,
        static_recv: Option<RtType>,
        args: Vec<Value>,
    ) -> RResult<Action> {
        match model {
            ModelValue::Natural { .. } => match recv {
                Some(r) => self.prepare_virtual(None, r, name, args.len(), vec![], vec![], args),
                None => {
                    let target = self.state.dispatch.static_target(
                        self.prog,
                        static_recv,
                        name,
                        args.len(),
                    )?;
                    match target {
                        StaticTarget::Prim(p) => Ok(Action::Value(natives::prim_call(
                            &self.state.heap,
                            p,
                            name,
                            None,
                            args,
                        )?)),
                        StaticTarget::Method((id, mi, cargs, cmodels)) => self
                            .prepare_class_method(
                                id,
                                mi,
                                cargs,
                                cmodels,
                                None,
                                vec![],
                                vec![],
                                args,
                            ),
                    }
                }
            },
            ModelValue::Decl { id, targs, margs } => {
                let target = self.state.dispatch.model_target(
                    self.prog,
                    &self.state.heap,
                    site,
                    *id,
                    targs,
                    margs,
                    name,
                    recv.as_ref(),
                    static_recv.as_ref(),
                    &args,
                );
                self.prepare_model_target(target.as_deref(), *id, name, recv, args)
            }
        }
    }

    /// Builds the action for a chosen multimethod candidate (or the
    /// fallback when none applied).
    fn prepare_model_target(
        &self,
        target: Option<&ModelTarget>,
        id: ModelId,
        name: Symbol,
        recv: Option<Value>,
        args: Vec<Value>,
    ) -> RResult<Action> {
        let Some(t) = target else {
            // Fall back to the underlying type's own method (a model may
            // leave prerequisite operations to the natural model).
            if let Some(r) = recv {
                return self.prepare_virtual(None, r, name, args.len(), vec![], vec![], args);
            }
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!(
                    "model `{}` has no applicable `{name}`",
                    self.prog.table.model(id).name
                ),
            ));
        };
        let Some(&fid) = self.code.model_methods.get(&(t.mid.0, t.mi as u32)) else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("model method `{name}` has no body"),
            ));
        };
        let recv = recv.map(|r| self.state.heap.unpack(r));
        let mut frame = self.frame(fid, recv, args, true);
        frame.tenv = t.tenv.clone();
        frame.menv = t.menv.clone();
        Ok(Action::Frame(frame))
    }

    // ------------------------------------------------------------------
    // Natives and stringification
    // ------------------------------------------------------------------

    /// [`RunState::native`] with this engine's `toString` call.
    fn native(&self, op: NativeOp, recv: Option<Value>, args: Vec<Value>) -> RResult<Value> {
        self.state
            .native(op, recv, args, &|v| self.call_to_string(v))
    }

    /// Calls `recv.toString()` on a nested frame stack: the engine half
    /// of [`RunState::stringify`].
    fn call_to_string(&self, recv: Value) -> RResult<Value> {
        let name = Symbol::intern("toString");
        self.prepare_virtual(None, recv, name, 0, vec![], vec![], vec![])
            .and_then(|a| self.complete(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_check::check_source;
    use genus_interp::{with_interp_stack, Interp};

    fn run_vm(src: &str) -> (Value, String) {
        let prog = check_source(src).unwrap_or_else(|e| panic!("check failed:\n{e}"));
        let mut vm = Vm::new(&prog);
        let v = vm
            .run_main()
            .unwrap_or_else(|e| panic!("runtime error: {e}"));
        let out = vm.take_output();
        (v, out)
    }

    /// Runs on both engines and asserts the rendered value and output
    /// agree.
    fn run_both(src: &str) -> (String, String) {
        let prog = check_source(src).unwrap_or_else(|e| panic!("check failed:\n{e}"));
        let mut i = Interp::new(&prog);
        let iv = i.run_main().unwrap_or_else(|e| panic!("interp error: {e}"));
        let iout = i.state.take_output();
        let ir = i.state.render(&iv);
        let mut vm = Vm::new(&prog);
        let vv = vm.run_main().unwrap_or_else(|e| panic!("vm error: {e}"));
        let vout = vm.take_output();
        let vr = vm.render(&vv);
        assert_eq!(ir, vr, "values diverge");
        assert_eq!(iout, vout, "output diverges");
        (vr, vout)
    }

    #[test]
    fn arithmetic_and_loops() {
        let (v, _) = run_vm(
            "int main() { int s = 0; for (int i = 1; i <= 10; i = i + 1) { s += i; } return s; }",
        );
        assert!(matches!(v, Value::Int(55)));
    }

    #[test]
    fn strings_and_print() {
        let (_, out) = run_vm(r#"void main() { String s = "a" + "b"; println(s + 1); }"#);
        assert_eq!(out, "ab1\n");
    }

    #[test]
    fn short_circuit_evaluation_order() {
        let (v, out) = run_both(
            "boolean side(boolean r) { print(\"x\"); return r; }
             int main() {
               boolean a = side(false) && side(true);
               boolean b = side(true) || side(false);
               if (a || !b) { return 1; }
               return 0;
             }",
        );
        assert_eq!(v, "0");
        assert_eq!(out, "xx");
    }

    #[test]
    fn classes_inheritance_dispatch() {
        let (v, _) = run_both(
            "class Animal {
               Animal() { }
               int legs() { return 4; }
               String describe() { return \"has \" + this.legs() + \" legs\"; }
             }
             class Bird extends Animal {
               Bird() { }
               int legs() { return 2; }
             }
             String main() {
               Animal a = new Bird();
               return a.describe();
             }",
        );
        assert_eq!(v, "has 2 legs");
    }

    #[test]
    fn generics_models_multimethods() {
        run_both(
            r#"model CIEq for Eq[String] {
                 boolean equals(String str) { return equalsIgnoreCase(str); }
               }
               boolean same[T](T a, T b) where Eq[T] {
                 return a.equals(b);
               }
               void main() {
                 println(same[String with CIEq]("Hello", "HELLO"));
                 println(same("Hello", "HELLO"));
               }"#,
        );
    }

    #[test]
    fn static_constraint_ops_and_arrays() {
        let (v, _) = run_both(
            "constraint Ring[T] {
               static T T.zero();
               T T.plus(T that);
             }
             T sum[T](T[] xs) where Ring[T] {
               T acc = T.zero();
               for (T x : xs) { acc = acc.plus(x); }
               return acc;
             }
             double main() {
               double[] xs = new double[3];
               xs[0] = 1.0; xs[1] = 2.0; xs[2] = 3.5;
               return sum(xs);
             }",
        );
        assert_eq!(v, "6.5");
    }

    #[test]
    fn field_initializers_and_ctors() {
        let (v, _) = run_both(
            "class Base {
               int x = 10;
               Base() { }
             }
             class Derived extends Base {
               int y = x + 5;
               Derived() { }
             }
             int main() {
               Derived d = new Derived();
               return d.x + d.y;
             }",
        );
        assert_eq!(v, "25");
    }

    #[test]
    fn runtime_errors_match() {
        for src in [
            "int main() { int[] xs = new int[2]; return xs[5]; }",
            "int main() { String s = null; return s.length(); }",
            "int main() { return 1 / 0; }",
            "int rec(int n) { return rec(n + 1); } int main() { return rec(0); }",
        ] {
            let prog = check_source(src).expect("checks");
            // The recursion case reaches `MAX_DEPTH`: the interpreter
            // burns host stack per Genus frame, so it runs on the
            // big-stack thread.
            let ie = with_interp_stack(|| Interp::new(&prog).run_main().expect_err("interp traps"));
            let ve = Vm::new(&prog).run_main().expect_err("vm should trap");
            assert_eq!(ie.kind, ve.kind, "error kinds diverge for {src}");
            assert_eq!(ie.code(), ve.code(), "codes diverge for {src}");
            assert_eq!(ie.to_string(), ve.to_string(), "messages diverge for {src}");
        }
    }

    #[test]
    fn inline_caches_warm_up() {
        let prog = check_source(
            "class A { A() { } int f() { return 1; } }
             int main() {
               A a = new A();
               int s = 0;
               for (int i = 0; i < 100; i = i + 1) { s = s + a.f(); }
               return s;
             }",
        )
        .expect("checks");
        let mut vm = Vm::new(&prog);
        let v = vm.run_main().expect("runs");
        assert!(matches!(v, Value::Int(100)));
        if genus_types::caches_enabled() {
            let stats = vm.dispatch_stats();
            assert!(stats.ic_hits >= 99, "expected warm IC, got {stats:?}");
        }
    }

    #[test]
    fn bytecode_is_deterministic() {
        let prog = check_source(
            "class P { int v; P(int v) { this.v = v; } int get() { return v; } }
             int main() { return new P(7).get(); }",
        )
        .expect("checks");
        let a = compile_program(&prog);
        let b = compile_program(&prog);
        assert_eq!(a.code_len(), b.code_len());
        assert_eq!(a.consts.len(), b.consts.len());
        assert_eq!(a.num_sites, b.num_sites);
        assert_eq!(a.num_model_sites, b.num_model_sites);
        assert_eq!(format!("{:?}", a.funcs), format!("{:?}", b.funcs));
    }
}
