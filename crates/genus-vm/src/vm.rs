//! The register VM: an explicit-frame dispatch loop over compiled
//! bytecode.
//!
//! Where the tree-walking interpreter recurses on the host stack (one
//! native frame per Genus frame), the VM keeps Genus frames in an
//! explicit `Vec` and loops — the host stack stays flat on the hot call
//! path, so the VM does not need the facade's big-stack thread. The few
//! remaining host-recursive paths (stringification's `toString`
//! dispatch, field and static initializers) each include counted Genus
//! frames, so they stay bounded by the same `max_depth` budget as the
//! interpreter.
//!
//! Semantics are shared with the interpreter through
//! [`genus_interp::rtti`] (reification, dispatch resolution),
//! [`genus_interp::dispatch`] (the caches and counters in front of that
//! resolution) and [`genus_interp::natives`]/[`genus_interp::ops`]
//! (built-ins, arithmetic): the two engines cannot drift on type tests,
//! dispatch decisions, cache counts, or primitive behavior. The differential test suite (see
//! the `genus` facade) asserts identical results, captured output, and
//! runtime errors on every test program.
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

use crate::bytecode::{FuncId, NewSpec, Op, VmProgram};
use crate::compile::compile_program;
use genus_check::hir::{NativeOp, NumKind};
use genus_check::CheckedProgram;
use genus_common::Symbol;
use genus_heap::meter::{Limits, Meter, ResourceStats};
use genus_heap::str_bytes;
use genus_interp::dispatch::{Site, StaticTarget};
use genus_interp::natives;
use genus_interp::ops::{arith, compare, widen_value};
use genus_interp::rtti::{self, MEnv, ModelTarget, TEnv};
use genus_interp::{
    Dispatch, DispatchStats, ErrorKind, Heap, ModelValue, RtType, RuntimeError, Value,
};
use genus_types::{ClassId, ModelId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
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

/// The virtual machine. Holds static fields and captured output across
/// calls, mirroring [`genus_interp::Interp`]'s surface.
pub struct Vm<'p> {
    pub(crate) prog: &'p CheckedProgram,
    pub(crate) code: Arc<VmProgram>,
    /// Constant pool materialized as runtime values for this VM instance
    /// (`Op::Const` stays a plain indexed clone; the shared program keeps
    /// only `Send + Sync` [`crate::bytecode::Const`]s).
    pub(crate) consts: Vec<Value>,
    pub(crate) statics: RefCell<HashMap<(u32, u32), Value>>,
    pub(crate) output: RefCell<String>,
    dispatch: Dispatch,
    /// Recycled register vectors: frames return their registers here on
    /// exit so a call does not pay a heap allocation.
    regs_pool: RefCell<Vec<Vec<Value>>>,
    /// Callee frame parked by a Tier 2 call closure for the tier's outer
    /// loop to push ([`crate::tier`]). Keeping the frame out of the
    /// block-transfer value keeps every compiled-block return small.
    pub(crate) pending_call: Cell<Option<VmFrame>>,
    /// Whether `print` also writes to process stdout.
    pub echo: bool,
    pub(crate) depth: Cell<usize>,
    /// Maximum Genus call depth before a `StackOverflowError`.
    pub max_depth: usize,
    /// Per-run resource meter (fuel / memory / deadline). Unlimited by
    /// default; replace via [`Vm::set_limits`] before running.
    pub meter: Meter,
    /// The handle-indexed object heap shared by the dispatch loop and
    /// Tier 2 ([`crate::tier`]). Objects, arrays, and existential
    /// packages live here; registers hold [`genus_interp::Handle`]s.
    pub heap: Heap,
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
            statics: RefCell::new(HashMap::new()),
            output: RefCell::new(String::new()),
            dispatch,
            regs_pool: RefCell::new(Vec::new()),
            pending_call: Cell::new(None),
            echo: false,
            depth: Cell::new(0),
            max_depth: 1000,
            meter: Meter::unlimited(),
            heap: Heap::new(),
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

    /// Installs resource limits for this VM's next run, resetting the
    /// meter (fuel/memory counters start from zero, deadline from now).
    pub fn set_limits(&mut self, limits: Limits) {
        self.meter = Meter::with_limits(limits);
    }

    /// Resources consumed so far (fuel steps, allocated bytes, and the
    /// heap's live/peak/collection counters).
    pub fn resource_stats(&self) -> ResourceStats {
        let mut s = self.meter.stats();
        self.heap.fill_stats(&mut s);
        s
    }

    /// Renders a value for display (primitives verbatim, references as
    /// opaque summaries) — same rendering as the interpreter's.
    #[must_use]
    pub fn render(&self, v: &Value) -> String {
        self.heap.render(v)
    }

    /// Runs static initializers then `main()`.
    ///
    /// # Errors
    ///
    /// Returns the first uncaught [`RuntimeError`].
    pub fn run_main(&mut self) -> RResult<Value> {
        self.init_statics()?;
        let Some(main) = self.prog.main_index() else {
            return Err(RuntimeError::new(ErrorKind::Other, "no `main()` method"));
        };
        self.call_global(main, vec![], vec![], vec![])
    }

    /// Runs static initializers (idempotent per VM).
    ///
    /// # Errors
    ///
    /// Returns any [`RuntimeError`] raised by an initializer.
    pub fn init_statics(&self) -> RResult<()> {
        for (cid, fi, fid) in &self.code.static_inits {
            let frame = self.frame(*fid, None, vec![], false);
            let v = self.run_call(frame)?;
            self.statics.borrow_mut().insert((cid.0, *fi as u32), v);
        }
        Ok(())
    }

    /// Calls a global (top-level) method by index.
    ///
    /// # Errors
    ///
    /// Returns any [`RuntimeError`] raised by the body.
    pub fn call_global(
        &self,
        index: usize,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        let action = self.prepare_global(index, targs, margs, args)?;
        self.complete(action)
    }

    /// Takes the captured `print` output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(&mut self.output.borrow_mut())
    }

    /// Snapshot of the dispatch-cache hit/miss counters.
    #[must_use]
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.dispatch.stats()
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
            self.probe_depth(0)?;
            self.depth.set(self.depth.get() + 1);
        }
        Ok(())
    }

    /// The receiver a direct call (framed or inlined) binds to the
    /// callee's `this`: null-checked when the spec asks, then unpacked.
    pub(crate) fn direct_recv(&self, v: Value, null_check: bool) -> RResult<Value> {
        if null_check && self.heap.is_null(&v) {
            return Err(RuntimeError::new(ErrorKind::NullPointer, "call on null"));
        }
        Ok(self.heap.unpack(v))
    }

    /// The depth check of a call made `nest` inlined levels below the
    /// current frame: `StackOverflow` once the frame it would push is
    /// over `max_depth`. Counts nothing; [`Vm::enter`] does that.
    pub(crate) fn probe_depth(&self, nest: u16) -> RResult<()> {
        if self.depth.get() + nest as usize >= self.max_depth {
            return Err(RuntimeError::new(
                ErrorKind::StackOverflow,
                "call depth exceeded",
            ));
        }
        Ok(())
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

    /// Runs `root` (and every frame it pushes) to completion. The Genus
    /// depth counter is restored on error so callers that swallow errors
    /// (stringification) do not leak budget.
    fn run_call(&self, root: VmFrame) -> RResult<Value> {
        let base = self.depth.get();
        let r = self.run_frames(root);
        if r.is_err() {
            self.depth.set(base);
        }
        r
    }

    /// Nesting-counted wrapper around the dispatch loop: only the
    /// outermost loop polls the collector (see [`Vm::maybe_gc`]).
    fn run_frames(&self, root: VmFrame) -> RResult<Value> {
        self.nesting.set(self.nesting.get() + 1);
        let r = self.run_frames_inner(root);
        self.nesting.set(self.nesting.get() - 1);
        r
    }

    /// GC safe point: collects if the heap wants to, rooting every
    /// register of every frame on `stack`, the static fields, and any
    /// parked Tier 2 callee. Called only where `stack` is the *complete*
    /// set of live Genus frames (`nesting == 1`) — mid-instruction
    /// temporaries never live across a poll, and nested loops (field
    /// initializers, `toString` dispatch) never collect.
    pub(crate) fn maybe_gc(&self, stack: &[VmFrame]) {
        if !self.heap.should_collect() {
            return;
        }
        let mut roots = Vec::new();
        for f in stack {
            for v in &f.regs {
                self.heap.root(&mut roots, v);
            }
        }
        for v in self.statics.borrow().values() {
            self.heap.root(&mut roots, v);
        }
        if let Some(parked) = self.pending_call.take() {
            for v in &parked.regs {
                self.heap.root(&mut roots, v);
            }
            self.pending_call.set(Some(parked));
        }
        self.heap.collect(roots);
    }

    #[allow(clippy::too_many_lines)]
    fn run_frames_inner(&self, root: VmFrame) -> RResult<Value> {
        let code = Arc::clone(&self.code);
        self.enter(root.counted)?;
        let mut stack: Vec<VmFrame> = vec![root];
        loop {
            self.meter.step()?;
            if self.nesting.get() == 1 {
                self.maybe_gc(&stack);
            }
            let frame = stack.last_mut().expect("frame");
            let func = &code.funcs[frame.func.0 as usize];
            let op = func.code[frame.pc];
            #[cfg(feature = "coverage")]
            if let Some(cov) = &self.coverage {
                cov.record_site(frame.func.0, frame.pc as u32);
            }
            frame.pc += 1;
            match op {
                Op::Const { dst, k } => {
                    frame.regs[dst as usize] = self.consts[k as usize].clone();
                }
                Op::Move { dst, src } => {
                    frame.regs[dst as usize] = frame.regs[src as usize].clone();
                }
                Op::Jump { target } => frame.pc = target as usize,
                Op::JumpIfFalse { cond, target } => match &frame.regs[cond as usize] {
                    Value::Bool(false) => frame.pc = target as usize,
                    Value::Bool(true) => {}
                    other => {
                        return Err(RuntimeError::new(
                            ErrorKind::Other,
                            format!("condition evaluated to non-boolean {other:?}"),
                        ))
                    }
                },
                Op::JumpIfTrue { cond, target } => match &frame.regs[cond as usize] {
                    Value::Bool(true) => frame.pc = target as usize,
                    Value::Bool(false) => {}
                    other => {
                        return Err(RuntimeError::new(
                            ErrorKind::Other,
                            format!("condition evaluated to non-boolean {other:?}"),
                        ))
                    }
                },
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
                Op::FallOff => {
                    return Err(RuntimeError::new(
                        ErrorKind::MissingReturn,
                        "non-void body completed without returning",
                    ))
                }
                Op::Escaped => {
                    return Err(RuntimeError::new(
                        ErrorKind::Other,
                        "break/continue escaped a body",
                    ))
                }
                Op::GetField { dst, obj, slot } => {
                    let r = frame.regs[obj as usize].clone();
                    let o = rtti::expect_obj(&self.heap, &r)?;
                    let v = o.fields.borrow()[slot as usize].clone();
                    frame.regs[dst as usize] = v;
                }
                Op::SetField { obj, slot, src } => {
                    let r = frame.regs[obj as usize].clone();
                    let v = frame.regs[src as usize].clone();
                    let o = rtti::expect_obj(&self.heap, &r)?;
                    o.fields.borrow_mut()[slot as usize] = v;
                }
                Op::GetStatic { dst, class, field } => {
                    frame.regs[dst as usize] = self
                        .statics
                        .borrow()
                        .get(&(class.0, field))
                        .cloned()
                        .unwrap_or(Value::Null);
                }
                Op::SetStatic { class, field, src } => {
                    let v = frame.regs[src as usize].clone();
                    self.statics.borrow_mut().insert((class.0, field), v);
                }
                Op::Arith { dst, op, nk, l, r } => {
                    let lv = frame.regs[l as usize].clone();
                    let rv = frame.regs[r as usize].clone();
                    frame.regs[dst as usize] = arith(op, nk, lv, rv)?;
                }
                Op::Cmp { dst, op, nk, l, r } => {
                    let lv = frame.regs[l as usize].clone();
                    let rv = frame.regs[r as usize].clone();
                    frame.regs[dst as usize] = compare(op, nk, lv, rv)?;
                }
                Op::RefEq { dst, l, r, negate } => {
                    let eq = self
                        .heap
                        .ref_eq(&frame.regs[l as usize], &frame.regs[r as usize]);
                    frame.regs[dst as usize] = Value::Bool(eq != negate);
                }
                Op::Concat { dst, l, r } => {
                    let lv = frame.regs[l as usize].clone();
                    let rv = frame.regs[r as usize].clone();
                    let mut s = self.stringify(&lv)?;
                    s.push_str(&self.stringify(&rv)?);
                    self.meter.charge(str_bytes(s.len()))?;
                    stack.last_mut().expect("frame").regs[dst as usize] =
                        Value::Str(Rc::from(s.as_str()));
                }
                Op::Not { dst, src } => match &frame.regs[src as usize] {
                    Value::Bool(b) => frame.regs[dst as usize] = Value::Bool(!*b),
                    _ => return Err(RuntimeError::new(ErrorKind::Other, "`!` on non-boolean")),
                },
                Op::Neg { dst, src, nk } => {
                    let v = frame.regs[src as usize].clone();
                    frame.regs[dst as usize] = match (nk, v) {
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
                }
                Op::Widen { dst, src, to } => {
                    let v = frame.regs[src as usize].clone();
                    frame.regs[dst as usize] = widen_value(v, to);
                }
                Op::NewArray { dst, len, elem } => {
                    let et = self.reify(&code, &frame.tenv, &frame.menv, elem);
                    let Value::Int(n) = frame.regs[len as usize] else {
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
                    frame.regs[dst as usize] = self.heap.alloc_arr(&self.meter, et, n as usize)?;
                }
                Op::ArrayLen { dst, arr } => {
                    let av = frame.regs[arr as usize].clone();
                    let a = rtti::expect_arr(&self.heap, &av)?;
                    let len = a.storage.borrow().len();
                    frame.regs[dst as usize] = Value::Int(len as i32);
                }
                Op::ArrayGet { dst, arr, idx } => {
                    let av = frame.regs[arr as usize].clone();
                    let a = rtti::expect_arr(&self.heap, &av)?;
                    let i =
                        rtti::expect_index(&frame.regs[idx as usize], a.storage.borrow().len())?;
                    let v = a.storage.borrow().get(i);
                    frame.regs[dst as usize] = v;
                }
                Op::ArraySet { arr, idx, src } => {
                    let av = frame.regs[arr as usize].clone();
                    let a = rtti::expect_arr(&self.heap, &av)?;
                    let i =
                        rtti::expect_index(&frame.regs[idx as usize], a.storage.borrow().len())?;
                    let v = frame.regs[src as usize].clone();
                    a.storage.borrow_mut().set(i, v);
                }
                Op::InstanceOf { dst, src, ty } => {
                    let v = frame.regs[src as usize].clone();
                    // `rt_types` only caches non-existential entries, whose
                    // `instanceof_type` is exactly `value_instanceof` of the
                    // evaluated term.
                    let b = match code.rt_types.get(ty as usize).and_then(Option::as_ref) {
                        Some(rt) => rtti::value_instanceof(self.prog, &self.heap, &v, rt),
                        None => rtti::instanceof_type(
                            self.prog,
                            &self.heap,
                            &frame.tenv,
                            &frame.menv,
                            &v,
                            &code.types[ty as usize],
                        ),
                    };
                    frame.regs[dst as usize] = Value::Bool(b);
                }
                Op::Cast { dst, src, ty } => {
                    let v = frame.regs[src as usize].clone();
                    frame.regs[dst as usize] =
                        match code.rt_types.get(ty as usize).and_then(Option::as_ref) {
                            Some(rt) => rtti::cast_value_rt(self.prog, &self.heap, v, rt)?,
                            None => rtti::cast_value(
                                self.prog,
                                &self.heap,
                                &self.meter,
                                &frame.tenv,
                                &frame.menv,
                                v,
                                &code.types[ty as usize],
                            )?,
                        };
                }
                Op::DefaultValue { dst, ty } => {
                    frame.regs[dst as usize] = self
                        .reify(&code, &frame.tenv, &frame.menv, ty)
                        .default_value();
                }
                Op::Pack { dst, src, spec } => {
                    let s = &code.pack_specs[spec as usize];
                    let v = frame.regs[src as usize].clone();
                    let ts = s
                        .types
                        .iter()
                        .map(|t| rtti::eval_type(self.prog, &frame.tenv, &frame.menv, t))
                        .collect();
                    let ms = s
                        .models
                        .iter()
                        .map(|m| rtti::eval_model(self.prog, &frame.tenv, &frame.menv, m))
                        .collect();
                    frame.regs[dst as usize] = self.heap.alloc_packed(&self.meter, v, ts, ms)?;
                }
                Op::Open { dst, src, spec } => {
                    let s = &code.open_specs[spec as usize];
                    let v = frame.regs[src as usize].clone();
                    match v {
                        Value::Packed(h) => {
                            let p = self.heap.packed(h);
                            for (tv, t) in s.tvs.iter().zip(&p.types) {
                                frame.tenv.insert(*tv, t.clone());
                            }
                            for (mv, m) in s.mvs.iter().zip(&p.models) {
                                frame.menv.insert(*mv, m.clone());
                            }
                            frame.regs[dst as usize] = p.value.clone();
                        }
                        Value::Null => {
                            return Err(RuntimeError::new(
                                ErrorKind::NullPointer,
                                "cannot open a null existential",
                            ));
                        }
                        other => {
                            // Witnesses were statically evident (no packing
                            // was needed): bind from the runtime type.
                            let rt = rtti::value_rt_type(self.prog, &self.heap, &other);
                            for tv in &s.tvs {
                                frame.tenv.insert(*tv, rt.clone());
                            }
                            frame.regs[dst as usize] = other;
                        }
                    }
                }
                Op::Print { src, newline } => {
                    let v = frame.regs[src as usize].clone();
                    let s = self.stringify(&v)?;
                    {
                        let mut out = self.output.borrow_mut();
                        out.push_str(&s);
                        if newline {
                            out.push('\n');
                        }
                    }
                    if self.echo {
                        if newline {
                            println!("{s}");
                        } else {
                            print!("{s}");
                        }
                    }
                }
                Op::CallVirtual {
                    dst,
                    recv,
                    spec,
                    site,
                } => {
                    let s = &code.virt_specs[spec as usize];
                    let r = frame.regs[recv as usize].clone();
                    let args: Vec<Value> = s
                        .args
                        .iter()
                        .map(|&a| frame.regs[a as usize].clone())
                        .collect();
                    let rt: Vec<RtType> = s
                        .targs
                        .iter()
                        .map(|t| rtti::eval_type(self.prog, &frame.tenv, &frame.menv, t))
                        .collect();
                    let rm: Vec<ModelValue> = s
                        .margs
                        .iter()
                        .map(|m| rtti::eval_model(self.prog, &frame.tenv, &frame.menv, m))
                        .collect();
                    let action =
                        self.prepare_virtual(Some(site), r, s.name, s.arity, rt, rm, args)?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallStatic { dst, spec } => {
                    let s = &code.static_specs[spec as usize];
                    let args: Vec<Value> = s
                        .args
                        .iter()
                        .map(|&a| frame.regs[a as usize].clone())
                        .collect();
                    let rt: Vec<RtType> = s
                        .targs
                        .iter()
                        .map(|t| rtti::eval_type(self.prog, &frame.tenv, &frame.menv, t))
                        .collect();
                    let rm: Vec<ModelValue> = s
                        .margs
                        .iter()
                        .map(|m| rtti::eval_model(self.prog, &frame.tenv, &frame.menv, m))
                        .collect();
                    let action = self.prepare_class_method(
                        s.class,
                        s.method,
                        vec![],
                        vec![],
                        None,
                        rt,
                        rm,
                        args,
                    )?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallGlobal { dst, spec } => {
                    let s = &code.global_specs[spec as usize];
                    let args: Vec<Value> = s
                        .args
                        .iter()
                        .map(|&a| frame.regs[a as usize].clone())
                        .collect();
                    let rt: Vec<RtType> = s
                        .targs
                        .iter()
                        .map(|t| rtti::eval_type(self.prog, &frame.tenv, &frame.menv, t))
                        .collect();
                    let rm: Vec<ModelValue> = s
                        .margs
                        .iter()
                        .map(|m| rtti::eval_model(self.prog, &frame.tenv, &frame.menv, m))
                        .collect();
                    let action = self.prepare_global(s.index, rt, rm, args)?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallModel { dst, spec, site } => {
                    let s = &code.model_specs[spec as usize];
                    let mv = rtti::eval_model(self.prog, &frame.tenv, &frame.menv, &s.model);
                    let r = s.recv.map(|r| frame.regs[r as usize].clone());
                    let srt = s
                        .static_recv
                        .as_ref()
                        .map(|t| rtti::eval_type(self.prog, &frame.tenv, &frame.menv, t));
                    let args: Vec<Value> = s
                        .args
                        .iter()
                        .map(|&a| frame.regs[a as usize].clone())
                        .collect();
                    let action = self.prepare_model(Some(site), &mv, s.name, r, srt, args)?;
                    self.apply(&mut stack, dst, action)?;
                }
                Op::CallDirect { dst, spec } => {
                    let s = &code.direct_specs[spec as usize];
                    let recv = match s.recv {
                        Some(r) => {
                            let v = frame.regs[r as usize].clone();
                            Some(self.direct_recv(v, s.null_check)?)
                        }
                        None => None,
                    };
                    let args: Vec<Value> = s
                        .args
                        .iter()
                        .map(|&a| frame.regs[a as usize].clone())
                        .collect();
                    let f = self.frame(s.func, recv, args, true);
                    self.apply(&mut stack, dst, Action::Frame(f))?;
                }
                Op::Inline {
                    recv,
                    this,
                    null_check,
                    nest,
                } => {
                    if let Some(r) = recv {
                        let v = frame.regs[r as usize].clone();
                        frame.regs[this as usize] = self.direct_recv(v, null_check)?;
                    }
                    self.probe_depth(nest)?;
                }
                Op::New { dst, spec } => {
                    let s = &code.new_specs[spec as usize];
                    let (this, f) = self.new_site(s, &frame.tenv, &frame.menv, &frame.regs)?;
                    self.enter(true)?;
                    frame.regs[dst as usize] = this;
                    stack.push(f);
                }
                Op::PrimCall { dst, spec } => {
                    let s = &code.prim_specs[spec as usize];
                    let r = s.recv.map(|r| frame.regs[r as usize].clone());
                    let args: Vec<Value> = s
                        .args
                        .iter()
                        .map(|&a| frame.regs[a as usize].clone())
                        .collect();
                    frame.regs[dst as usize] =
                        natives::prim_call(&self.heap, s.prim, s.name, r, args)?;
                }
                Op::Native { dst, spec } => {
                    let s = &code.native_specs[spec as usize];
                    let r = s.recv.map(|r| frame.regs[r as usize].clone());
                    let args: Vec<Value> = s
                        .args
                        .iter()
                        .map(|&a| frame.regs[a as usize].clone())
                        .collect();
                    let v = self.native(s.op, r, args)?;
                    stack.last_mut().expect("frame").regs[dst as usize] = v;
                }
            }
        }
    }

    /// Reifies `types[ty]`, taking the optimizer's pre-evaluated image
    /// when one exists (closed terms evaluate the same under any
    /// environment).
    fn reify(&self, code: &VmProgram, tenv: &TEnv, menv: &MEnv, ty: u32) -> RtType {
        match code.rt_types.get(ty as usize).and_then(Option::as_ref) {
            Some(rt) => rt.clone(),
            None => rtti::eval_type(self.prog, tenv, menv, &code.types[ty as usize]),
        }
    }

    /// Pops the finished frame, delivering `v` to the parent. Returns
    /// `Some(v)` when the root frame finished.
    pub(crate) fn pop_frame(&self, stack: &mut Vec<VmFrame>, v: Value) -> Option<Value> {
        let mut fin = stack.pop().expect("frame");
        if fin.counted {
            self.depth.set(self.depth.get() - 1);
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
        let recv = self.heap.unpack(recv);
        match &recv {
            Value::Obj(h) => {
                let o = self.heap.obj(*h);
                let (cid, mi, cargs, cmodels) = self.dispatch.virtual_target(
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
            Value::Str(_) => {
                let Some(op) = natives::string_native_op(name) else {
                    return Err(RuntimeError::new(
                        ErrorKind::NoSuchMethod,
                        format!("no String method `{name}`"),
                    ));
                };
                Ok(Action::Value(self.native(op, Some(recv.clone()), args)?))
            }
            Value::Int(_) | Value::Long(_) | Value::Double(_) | Value::Bool(_) | Value::Char(_) => {
                let p = match rtti::value_rt_type(self.prog, &self.heap, &recv) {
                    RtType::Prim(p) => p,
                    _ => unreachable!("primitive value"),
                };
                Ok(Action::Value(natives::prim_call(
                    &self.heap,
                    p,
                    name,
                    Some(recv),
                    args,
                )?))
            }
            Value::Null => Err(RuntimeError::new(ErrorKind::NullPointer, "call on null")),
            other => Err(RuntimeError::new(
                ErrorKind::Other,
                format!("cannot dispatch `{name}` on {other:?}"),
            )),
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
            &self.heap,
            &self.meter,
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
                    let target =
                        self.dispatch
                            .static_target(self.prog, static_recv, name, args.len())?;
                    match target {
                        StaticTarget::Prim(p) => Ok(Action::Value(natives::prim_call(
                            &self.heap, p, name, None, args,
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
                let target = self.dispatch.model_target(
                    self.prog,
                    &self.heap,
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
        let recv = recv.map(|r| self.heap.unpack(r));
        let mut frame = self.frame(fid, recv, args, true);
        frame.tenv = t.tenv.clone();
        frame.menv = t.menv.clone();
        Ok(Action::Frame(frame))
    }

    // ------------------------------------------------------------------
    // Natives and stringification
    // ------------------------------------------------------------------

    pub(crate) fn native(
        &self,
        op: NativeOp,
        recv: Option<Value>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        natives::native_call_with(&self.heap, |v| self.stringify(v), op, recv, args)
    }

    /// Stringification used by concatenation and `print`: objects get
    /// their `toString` dispatched dynamically (on a nested frame
    /// stack); failures fall back to the default rendering, exactly as
    /// in the interpreter.
    pub fn stringify(&self, v: &Value) -> RResult<String> {
        match v {
            Value::Obj(_) => {
                let r = self
                    .prepare_virtual(
                        None,
                        v.clone(),
                        Symbol::intern("toString"),
                        0,
                        vec![],
                        vec![],
                        vec![],
                    )
                    .and_then(|a| self.complete(a));
                match r {
                    Ok(Value::Str(s)) => Ok(s.to_string()),
                    _ => Ok(self.heap.render(v)),
                }
            }
            Value::Packed(h) => {
                let p = self.heap.packed(*h);
                self.stringify(&p.value)
            }
            other => Ok(self.heap.render(other)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_check::check_source;
    use genus_interp::Interp;

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
        let iout = i.take_output();
        let ir = i.render(&iv);
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
            let mut i = Interp::new(&prog);
            // Keep the recursion case within the test thread's native
            // stack: the interpreter burns host stack per Genus frame
            // (the facade normally gives it a big-stack thread).
            i.max_depth = 64;
            let ie = i.run_main().expect_err("interp should trap");
            let mut vm = Vm::new(&prog);
            vm.max_depth = 64;
            let ve = vm.run_main().expect_err("vm should trap");
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
