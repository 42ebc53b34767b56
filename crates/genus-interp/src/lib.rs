//! Tree-walking interpreter for checked Genus programs.
//!
//! The interpreter executes the typed HIR produced by `genus-check` against
//! a reified runtime: objects carry their type arguments and model
//! witnesses (§7.2), arrays use element-specialized storage (§7.3), model
//! operations dispatch as multimethods over the dynamic receiver and
//! argument classes (§5.1), and `instanceof`/casts test reified
//! model-dependent types (§4.6).
//!
//! The crate also holds what the bytecode VM (`genus-vm`) shares with
//! the interpreter: the semantics in [`rtti`], [`natives`] and [`ops`],
//! the run-time dispatch caching in [`dispatch`] — one [`Dispatch`] per
//! engine instance, asked for every virtual and model-call target — and
//! the per-run state in [`state`]: one [`RunState`] per engine instance,
//! holding the meter, heap, dispatch, statics, output and depth guard.
//!
//! # Examples
//!
//! ```
//! use genus_check::check_source;
//! use genus_interp::Interp;
//!
//! let prog = check_source(r#"
//!     int main() { println("hi"); return 41 + 1; }
//! "#).unwrap();
//! let mut interp = Interp::new(&prog);
//! let v = interp.run_main().unwrap();
//! assert!(matches!(v, genus_interp::Value::Int(42)));
//! assert_eq!(interp.state.take_output(), "hi\n");
//! ```

pub mod dispatch;
pub mod natives;
pub mod ops;
pub mod rtti;
pub mod state;

pub use dispatch::{Dispatch, DispatchStats};
pub use state::{RunState, MAX_DEPTH};

pub use genus_heap::meter::{Limits, Meter, ResourceStats};
pub use genus_heap::value::{
    ArrayData, ClassMethodIndex, ErrorKind, ModelValue, ObjData, PackedData, RtType, RuntimeError,
    Storage, Value,
};
pub use genus_heap::{Handle, Heap, HeapStats};

use crate::dispatch::{Site, StaticTarget};
use crate::ops::{arith, compare, negate, widen_value};
use crate::rtti::{MEnv, ModelTarget, TEnv};
use genus_check::hir::{self, BinKind};
use genus_check::CheckedProgram;
use genus_common::Symbol;
use genus_syntax::ast::BinOp;
use genus_types::{caches_enabled, set_caches_enabled, ClassId, Model, ModelId, Type};
use std::cell::RefCell;
use std::rc::Rc;

type RResult<T> = Result<T, RuntimeError>;

/// Non-error control flow out of a statement.
enum Flow {
    Normal,
    Return(Value),
    Break,
    Continue,
}

/// One activation record. Locals are shared with the interpreter's frame
/// stack ([`Interp`]'s `frames` field) so the collector can enumerate
/// every live slot of every activation at a safe point.
#[derive(Default)]
struct Frame {
    locals: Rc<RefCell<Vec<Value>>>,
    tenv: TEnv,
    menv: MEnv,
}

/// Native stack the interpreter needs: each Genus frame costs tens of KiB
/// of host stack in debug builds, and it is calibrated so the recursion
/// guard ([`MAX_DEPTH`] frames), not the native stack, is what a deep
/// program hits. Run the interpreter on [`with_interp_stack`] for any
/// program that may recurse that deep.
pub const INTERP_STACK_SIZE: usize = 256 << 20;

/// Runs `f` on a scoped thread with [`INTERP_STACK_SIZE`] of native stack
/// and returns its result. The thread takes the caller's cache switch
/// ([`genus_types::set_caches_enabled`] is per thread). A panic in `f` is
/// re-raised on the caller with its original payload.
pub fn with_interp_stack<R: Send, F: FnOnce() -> R + Send>(f: F) -> R {
    let caches = caches_enabled();
    let joined = std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("genus-interp".to_string())
            .stack_size(INTERP_STACK_SIZE)
            .spawn_scoped(scope, move || {
                set_caches_enabled(caches);
                f()
            })
            .expect("spawn interpreter thread")
            .join()
    });
    joined.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// The interpreter: one run's [`RunState`] plus the frames and
/// temporaries it roots.
pub struct Interp<'p> {
    prog: &'p CheckedProgram,
    /// Meter, heap, dispatch, statics, output and depth of the run.
    pub state: RunState,
    /// Field slots of every class (objects store fields by slot) and
    /// each class's construction plan.
    plans: rtti::ClassPlans<&'p hir::Expr>,
    /// Root set, part 1: the locals of every live activation record.
    frames: RefCell<Vec<Rc<RefCell<Vec<Value>>>>>,
    /// Root set, part 2: every reference value produced by an expression
    /// in the current statement. `exec_stmt` records a watermark and
    /// truncates on completion, so temporaries stay rooted exactly while
    /// a statement can still use them.
    temps: RefCell<Vec<Value>>,
}

fn is_ref(v: &Value) -> bool {
    matches!(v, Value::Obj(_) | Value::Arr(_) | Value::Packed(_))
}

impl<'p> Interp<'p> {
    /// Creates an interpreter for a checked program.
    pub fn new(prog: &'p CheckedProgram) -> Self {
        Interp {
            prog,
            state: RunState::new(Dispatch::default()),
            plans: rtti::ClassPlans::new(rtti::FieldLayout::new(prog)),
            frames: RefCell::new(Vec::new()),
            temps: RefCell::new(Vec::new()),
        }
    }

    /// Collects garbage if the heap asks for it. Called only at safe
    /// points: the top of each statement and immediately before each
    /// heap allocation, where every live reference is reachable from
    /// the frame stack, the temporaries, or the statics map.
    fn maybe_gc(&self) {
        self.state.maybe_gc(|roots| {
            for f in self.frames.borrow().iter() {
                for v in f.borrow().iter() {
                    self.state.heap.root(roots, v);
                }
            }
            for v in self.temps.borrow().iter() {
                self.state.heap.root(roots, v);
            }
        });
    }

    /// Runs static initializers then `main()`.
    ///
    /// # Errors
    ///
    /// Returns the first uncaught [`RuntimeError`].
    pub fn run_main(&mut self) -> RResult<Value> {
        let mark = self.temps.borrow().len();
        let main = self
            .state
            .prologue(self.prog, &self.prog.static_inits, |init| {
                self.eval(&mut Frame::default(), init)
            })?;
        // Initializer temporaries are dead now; the values themselves are
        // rooted through the statics map.
        self.temps.borrow_mut().truncate(mark);
        self.call_global(main, vec![], vec![], vec![])
    }

    /// Calls a global (top-level) method by index.
    fn call_global(
        &self,
        index: usize,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        let g = &self.prog.table.globals[index];
        let Some(body) = self.prog.global_bodies.get(&(index as u32)) else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("global `{}` has no body", g.name),
            ));
        };
        let mut frame = Frame::default();
        for (tv, t) in g.tparams.iter().zip(targs) {
            frame.tenv.insert(*tv, t);
        }
        for (w, m) in g.wheres.iter().zip(margs) {
            frame.menv.insert(w.mv, m);
        }
        self.run_body(frame, body, None, args, g.ret.is_void())
    }

    // ------------------------------------------------------------------
    // Frames and bodies
    // ------------------------------------------------------------------

    fn run_body(
        &self,
        mut frame: Frame,
        body: &hir::Body,
        this: Option<Value>,
        args: Vec<Value>,
        is_void: bool,
    ) -> RResult<Value> {
        self.state.enter()?;
        {
            let mut locals = frame.locals.borrow_mut();
            *locals = vec![Value::Null; body.num_locals];
            let mut slot = 0;
            if let Some(t) = this {
                locals[0] = t;
                slot = 1;
            }
            for a in args {
                locals[slot] = a;
                slot += 1;
            }
        }
        self.frames.borrow_mut().push(Rc::clone(&frame.locals));
        let r = self.exec_block(&mut frame, &body.block);
        self.frames.borrow_mut().pop();
        self.state.leave();
        match r? {
            Flow::Return(v) => Ok(v),
            Flow::Normal if is_void => Ok(Value::Void),
            Flow::Normal => Err(RuntimeError::new(
                ErrorKind::MissingReturn,
                "non-void body completed without returning",
            )),
            _ => Err(RuntimeError::new(
                ErrorKind::Other,
                "break/continue escaped a body",
            )),
        }
    }

    fn exec_block(&self, frame: &mut Frame, b: &hir::Block) -> RResult<Flow> {
        for s in &b.stmts {
            match self.exec_stmt(frame, s)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    /// Statement boundary: GC safe point plus temporary-root scoping.
    /// Reference values produced while executing `s` are rooted in
    /// `temps` (by [`Interp::eval`]); they die with the statement, except
    /// a `Return` value, which is re-rooted for the calling frame.
    fn exec_stmt(&self, frame: &mut Frame, s: &hir::Stmt) -> RResult<Flow> {
        self.maybe_gc();
        let mark = self.temps.borrow().len();
        let r = self.exec_stmt_inner(frame, s);
        let mut temps = self.temps.borrow_mut();
        temps.truncate(mark);
        if let Ok(Flow::Return(v)) = &r {
            if is_ref(v) {
                temps.push(v.clone());
            }
        }
        r
    }

    fn exec_stmt_inner(&self, frame: &mut Frame, s: &hir::Stmt) -> RResult<Flow> {
        self.state.meter.step()?;
        match s {
            hir::Stmt::Expr(e) => {
                self.eval(frame, e)?;
                Ok(Flow::Normal)
            }
            hir::Stmt::Let { local, init, ty } => {
                let v = match init {
                    Some(e) => self.eval(frame, e)?,
                    None => self.eval_type(frame, ty).default_value(),
                };
                frame.locals.borrow_mut()[local.0 as usize] = v;
                Ok(Flow::Normal)
            }
            hir::Stmt::LetOpen {
                local,
                init,
                tvs,
                mvs,
            } => {
                let v = self.eval(frame, init)?;
                match v {
                    Value::Packed(h) => {
                        let p = self.state.heap.packed(h);
                        for (tv, t) in tvs.iter().zip(&p.types) {
                            frame.tenv.insert(*tv, t.clone());
                        }
                        for (mv, m) in mvs.iter().zip(&p.models) {
                            frame.menv.insert(*mv, m.clone());
                        }
                        frame.locals.borrow_mut()[local.0 as usize] = p.value.clone();
                    }
                    Value::Null => {
                        return Err(RuntimeError::new(
                            ErrorKind::NullPointer,
                            "cannot open a null existential",
                        ));
                    }
                    other => {
                        // A value whose witnesses were statically evident
                        // (no packing was needed): bind from its runtime
                        // type if possible.
                        let rt = rtti::value_rt_type(self.prog, &self.state.heap, &other);
                        for tv in tvs {
                            frame.tenv.insert(*tv, rt.clone());
                        }
                        frame.locals.borrow_mut()[local.0 as usize] = other;
                    }
                }
                Ok(Flow::Normal)
            }
            hir::Stmt::If {
                cond,
                then_blk,
                else_blk,
            } => {
                if self.truthy(frame, cond)? {
                    self.exec_block(frame, then_blk)
                } else {
                    self.exec_block(frame, else_blk)
                }
            }
            hir::Stmt::While { cond, body, update } => {
                let mark = self.temps.borrow().len();
                loop {
                    // Bound temp-root growth: values from previous
                    // iterations (notably the condition's) are dead.
                    self.temps.borrow_mut().truncate(mark);
                    if !self.truthy(frame, cond)? {
                        break;
                    }
                    match self.exec_block(frame, body)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    match self.exec_block(frame, update)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            hir::Stmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(frame, e)?,
                    None => Value::Void,
                };
                Ok(Flow::Return(v))
            }
            hir::Stmt::Break => Ok(Flow::Break),
            hir::Stmt::Continue => Ok(Flow::Continue),
            hir::Stmt::Block(b) => self.exec_block(frame, b),
        }
    }

    fn truthy(&self, frame: &mut Frame, e: &hir::Expr) -> RResult<bool> {
        match self.eval(frame, e)? {
            Value::Bool(b) => Ok(b),
            other => Err(RuntimeError::new(
                ErrorKind::Other,
                format!("condition evaluated to non-boolean {other:?}"),
            )),
        }
    }

    // ------------------------------------------------------------------
    // Reification
    // ------------------------------------------------------------------

    /// Evaluates a static type to its runtime reification in `frame`.
    fn eval_type(&self, frame: &Frame, t: &Type) -> RtType {
        rtti::eval_type(self.prog, &frame.tenv, &frame.menv, t)
    }

    /// Evaluates a static model to its runtime witness in `frame`.
    fn eval_model(&self, frame: &Frame, m: &Model) -> ModelValue {
        rtti::eval_model(self.prog, &frame.tenv, &frame.menv, m)
    }

    // ------------------------------------------------------------------
    // Expressions
    // ------------------------------------------------------------------

    /// Evaluates an expression, rooting any produced reference value in
    /// the statement-scoped temporaries so it survives a collection at
    /// any nested safe point until the enclosing statement completes.
    fn eval(&self, frame: &mut Frame, e: &hir::Expr) -> RResult<Value> {
        let v = self.eval_inner(frame, e)?;
        if is_ref(&v) {
            self.temps.borrow_mut().push(v.clone());
        }
        Ok(v)
    }

    #[allow(clippy::too_many_lines)]
    fn eval_inner(&self, frame: &mut Frame, e: &hir::Expr) -> RResult<Value> {
        use hir::ExprKind as K;
        self.state.meter.step()?;
        match &e.kind {
            K::Int(v) => Ok(Value::Int(*v as i32)),
            K::Long(v) => Ok(Value::Long(*v)),
            K::Double(v) => Ok(Value::Double(*v)),
            K::Bool(v) => Ok(Value::Bool(*v)),
            K::Char(v) => Ok(Value::Char(*v)),
            K::Str(s) => Ok(Value::Str(Rc::from(s.as_str()))),
            K::Null => Ok(Value::Null),
            K::Local(l) => Ok(frame.locals.borrow()[l.0 as usize].clone()),
            K::SetLocal { local, value } => {
                let v = self.eval(frame, value)?;
                frame.locals.borrow_mut()[local.0 as usize] = v.clone();
                Ok(v)
            }
            K::GetField { recv, class, field } => {
                let r = self.eval(frame, recv)?;
                let o = rtti::expect_obj(&self.state.heap, &r)?;
                let v = o.fields.borrow()[self.plans.layout().slot(*class, *field)].clone();
                Ok(v)
            }
            K::SetField {
                recv,
                class,
                field,
                value,
            } => {
                let r = self.eval(frame, recv)?;
                let v = self.eval(frame, value)?;
                let o = rtti::expect_obj(&self.state.heap, &r)?;
                o.fields.borrow_mut()[self.plans.layout().slot(*class, *field)] = v.clone();
                Ok(v)
            }
            K::GetStatic { class, field } => Ok(self.state.get_static(*class, *field as u32)),
            K::SetStatic {
                class,
                field,
                value,
            } => {
                let v = self.eval(frame, value)?;
                self.state.set_static(*class, *field as u32, v.clone());
                Ok(v)
            }
            K::CallVirtual {
                recv,
                name,
                arity,
                targs,
                margs,
                args,
            } => {
                let r = self.eval(frame, recv)?;
                let vargs = self.eval_args(frame, args)?;
                let rt = targs
                    .iter()
                    .map(|t| self.eval_type(frame, t))
                    .collect::<Vec<_>>();
                let rm = margs
                    .iter()
                    .map(|m| self.eval_model(frame, m))
                    .collect::<Vec<_>>();
                // The HIR node's address identifies the call site for its
                // inline cache; nodes live as long as the program borrow.
                let site = e as *const hir::Expr as usize;
                self.call_virtual_at(Some(site), r, *name, *arity, rt, rm, vargs)
            }
            K::CallStatic {
                class,
                method,
                targs,
                margs,
                args,
            } => {
                let vargs = self.eval_args(frame, args)?;
                let rt = targs
                    .iter()
                    .map(|t| self.eval_type(frame, t))
                    .collect::<Vec<_>>();
                let rm = margs
                    .iter()
                    .map(|m| self.eval_model(frame, m))
                    .collect::<Vec<_>>();
                self.invoke_class_method(*class, *method, vec![], vec![], None, rt, rm, vargs)
            }
            K::CallGlobal {
                index,
                targs,
                margs,
                args,
            } => {
                let vargs = self.eval_args(frame, args)?;
                let rt = targs
                    .iter()
                    .map(|t| self.eval_type(frame, t))
                    .collect::<Vec<_>>();
                let rm = margs
                    .iter()
                    .map(|m| self.eval_model(frame, m))
                    .collect::<Vec<_>>();
                self.call_global(*index, rt, rm, vargs)
            }
            K::CallModel {
                model,
                name,
                recv,
                static_recv,
                args,
            } => {
                let mv = self.eval_model(frame, model);
                let r = match recv {
                    Some(r) => Some(self.eval(frame, r)?),
                    None => None,
                };
                let srt = static_recv.as_ref().map(|t| self.eval_type(frame, t));
                let vargs = self.eval_args(frame, args)?;
                self.call_model(&mv, *name, r, srt, vargs)
            }
            K::DefaultValue { of } => Ok(self.eval_type(frame, of).default_value()),
            K::New {
                class,
                targs,
                models,
                ctor,
                args,
            } => {
                let rt = targs
                    .iter()
                    .map(|t| self.eval_type(frame, t))
                    .collect::<Vec<_>>();
                let rm = models
                    .iter()
                    .map(|m| self.eval_model(frame, m))
                    .collect::<Vec<_>>();
                let vargs = self.eval_args(frame, args)?;
                self.construct(*class, rt, rm, *ctor, vargs)
            }
            K::NewArray { elem, len } => {
                let et = self.eval_type(frame, elem);
                let n = rtti::expect_length(&self.eval(frame, len)?)?;
                self.maybe_gc();
                self.state.heap.alloc_arr(&self.state.meter, et, n)
            }
            K::ArrayLen { arr } => {
                let a = self.eval(frame, arr)?;
                let a = rtti::expect_arr(&self.state.heap, &a)?;
                let len = a.storage.borrow().len();
                Ok(Value::Int(len as i32))
            }
            K::ArrayGet { arr, idx } => {
                let a = self.eval(frame, arr)?;
                let i = self.eval(frame, idx)?;
                let a = rtti::expect_arr(&self.state.heap, &a)?;
                let i = rtti::expect_index(&i, a.storage.borrow().len())?;
                let v = a.storage.borrow().get(i);
                Ok(v)
            }
            K::ArraySet { arr, idx, value } => {
                let a = self.eval(frame, arr)?;
                let i = self.eval(frame, idx)?;
                let v = self.eval(frame, value)?;
                let a = rtti::expect_arr(&self.state.heap, &a)?;
                let i = rtti::expect_index(&i, a.storage.borrow().len())?;
                a.storage.borrow_mut().set(i, v.clone());
                Ok(v)
            }
            K::Binary { kind, lhs, rhs } => self.eval_binary(frame, *kind, lhs, rhs),
            K::Not(x) => match self.eval(frame, x)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                _ => Err(RuntimeError::new(ErrorKind::Other, "`!` on non-boolean")),
            },
            K::Neg { expr, kind } => negate(*kind, self.eval(frame, expr)?),
            K::Widen { expr, from: _, to } => {
                let v = self.eval(frame, expr)?;
                Ok(widen_value(v, *to))
            }
            K::InstanceOf { expr, ty } => {
                let v = self.eval(frame, expr)?;
                Ok(Value::Bool(self.instanceof_type(frame, &v, ty)))
            }
            K::Cast { expr, ty } => {
                let v = self.eval(frame, expr)?;
                // A cast to an existential allocates a package; give the
                // collector its pre-allocation safe point.
                self.maybe_gc();
                self.cast(frame, v, ty)
            }
            K::Pack {
                expr,
                ex: _,
                types,
                models,
            } => {
                let v = self.eval(frame, expr)?;
                let ts = types.iter().map(|t| self.eval_type(frame, t)).collect();
                let ms = models.iter().map(|m| self.eval_model(frame, m)).collect();
                self.maybe_gc();
                self.state.heap.alloc_packed(&self.state.meter, v, ts, ms)
            }
            K::Cond {
                cond,
                then_e,
                else_e,
            } => {
                if self.truthy(frame, cond)? {
                    self.eval(frame, then_e)
                } else {
                    self.eval(frame, else_e)
                }
            }
            K::Print { arg, newline } => {
                let v = self.eval(frame, arg)?;
                self.state.print(&v, *newline, &|r| self.call_to_string(r));
                Ok(Value::Void)
            }
            K::PrimCall {
                prim,
                name,
                recv,
                args,
            } => {
                let r = match recv {
                    Some(r) => Some(self.eval(frame, r)?),
                    None => None,
                };
                let vargs = self.eval_args(frame, args)?;
                natives::prim_call(&self.state.heap, *prim, *name, r, vargs)
            }
            K::Native { op, recv, args } => {
                let r = match recv {
                    Some(r) => Some(self.eval(frame, r)?),
                    None => None,
                };
                let vargs = self.eval_args(frame, args)?;
                self.native(*op, r, vargs)
            }
        }
    }

    fn eval_args(&self, frame: &mut Frame, args: &[hir::Expr]) -> RResult<Vec<Value>> {
        args.iter().map(|a| self.eval(frame, a)).collect()
    }

    fn eval_binary(
        &self,
        frame: &mut Frame,
        kind: BinKind,
        lhs: &hir::Expr,
        rhs: &hir::Expr,
    ) -> RResult<Value> {
        match kind {
            BinKind::And => {
                if !self.truthy(frame, lhs)? {
                    return Ok(Value::Bool(false));
                }
                Ok(Value::Bool(self.truthy(frame, rhs)?))
            }
            BinKind::Or => {
                if self.truthy(frame, lhs)? {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(self.truthy(frame, rhs)?))
            }
            BinKind::Concat => {
                let l = self.eval(frame, lhs)?;
                let r = self.eval(frame, rhs)?;
                self.state.concat(&l, &r, &|v| self.call_to_string(v))
            }
            BinKind::EqRef(op) | BinKind::EqPrim(op) => {
                let l = self.eval(frame, lhs)?;
                let r = self.eval(frame, rhs)?;
                let eq = self.state.heap.ref_eq(&l, &r);
                Ok(Value::Bool(if op == BinOp::Eq { eq } else { !eq }))
            }
            BinKind::Arith(op, nk) => {
                let l = self.eval(frame, lhs)?;
                let r = self.eval(frame, rhs)?;
                arith(op, nk, l, r)
            }
            BinKind::Cmp(op, nk) => {
                let l = self.eval(frame, lhs)?;
                let r = self.eval(frame, rhs)?;
                compare(op, nk, l, r)
            }
        }
    }

    fn instanceof_type(&self, frame: &Frame, v: &Value, ty: &Type) -> bool {
        rtti::instanceof_type(self.prog, &self.state.heap, &frame.tenv, &frame.menv, v, ty)
    }

    fn cast(&self, frame: &Frame, v: Value, ty: &Type) -> RResult<Value> {
        rtti::cast_value(
            self.prog,
            &self.state.heap,
            &self.state.meter,
            &frame.tenv,
            &frame.menv,
            v,
            ty,
        )
    }

    /// [`RunState::native`] with this engine's `toString` call.
    fn native(&self, op: hir::NativeOp, recv: Option<Value>, args: Vec<Value>) -> RResult<Value> {
        self.state
            .native(op, recv, args, &|v| self.call_to_string(v))
    }

    /// Calls `recv.toString()`: the engine half of [`RunState::stringify`].
    fn call_to_string(&self, recv: Value) -> RResult<Value> {
        let name = Symbol::intern("toString");
        self.call_virtual(recv, name, 0, vec![], vec![], vec![])
    }

    // ------------------------------------------------------------------
    // Calls
    // ------------------------------------------------------------------

    /// Invokes a virtual method on a value.
    fn call_virtual(
        &self,
        recv: Value,
        name: Symbol,
        arity: usize,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        self.call_virtual_at(None, recv, name, arity, targs, margs, args)
    }

    /// [`Interp::call_virtual`] with an optional call-site key for the
    /// inline cache.
    #[allow(clippy::too_many_arguments)]
    fn call_virtual_at(
        &self,
        site: Option<usize>,
        recv: Value,
        name: Symbol,
        arity: usize,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        let recv = self.state.heap.unpack(recv);
        match &recv {
            Value::Obj(h) => {
                let o = self.state.heap.obj(*h);
                let (cid, mi, cargs, cmodels) = self.state.dispatch.virtual_target(
                    self.prog,
                    site.map(Site::Node),
                    o.class,
                    &o.targs,
                    &o.models,
                    name,
                    arity,
                )?;
                self.invoke_class_method(
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
                self.state
                    .builtin_method(self.prog, recv, name, args, &to_string)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn invoke_class_method(
        &self,
        cid: ClassId,
        mi: usize,
        cargs: Vec<RtType>,
        cmodels: Vec<ModelValue>,
        this: Option<Value>,
        targs: Vec<RtType>,
        margs: Vec<ModelValue>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        let def = self.prog.table.class(cid);
        let m = &def.methods[mi];
        if m.is_native {
            if let Some(op) = genus_check::body::native_op(def.name, m.name) {
                return self.native(op, this, args);
            }
        }
        let Some(body) = self.prog.method_bodies.get(&(cid.0, mi as u32)) else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("method `{}::{}` has no body", def.name, m.name),
            ));
        };
        let mut frame = Frame::default();
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
        self.run_body(frame, body, this, args, m.ret.is_void())
    }

    fn construct(
        &self,
        cid: ClassId,
        targs: Vec<RtType>,
        models: Vec<ModelValue>,
        ctor: usize,
        args: Vec<Value>,
    ) -> RResult<Value> {
        self.maybe_gc();
        let prog = self.prog;
        let plan = self.plans.get(prog, cid, |c, fi| {
            prog.field_inits.get(&(c.0, fi as u32)).map(|e| &**e)
        });
        let this = plan.construct(
            prog,
            &self.state.heap,
            &self.state.meter,
            cid,
            &targs,
            &models,
            // Root the fresh object for the whole construction sequence
            // (the field initializers and constructor below can all
            // collect).
            |this| self.temps.borrow_mut().push(this.clone()),
            |this, init, tenv, menv| {
                let mut frame = Frame {
                    locals: Rc::new(RefCell::new(vec![this.clone()])),
                    tenv: tenv.clone(),
                    menv: menv.clone(),
                };
                self.eval(&mut frame, init)
            },
        )?;
        // Run the constructor.
        let def = self.prog.table.class(cid);
        let Some(body) = self.prog.ctor_bodies.get(&(cid.0, ctor as u32)) else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("class `{}` ctor {ctor} has no body", def.name),
            ));
        };
        let mut frame = Frame::default();
        for (tv, t) in def.params.iter().zip(&targs) {
            frame.tenv.insert(*tv, t.clone());
        }
        for (w, mm) in def.wheres.iter().zip(&models) {
            frame.menv.insert(w.mv, mm.clone());
        }
        self.run_body(frame, body, Some(this.clone()), args, true)?;
        Ok(this)
    }

    // ------------------------------------------------------------------
    // Model dispatch (multimethods, §5.1)
    // ------------------------------------------------------------------

    /// Invokes constraint operation `name` through a model witness.
    fn call_model(
        &self,
        model: &ModelValue,
        name: Symbol,
        recv: Option<Value>,
        static_recv: Option<RtType>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        match model {
            ModelValue::Natural { .. } => match recv {
                Some(r) => self.call_virtual(r, name, args.len(), vec![], vec![], args),
                None => {
                    let target = self.state.dispatch.static_target(
                        self.prog,
                        static_recv,
                        name,
                        args.len(),
                    )?;
                    match target {
                        StaticTarget::Prim(p) => {
                            natives::prim_call(&self.state.heap, p, name, None, args)
                        }
                        StaticTarget::Method((id, mi, cargs, cmodels)) => self.invoke_class_method(
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
                    None,
                    *id,
                    targs,
                    margs,
                    name,
                    recv.as_ref(),
                    static_recv.as_ref(),
                    &args,
                );
                self.invoke_model_target(target.as_deref(), *id, name, recv, args)
            }
        }
    }

    /// Runs the chosen multimethod candidate (or the fallback when no
    /// candidate applied).
    fn invoke_model_target(
        &self,
        target: Option<&ModelTarget>,
        id: ModelId,
        name: Symbol,
        recv: Option<Value>,
        args: Vec<Value>,
    ) -> RResult<Value> {
        let Some(t) = target else {
            // Fall back to the underlying type's own method (a model may
            // leave prerequisite operations to the natural model).
            if let Some(r) = recv {
                return self.call_virtual(r, name, args.len(), vec![], vec![], args);
            }
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!(
                    "model `{}` has no applicable `{name}`",
                    self.prog.table.model(id).name
                ),
            ));
        };
        let Some(body) = self.prog.model_bodies.get(&(t.mid.0, t.mi as u32)) else {
            return Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("model method `{name}` has no body"),
            ));
        };
        let m = &self.prog.table.model(t.mid).methods[t.mi];
        let frame = Frame {
            locals: Rc::default(),
            tenv: t.tenv.clone(),
            menv: t.menv.clone(),
        };
        let recv = recv.map(|r| self.state.heap.unpack(r));
        self.run_body(frame, body, recv, args, m.ret.is_void())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_check::check_source;

    fn run(src: &str) -> (Value, String) {
        let prog = check_source(src).unwrap_or_else(|e| panic!("check failed:\n{e}"));
        let mut i = Interp::new(&prog);
        let v = i
            .run_main()
            .unwrap_or_else(|e| panic!("runtime error: {e}"));
        let out = i.state.take_output();
        (v, out)
    }

    #[test]
    fn interp_stack_keeps_the_panic_payload() {
        let payload = std::panic::catch_unwind(|| with_interp_stack(|| panic!("boom")))
            .expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"boom"));
    }

    #[test]
    fn arithmetic_and_loops() {
        let (v, _) = run(
            "int main() { int s = 0; for (int i = 1; i <= 10; i = i + 1) { s += i; } return s; }",
        );
        assert!(matches!(v, Value::Int(55)));
    }

    #[test]
    fn strings_and_print() {
        let (_, out) = run(r#"void main() { String s = "a" + "b"; println(s + 1); }"#);
        assert_eq!(out, "ab1\n");
    }

    #[test]
    fn arrays_are_specialized() {
        let (v, _) = run("double main() {
               double[] xs = new double[3];
               xs[0] = 1.5; xs[1] = 2.5; xs[2] = xs[0] + xs[1];
               double s = 0.0;
               for (double x : xs) { s = s + x; }
               return s;
             }");
        assert!(matches!(v, Value::Double(x) if (x - 8.0).abs() < 1e-9));
    }

    #[test]
    fn classes_fields_methods() {
        let (v, _) = run("class Counter {
               int count;
               Counter() { count = 0; }
               void inc() { count = count + 1; }
               int get() { return count; }
             }
             int main() {
               Counter c = new Counter();
               c.inc(); c.inc(); c.inc();
               return c.get();
             }");
        assert!(matches!(v, Value::Int(3)));
    }

    #[test]
    fn generic_class_with_constraint() {
        let (v, _) = run("class Box[T where Comparable[T]] {
               T item;
               Box(T item) { this.item = item; }
               boolean isBigger(T other) { return item.compareTo(other) > 0; }
             }
             boolean main() {
               Box[int] b = new Box[int](5);
               return b.isBigger(3);
             }");
        assert!(matches!(v, Value::Bool(true)));
    }

    #[test]
    fn generic_method_inference_and_default_models() {
        let (v, _) = run("int which[T](T a, T b) where Comparable[T] {
               if (a.compareTo(b) >= 0) { return 0; } else { return 1; }
             }
             int main() {
               return which(3, 7) + which(\"b\", \"a\");
             }");
        // which(3,7) = 1, which("b","a") = 0.
        assert!(matches!(v, Value::Int(1)));
    }

    #[test]
    fn explicit_model_selection() {
        let (v, _) = run(r#"model CIEq for Eq[String] {
                 boolean equals(String str) { return equalsIgnoreCase(str); }
               }
               boolean same[T](T a, T b) where Eq[T] {
                 return a.equals(b);
               }
               boolean main() {
                 boolean ci = same[String with CIEq]("Hello", "HELLO");
                 boolean cs = same("Hello", "HELLO");
                 return ci && !cs;
               }"#);
        assert!(matches!(v, Value::Bool(true)));
    }

    #[test]
    fn static_constraint_ops() {
        let (v, _) = run("constraint Ring[T] {
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
             }");
        assert!(matches!(v, Value::Double(x) if (x - 6.5).abs() < 1e-9));
    }

    #[test]
    fn class_cast_exception_surfaces() {
        let prog = check_source(
            "int main() {
               Object o = \"hi\";
               Counter c = (Counter) o;
               return 0;
             }
             class Counter { Counter() { } }",
        )
        .unwrap();
        let mut i = Interp::new(&prog);
        let err = i.run_main().unwrap_err();
        assert_eq!(err.kind, ErrorKind::ClassCast);
    }

    #[test]
    fn inheritance_and_override() {
        let (v, _) = run("class Animal {
               Animal() { }
               int legs() { return 4; }
             }
             class Bird extends Animal {
               Bird() { }
               int legs() { return 2; }
             }
             int main() {
               Animal a = new Bird();
               return a.legs();
             }");
        assert!(matches!(v, Value::Int(2)));
    }
}
