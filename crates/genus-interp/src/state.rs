//! The state one run changes, one copy for every engine.
//!
//! A run meters fuel and bytes, allocates on its heap, asks its
//! [`Dispatch`] for call targets, reads and writes static fields, prints,
//! runs built-ins, and counts Genus call depth. [`RunState`] holds all of that, and the
//! AST interpreter and the VM (with Tier 2) each embed one; an engine
//! keeps only what differs, its frames and how it runs a body. Where a
//! routine here needs the engine, the engine passes one closure: the
//! `toString` call on a receiver, or the roots of its own frames.

use crate::dispatch::{Dispatch, DispatchStats};
use crate::{natives, rtti};
use genus_check::hir::NativeOp;
use genus_check::CheckedProgram;
use genus_common::Symbol;
use genus_heap::meter::{Limits, Meter, ResourceStats};
use genus_heap::value::{ErrorKind, RtType, RuntimeError, Value};
use genus_heap::{str_bytes, Heap};
use genus_types::ClassId;
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

type RResult<T> = Result<T, RuntimeError>;

/// Maximum Genus call depth: at most this many counted frames are live,
/// and a call past it raises `StackOverflow`. The AST interpreter needs
/// [`crate::with_interp_stack`]'s native stack to reach it.
pub const MAX_DEPTH: usize = 1000;

/// One run's meter, heap, dispatch caches, static fields, captured
/// output and Genus call depth.
pub struct RunState {
    /// Per-run resource meter (fuel / memory / deadline). Unlimited by
    /// default; replace via [`RunState::set_limits`] before running.
    pub meter: Meter,
    /// The run's arena heap. Objects, arrays, and packed existentials
    /// live here; `Value` reference variants are handles into it.
    pub heap: Heap,
    /// The run's dispatch caches and counters.
    pub dispatch: Dispatch,
    statics: RefCell<HashMap<(u32, u32), Value>>,
    output: RefCell<String>,
    depth: Cell<usize>,
}

impl RunState {
    /// A fresh run over `dispatch`, unlimited, with an empty heap.
    #[must_use]
    pub fn new(dispatch: Dispatch) -> RunState {
        RunState {
            meter: Meter::unlimited(),
            heap: Heap::new(),
            dispatch,
            statics: Default::default(),
            output: Default::default(),
            depth: Default::default(),
        }
    }

    /// Installs resource limits for the next run, resetting the meter
    /// (fuel/memory counters start from zero, deadline from now).
    pub fn set_limits(&mut self, limits: Limits) {
        self.meter = Meter::with_limits(limits);
    }

    /// Resources consumed so far: fuel steps and exact heap bytes from
    /// the meter, live/peak/collection statistics from the heap.
    #[must_use]
    pub fn resource_stats(&self) -> ResourceStats {
        let mut s = self.meter.stats();
        self.heap.fill_stats(&mut s);
        s
    }

    /// Renders a value the way `print` would, without dispatching a
    /// user-defined `toString`.
    #[must_use]
    pub fn render(&self, v: &Value) -> String {
        self.heap.render(v)
    }

    /// Takes the captured `print` output.
    pub fn take_output(&mut self) -> String {
        std::mem::take(self.output.get_mut())
    }

    /// Snapshot of the dispatch-cache hit/miss counters.
    #[must_use]
    pub fn dispatch_stats(&self) -> DispatchStats {
        self.dispatch.stats()
    }

    /// Runs the static initializers in order, storing each value `eval`
    /// computes, then finds `main()`: the prologue of every run.
    ///
    /// # Errors
    ///
    /// An initializer's error, or a program without `main()`.
    pub fn prologue<I>(
        &self,
        prog: &CheckedProgram,
        inits: &[(ClassId, usize, I)],
        mut eval: impl FnMut(&I) -> RResult<Value>,
    ) -> RResult<usize> {
        for (cid, fi, init) in inits {
            let v = eval(init)?;
            self.set_static(*cid, *fi as u32, v);
        }
        prog.main_index()
            .ok_or_else(|| RuntimeError::new(ErrorKind::Other, "no `main()` method"))
    }

    /// A static field's value (`null` before its initializer ran).
    #[inline]
    #[must_use]
    pub fn get_static(&self, class: ClassId, field: u32) -> Value {
        self.statics
            .borrow()
            .get(&(class.0, field))
            .cloned()
            .unwrap_or(Value::Null)
    }

    /// Stores a static field.
    #[inline]
    pub fn set_static(&self, class: ClassId, field: u32, v: Value) {
        self.statics.borrow_mut().insert((class.0, field), v);
    }

    /// GC safe point: collects if the heap asks for it, from the static
    /// fields plus the handles `engine_roots` adds (the engine's frames
    /// and temporaries). The engine calls it only where those are every
    /// live reference.
    pub fn maybe_gc(&self, engine_roots: impl FnOnce(&mut Vec<u32>)) {
        if !self.heap.should_collect() {
            return;
        }
        let mut roots = Vec::new();
        engine_roots(&mut roots);
        for v in self.statics.borrow().values() {
            self.heap.root(&mut roots, v);
        }
        self.heap.collect(roots);
    }

    /// The depth check of a call made `nest` inlined levels below the
    /// current frame: `StackOverflow` once the frame it would push
    /// reaches [`MAX_DEPTH`]. Counts nothing; [`RunState::enter`] does.
    ///
    /// # Errors
    ///
    /// `StackOverflow` past the budget.
    #[inline]
    pub fn probe_depth(&self, nest: u16) -> RResult<()> {
        if self.depth.get() + nest as usize >= MAX_DEPTH {
            return Err(RuntimeError::new(
                ErrorKind::StackOverflow,
                "call depth exceeded",
            ));
        }
        Ok(())
    }

    /// Counts a Genus frame in, after [`RunState::probe_depth`].
    #[inline]
    pub fn enter(&self) -> RResult<()> {
        self.probe_depth(0)?;
        self.depth.set(self.depth.get() + 1);
        Ok(())
    }

    /// Counts a Genus frame out.
    #[inline]
    pub fn leave(&self) {
        self.depth.set(self.depth.get() - 1);
    }

    /// Runs `run`, restoring the depth count if it fails: frames an error
    /// unwinds are never left, and a caller that swallows the error
    /// (stringification) must not leak their budget.
    pub fn restoring_depth<T>(&self, run: impl FnOnce() -> RResult<T>) -> RResult<T> {
        let base = self.depth.get();
        let r = run();
        if r.is_err() {
            self.depth.set(base);
        }
        r
    }

    /// Stringification used by concatenation and `print`: an object gets
    /// its `toString` from `to_string` (the engine's virtual call), and a
    /// trap or non-string result falls back to the default rendering.
    pub fn stringify(&self, v: &Value, to_string: &impl Fn(Value) -> RResult<Value>) -> String {
        match v {
            Value::Obj(_) => match to_string(v.clone()) {
                Ok(Value::Str(s)) => s.to_string(),
                _ => self.heap.render(v),
            },
            Value::Packed(h) => {
                let p = self.heap.packed(*h);
                self.stringify(&p.value, to_string)
            }
            other => self.heap.render(other),
        }
    }

    /// `print`/`println`: appends `v`'s stringification (and a newline)
    /// to the captured output.
    pub fn print(&self, v: &Value, newline: bool, to_string: &impl Fn(Value) -> RResult<Value>) {
        let s = self.stringify(v, to_string);
        let mut out = self.output.borrow_mut();
        out.push_str(&s);
        if newline {
            out.push('\n');
        }
    }

    /// Runs a built-in operation, stringifying (for `toString`-style
    /// operations) through `to_string`.
    pub fn native(
        &self,
        op: NativeOp,
        recv: Option<Value>,
        args: Vec<Value>,
        to_string: &impl Fn(Value) -> RResult<Value>,
    ) -> RResult<Value> {
        let stringify = |v: &Value| self.stringify(v, to_string);
        natives::native_call_with(&self.heap, stringify, op, recv, args)
    }

    /// A virtual call on a receiver that is not an object: a `String` or
    /// primitive built-in, or the trap for `null` and for values nothing
    /// can be called on.
    ///
    /// # Errors
    ///
    /// `NullPointer` on `null`, `NoSuchMethod` for a name `String` lacks,
    /// and the built-in's own traps.
    pub fn builtin_method(
        &self,
        prog: &CheckedProgram,
        recv: Value,
        name: Symbol,
        args: Vec<Value>,
        to_string: &impl Fn(Value) -> RResult<Value>,
    ) -> RResult<Value> {
        match &recv {
            Value::Str(_) => {
                let Some(op) = natives::string_native_op(name) else {
                    return Err(RuntimeError::new(
                        ErrorKind::NoSuchMethod,
                        format!("no String method `{name}`"),
                    ));
                };
                self.native(op, Some(recv), args, to_string)
            }
            Value::Int(_) | Value::Long(_) | Value::Double(_) | Value::Bool(_) | Value::Char(_) => {
                let RtType::Prim(p) = rtti::value_rt_type(prog, &self.heap, &recv) else {
                    unreachable!("primitive value")
                };
                natives::prim_call(&self.heap, p, name, Some(recv), args)
            }
            Value::Null => Err(RuntimeError::new(ErrorKind::NullPointer, "call on null")),
            other => Err(RuntimeError::new(
                ErrorKind::Other,
                format!("cannot dispatch `{name}` on {other:?}"),
            )),
        }
    }

    /// String concatenation: stringifies both operands and charges the
    /// result's bytes.
    ///
    /// # Errors
    ///
    /// The meter's trap when the charge exceeds the memory limit.
    pub fn concat(
        &self,
        l: &Value,
        r: &Value,
        to_string: &impl Fn(Value) -> RResult<Value>,
    ) -> RResult<Value> {
        let mut s = self.stringify(l, to_string);
        s.push_str(&self.stringify(r, to_string));
        self.meter.charge(str_bytes(s.len()))?;
        Ok(Value::Str(Rc::from(s.as_str())))
    }
}
