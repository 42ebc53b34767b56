//! The bytecode representation: register-machine instructions, the
//! constant pool, and the side tables ("specs") carrying the reifiable
//! type/model payloads of call and type-test instructions.
//!
//! Design notes:
//!
//! - **Registers.** Each compiled function owns a dense register file.
//!   Registers `0..num_locals` are the HIR local slots (slot 0 is `this`
//!   for instance members); registers above are expression temporaries
//!   allocated with stack discipline by the compiler.
//! - **Specs.** Instruction words stay `Copy` by pushing every variable
//!   sized payload (type arguments, model expressions, argument register
//!   lists) into per-program side tables indexed by a `u32`. A spec's
//!   `Type`/`Model` entries are *open* terms evaluated against the
//!   running frame's type/model environment — dictionary passing in the
//!   sense of the paper's §7 homogeneous translation: one copy of the
//!   code, parameterized over runtime witnesses.
//! - **Call sites.** Every `CallVirtual` carries a dense site id used to
//!   index the VM's inline-cache vector (the bytecode analogue of the
//!   interpreter's per-HIR-node cache).

use crate::opt::OptStats;
use genus_check::hir::{NativeOp, NumKind};
use genus_common::Symbol;
use genus_interp::rtti::ClassPlans;
use genus_interp::{RtType, Value};
use genus_syntax::ast::BinOp;
use genus_types::{ClassId, Model, MvId, PrimTy, TvId, Type};
use std::collections::HashMap;
use std::sync::Arc;

/// Index of a compiled function in [`VmProgram::funcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FuncId(pub u32);

/// A pooled constant. This is the `Send + Sync` subset of [`Value`]
/// (literals only — never references), with strings behind `Arc` so a
/// compiled [`VmProgram`] can be shared across serve workers. Each VM
/// instance materializes the pool into a private `Vec<Value>` once at
/// construction, keeping `Op::Const` a plain indexed clone.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// 32-bit integer literal.
    Int(i32),
    /// 64-bit integer literal.
    Long(i64),
    /// 64-bit float literal.
    Double(f64),
    /// Boolean literal.
    Bool(bool),
    /// Character literal.
    Char(char),
    /// String literal.
    Str(std::sync::Arc<str>),
    /// The `null` reference.
    Null,
    /// The `void` unit value.
    Void,
}

impl Const {
    /// The pooled image of a literal value; `None` for reference values
    /// (objects, arrays, packed existentials), which are never poolable.
    #[must_use]
    pub fn from_value(v: &Value) -> Option<Const> {
        Some(match v {
            Value::Int(x) => Const::Int(*x),
            Value::Long(x) => Const::Long(*x),
            Value::Double(x) => Const::Double(*x),
            Value::Bool(x) => Const::Bool(*x),
            Value::Char(x) => Const::Char(*x),
            Value::Str(s) => Const::Str(std::sync::Arc::from(&**s)),
            Value::Null => Const::Null,
            Value::Void => Const::Void,
            _ => return None,
        })
    }

    /// Materializes the runtime value for this constant.
    #[must_use]
    pub fn to_value(&self) -> Value {
        match self {
            Const::Int(x) => Value::Int(*x),
            Const::Long(x) => Value::Long(*x),
            Const::Double(x) => Value::Double(*x),
            Const::Bool(x) => Value::Bool(*x),
            Const::Char(x) => Value::Char(*x),
            Const::Str(s) => Value::Str(std::rc::Rc::from(&**s)),
            Const::Null => Value::Null,
            Const::Void => Value::Void,
        }
    }
}

/// One register-machine instruction. All payloads bigger than a word live
/// in the spec side tables of [`VmProgram`].
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `dst = consts[k]`.
    Const { dst: u16, k: u32 },
    /// `dst = src` (values are cheap to clone: primitives or `Rc`s).
    Move { dst: u16, src: u16 },
    /// Unconditional branch.
    Jump { target: u32 },
    /// Branch when `cond` is `false`; errors on non-boolean values with
    /// the engines' shared "condition evaluated to non-boolean" message.
    JumpIfFalse { cond: u16, target: u32 },
    /// Branch when `cond` is `true`; same non-boolean error.
    JumpIfTrue { cond: u16, target: u32 },
    /// Return `src` to the caller.
    Return { src: u16 },
    /// Return `void` to the caller.
    ReturnVoid,
    /// Non-void body fell off the end: `MissingReturn` error.
    FallOff,
    /// A `break`/`continue` with no enclosing loop reached execution.
    Escaped,
    /// `dst = obj.fields[slot]`: the field's fixed slot
    /// (`genus_interp::rtti::FieldLayout`), resolved at lowering. A field
    /// not yet initialized reads `null`, matching the interpreter's
    /// pre-constructor visibility.
    GetField { dst: u16, obj: u16, slot: u32 },
    /// `obj.fields[slot] = src`.
    SetField { obj: u16, slot: u32, src: u16 },
    /// `dst = Class.field`.
    GetStatic {
        dst: u16,
        class: ClassId,
        field: u32,
    },
    /// `Class.field = src`.
    SetStatic {
        class: ClassId,
        field: u32,
        src: u16,
    },
    /// `dst = l op r` for numeric arithmetic.
    Arith {
        dst: u16,
        op: BinOp,
        nk: NumKind,
        l: u16,
        r: u16,
    },
    /// `dst = l op r` for numeric comparison.
    Cmp {
        dst: u16,
        op: BinOp,
        nk: NumKind,
        l: u16,
        r: u16,
    },
    /// Reference/primitive (in)equality.
    RefEq {
        dst: u16,
        l: u16,
        r: u16,
        negate: bool,
    },
    /// String concatenation; stringifies both operands (dispatching
    /// `toString` for objects).
    Concat { dst: u16, l: u16, r: u16 },
    /// Boolean negation.
    Not { dst: u16, src: u16 },
    /// Numeric negation.
    Neg { dst: u16, src: u16, nk: NumKind },
    /// Numeric widening.
    Widen { dst: u16, src: u16, to: PrimTy },
    /// `dst = new elem[len]` with element-specialized storage (§7.3).
    NewArray { dst: u16, len: u16, elem: u32 },
    /// `dst = arr.length`.
    ArrayLen { dst: u16, arr: u16 },
    /// `dst = arr[idx]`.
    ArrayGet { dst: u16, arr: u16, idx: u16 },
    /// `arr[idx] = src`.
    ArraySet { arr: u16, idx: u16, src: u16 },
    /// Reified `instanceof` against `types[ty]` (§4.6).
    InstanceOf { dst: u16, src: u16, ty: u32 },
    /// Checked cast to `types[ty]`.
    Cast { dst: u16, src: u16, ty: u32 },
    /// `dst = types[ty].default()` (§3.1).
    DefaultValue { dst: u16, ty: u32 },
    /// Existential packing (§6.1) with the witnesses in `pack_specs[spec]`.
    Pack { dst: u16, src: u16, spec: u32 },
    /// Existential open (§6.2): unpack `src` into `dst`, binding the
    /// witnesses of `open_specs[spec]` into the frame's environment.
    Open { dst: u16, src: u16, spec: u32 },
    /// `print`/`println`.
    Print { src: u16, newline: bool },
    /// Virtual call through `virt_specs[spec]`, inline-cached at `site`.
    CallVirtual {
        dst: u16,
        recv: u16,
        spec: u32,
        site: u32,
    },
    /// Static class-method call through `static_specs[spec]`.
    CallStatic { dst: u16, spec: u32 },
    /// Top-level call through `global_specs[spec]`.
    CallGlobal { dst: u16, spec: u32 },
    /// Constraint-operation call through a model witness
    /// (`model_specs[spec]`); dispatches as a multimethod (§5.1),
    /// monomorphically cached at `site`.
    CallModel { dst: u16, spec: u32, site: u32 },
    /// Direct call to a known function through `direct_specs[spec]` —
    /// the product of the optimizer's heterogeneous translation (§7.3):
    /// dispatch already resolved, environments already substituted away.
    CallDirect { dst: u16, spec: u32 },
    /// Prologue of a leaf call the optimizer spliced into its caller: the
    /// checks the replaced `CallDirect` made before pushing its frame, in
    /// the same order, with no frame pushed. With a receiver `recv`, a
    /// null value traps like "call on null" (when `null_check`) and the
    /// unpacked receiver is copied into `this`, the register standing
    /// for the callee's `this`. Then the depth probe: `StackOverflow`
    /// when the Genus depth plus `nest` (the inlined frames enclosing
    /// this call) has reached `max_depth`.
    Inline {
        recv: Option<u16>,
        this: u16,
        null_check: bool,
        nest: u16,
    },
    /// Object construction through `new_specs[spec]`: allocates, runs the
    /// field-initializer chain, then pushes the constructor frame.
    New { dst: u16, spec: u32 },
    /// Primitive-receiver built-in through `prim_specs[spec]`.
    PrimCall { dst: u16, spec: u32 },
    /// Runtime-native (`String`/`Object`) call through
    /// `native_specs[spec]`.
    Native { dst: u16, spec: u32 },
}

impl Op {
    /// The branch target of a `Jump`, `JumpIfFalse` or `JumpIfTrue`.
    pub fn target_mut(&mut self) -> Option<&mut u32> {
        match self {
            Op::Jump { target }
            | Op::JumpIfFalse { target, .. }
            | Op::JumpIfTrue { target, .. } => Some(target),
            _ => None,
        }
    }

    /// The branch target, read through [`Op::target_mut`].
    #[must_use]
    pub fn target(mut self) -> Option<u32> {
        self.target_mut().copied()
    }

    /// The instructions control may reach next from this one at `pc`:
    /// the next instruction unless this one jumps unconditionally or
    /// ends the activation, then the branch target.
    pub fn successors(self, pc: usize) -> impl Iterator<Item = usize> {
        let next = !matches!(
            self,
            Op::Jump { .. } | Op::Return { .. } | Op::ReturnVoid | Op::FallOff | Op::Escaped
        );
        next.then_some(pc + 1)
            .into_iter()
            .chain(self.target().map(|t| t as usize))
    }

    /// The register this instruction writes (a call writes its `dst` on
    /// return). `Op::Inline` writes `this` only when it has a receiver.
    pub fn dst_mut(&mut self) -> Option<&mut u16> {
        match self {
            Op::Const { dst, .. }
            | Op::Move { dst, .. }
            | Op::GetField { dst, .. }
            | Op::GetStatic { dst, .. }
            | Op::Arith { dst, .. }
            | Op::Cmp { dst, .. }
            | Op::RefEq { dst, .. }
            | Op::Concat { dst, .. }
            | Op::Not { dst, .. }
            | Op::Neg { dst, .. }
            | Op::Widen { dst, .. }
            | Op::NewArray { dst, .. }
            | Op::ArrayLen { dst, .. }
            | Op::ArrayGet { dst, .. }
            | Op::InstanceOf { dst, .. }
            | Op::Cast { dst, .. }
            | Op::DefaultValue { dst, .. }
            | Op::Pack { dst, .. }
            | Op::Open { dst, .. }
            | Op::CallVirtual { dst, .. }
            | Op::CallStatic { dst, .. }
            | Op::CallGlobal { dst, .. }
            | Op::CallModel { dst, .. }
            | Op::CallDirect { dst, .. }
            | Op::New { dst, .. }
            | Op::PrimCall { dst, .. }
            | Op::Native { dst, .. } => Some(dst),
            Op::Inline {
                recv: Some(_),
                this,
                ..
            } => Some(this),
            Op::Inline { recv: None, .. }
            | Op::Jump { .. }
            | Op::JumpIfFalse { .. }
            | Op::JumpIfTrue { .. }
            | Op::Return { .. }
            | Op::ReturnVoid
            | Op::FallOff
            | Op::Escaped
            | Op::SetField { .. }
            | Op::SetStatic { .. }
            | Op::ArraySet { .. }
            | Op::Print { .. } => None,
        }
    }

    /// The register this instruction writes, read through
    /// [`Op::dst_mut`].
    #[must_use]
    pub fn dst(mut self) -> Option<u16> {
        self.dst_mut().copied()
    }
}

/// Payload of a [`Op::CallVirtual`].
#[derive(Debug, Clone)]
pub struct VirtSpec {
    /// Method name (dispatch key with `arity`).
    pub name: Symbol,
    /// Number of value parameters.
    pub arity: usize,
    /// Method-level type arguments (open; evaluated per call).
    pub targs: Vec<Type>,
    /// Method-level model arguments (open).
    pub margs: Vec<Model>,
    /// Argument registers, in evaluation order.
    pub args: Vec<u16>,
    /// Static (checked) type of the receiver expression. Recorded for
    /// the optimizer: a closed class type lets the specializer prove the
    /// call has one possible target (class-hierarchy analysis). Never
    /// consulted by the VM's dynamic dispatch.
    pub recv_ty: Option<Type>,
}

/// Payload of a [`Op::CallStatic`].
#[derive(Debug, Clone)]
pub struct StaticSpec {
    /// Declaring class.
    pub class: ClassId,
    /// Method index within the class.
    pub method: usize,
    /// Method-level type arguments.
    pub targs: Vec<Type>,
    /// Method-level model arguments.
    pub margs: Vec<Model>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::CallGlobal`].
#[derive(Debug, Clone)]
pub struct GlobalSpec {
    /// Index into the table's globals.
    pub index: usize,
    /// Type arguments.
    pub targs: Vec<Type>,
    /// Model arguments.
    pub margs: Vec<Model>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::CallModel`] — the model-slot of dictionary passing:
/// the witness is an open `Model` term resolved against the frame's
/// environment, then dispatched as a multimethod.
#[derive(Debug, Clone)]
pub struct ModelSpec {
    /// The witness to dispatch through.
    pub model: Model,
    /// Operation name.
    pub name: Symbol,
    /// Receiver register (`None` for static constraint operations).
    pub recv: Option<u16>,
    /// Receiver *type* for static operations (`T.zero()`).
    pub static_recv: Option<Type>,
    /// Argument registers.
    pub args: Vec<u16>,
    /// Static (checked) type of the receiver expression, when present.
    /// Recorded for the optimizer: a closed receiver type lets the
    /// specializer prove a multimethod candidate applicable at compile
    /// time. Never consulted by the VM's dynamic dispatch.
    pub recv_ty: Option<Type>,
    /// Static (checked) types of the argument expressions, parallel to
    /// `args`. Optimizer-only, like `recv_ty`.
    pub arg_tys: Vec<Type>,
}

/// Payload of a [`Op::CallDirect`]: the devirtualized call produced by the
/// specializer. The callee is a concrete [`VmFunc`] whose body already has
/// every type/model variable substituted, so the frame runs with *empty*
/// environments and no dispatch of any kind.
#[derive(Debug, Clone)]
pub struct DirectSpec {
    /// Resolved callee.
    pub func: FuncId,
    /// Receiver register for instance targets.
    pub recv: Option<u16>,
    /// Whether the receiver must be null-checked before the call. The
    /// dynamic dispatch this spec replaces would have routed a null
    /// receiver to the "call on null" trap; the direct call must too.
    pub null_check: bool,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::New`].
#[derive(Debug, Clone)]
pub struct NewSpec {
    /// Class to instantiate.
    pub class: ClassId,
    /// Reified type arguments.
    pub targs: Vec<Type>,
    /// Reified model witnesses (part of the object's runtime type, §7.2).
    pub models: Vec<Model>,
    /// Constructor index.
    pub ctor: usize,
    /// The constructor's function, resolved once lowering is done
    /// (`None` when the constructor has no body, which traps at run time).
    pub func: Option<FuncId>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::PrimCall`].
#[derive(Debug, Clone)]
pub struct PrimSpec {
    /// The primitive type.
    pub prim: PrimTy,
    /// Operation name.
    pub name: Symbol,
    /// Receiver register for instance operations.
    pub recv: Option<u16>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::Native`].
#[derive(Debug, Clone)]
pub struct NativeSpec {
    /// Which native operation.
    pub op: NativeOp,
    /// Receiver register, if the native is an instance method.
    pub recv: Option<u16>,
    /// Argument registers.
    pub args: Vec<u16>,
}

/// Payload of a [`Op::Pack`].
#[derive(Debug, Clone)]
pub struct PackSpec {
    /// Chosen type witnesses.
    pub types: Vec<Type>,
    /// Chosen model witnesses.
    pub models: Vec<Model>,
}

/// Payload of a [`Op::Open`].
#[derive(Debug, Clone)]
pub struct OpenSpec {
    /// Type variables to bind from the package.
    pub tvs: Vec<TvId>,
    /// Model variables to bind from the package.
    pub mvs: Vec<MvId>,
}

/// One compiled body.
#[derive(Debug, Clone)]
pub struct VmFunc {
    /// Debug name (`Class::method`, `global fib`, …).
    pub name: String,
    /// HIR local slots (parameters first; slot 0 is `this` when present).
    /// Registers from here up are compiler temporaries, which cleanup may
    /// coalesce into the instruction that consumes them; a body with
    /// inlined calls sets it to `num_regs`, since spliced code reads its
    /// parameters and locals more than once.
    pub num_locals: usize,
    /// Total register-file size including temporaries.
    pub num_regs: usize,
    /// The code. Control flow is by instruction index.
    pub code: Vec<Op>,
    /// Whether falling off the end is legal (void bodies).
    pub is_void: bool,
}

/// An append-only table whose leading entries may be shared with other
/// programs: a program lowered from a cached base shares the base's
/// entries instead of copying them (see [`crate::compile_program`]).
/// Indexing, `len`, `push` and iteration read like a `Vec`'s.
#[derive(Debug, Clone)]
pub struct SharedVec<T> {
    shared: Arc<[T]>,
    own: Vec<T>,
}

impl<T> Default for SharedVec<T> {
    fn default() -> Self {
        SharedVec {
            shared: Arc::from(Vec::new()),
            own: Vec::new(),
        }
    }
}

impl<T> SharedVec<T> {
    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shared.len() + self.own.len()
    }

    /// Whether there are no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends an entry; it gets index `len()` before the call.
    pub fn push(&mut self, v: T) {
        self.own.push(v);
    }

    /// The entries in index order.
    pub fn iter(&self) -> std::iter::Chain<std::slice::Iter<'_, T>, std::slice::Iter<'_, T>> {
        self.into_iter()
    }

    /// The entries not yet moved into the shared part.
    pub(crate) fn own_mut(&mut self) -> &mut [T] {
        &mut self.own
    }

    /// Moves every entry into the shared part, so that clones of the table
    /// share them instead of copying them.
    pub(crate) fn share(&mut self)
    where
        T: Clone,
    {
        if self.own.is_empty() {
            return;
        }
        let mut all: Vec<T> = Vec::with_capacity(self.len());
        all.extend(self.shared.iter().cloned());
        all.append(&mut self.own);
        self.shared = Arc::from(all);
    }
}

impl<T> Extend<T> for SharedVec<T> {
    fn extend<I: IntoIterator<Item = T>>(&mut self, iter: I) {
        self.own.extend(iter);
    }
}

/// Equal entries, however they are split between shared and owned.
impl<T: PartialEq> PartialEq for SharedVec<T> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other)
    }
}

impl<T> std::ops::Index<usize> for SharedVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        match self.shared.get(i) {
            Some(v) => v,
            None => &self.own[i - self.shared.len()],
        }
    }
}

impl<'a, T> IntoIterator for &'a SharedVec<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Chain<std::slice::Iter<'a, T>, std::slice::Iter<'a, T>>;

    fn into_iter(self) -> Self::IntoIter {
        self.shared.iter().chain(&self.own)
    }
}

/// A fully lowered program: every executable body compiled once, plus the
/// shared constant pool and spec tables.
#[derive(Debug, Default, Clone)]
pub struct VmProgram {
    /// All compiled functions.
    pub funcs: Vec<VmFunc>,
    /// Constant pool (literals, `null`, `void`).
    pub consts: SharedVec<Const>,
    /// Open types for `NewArray`/`InstanceOf`/`Cast`/`DefaultValue`.
    pub types: SharedVec<Type>,
    /// `CallVirtual` payloads.
    pub virt_specs: SharedVec<VirtSpec>,
    /// `CallStatic` payloads.
    pub static_specs: SharedVec<StaticSpec>,
    /// `CallGlobal` payloads.
    pub global_specs: SharedVec<GlobalSpec>,
    /// `CallModel` payloads.
    pub model_specs: SharedVec<ModelSpec>,
    /// `CallDirect` payloads (optimizer output; empty at `--opt-level=0`).
    pub direct_specs: Vec<DirectSpec>,
    /// `New` payloads.
    pub new_specs: SharedVec<NewSpec>,
    /// `PrimCall` payloads.
    pub prim_specs: SharedVec<PrimSpec>,
    /// `Native` payloads.
    pub native_specs: SharedVec<NativeSpec>,
    /// `Pack` payloads.
    pub pack_specs: SharedVec<PackSpec>,
    /// `Open` payloads.
    pub open_specs: SharedVec<OpenSpec>,
    /// `(class, method index) → function`.
    pub methods: HashMap<(u32, u32), FuncId>,
    /// `(class, ctor index) → function`.
    pub ctors: HashMap<(u32, u32), FuncId>,
    /// `global index → function`.
    pub globals: HashMap<u32, FuncId>,
    /// `(model, method index) → function`.
    pub model_methods: HashMap<(u32, u32), FuncId>,
    /// `(class, field index) → initializer function` (`this` in register
    /// 0; returns the initial value).
    pub field_inits: HashMap<(u32, u32), FuncId>,
    /// Static-field initializers in program order.
    pub static_inits: Vec<(ClassId, usize, FuncId)>,
    /// The field layout the lowering resolved field slots against, and
    /// every class's construction plan, built on the class's first `new`
    /// by whichever run gets there first.
    pub plans: ClassPlans<FuncId>,
    /// Number of inline-cacheable virtual call sites.
    pub num_sites: usize,
    /// Number of inline-cacheable model-dispatch (`CallModel`) sites.
    pub num_model_sites: usize,
    /// Pre-reified images of `types` entries that are closed and
    /// existential-free, parallel to `types` (optimizer output; empty at
    /// `--opt-level=0`, in which case the VM evaluates the open term
    /// against the frame's environment as usual).
    pub rt_types: Vec<Option<RtType>>,
    /// Counters from the optimization pipeline that produced this program.
    pub opt_stats: OptStats,
    /// Functions copied from a cached lowering of the program's base
    /// instead of lowered (0 when the base was lowered here).
    pub funcs_reused: usize,
}

impl VmProgram {
    /// Total number of instructions across all functions.
    #[must_use]
    pub fn code_len(&self) -> usize {
        self.funcs.iter().map(|f| f.code.len()).sum()
    }
}

/// Compile-time proof that a compiled program can be cached once and
/// shared across serve workers (`Arc<VmProgram>`).
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<VmProgram>();
};
