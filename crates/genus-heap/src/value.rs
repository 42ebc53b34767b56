//! Runtime values with fully reified types and models (§4.6, §7.2).
//!
//! Objects carry their class's type arguments *and* model witnesses, making
//! `instanceof TreeSet[? extends T with c]` (Figure 7) decidable at run
//! time. Arrays use element-type-specialized storage so `T[]` instantiated
//! at `double` is a flat `Vec<f64>`, not a vector of boxed values (§7.3).
//!
//! Reference values are **handles** into the run's [`crate::Heap`]: a
//! `Value::Obj(h)` in a register or local is a `u32` index, and the object
//! body (class, reified arguments, fields) lives in the heap's slot table.
//! Operations that need to look *through* a reference — unwrapping a
//! packed existential, reference equality across packages, rendering —
//! therefore live on [`crate::Heap`], not on `Value`.

use crate::heap::Handle;
use genus_common::{FastMap, Symbol};
use genus_types::{ClassDef, ClassId, ConstraintId, ModelId, PrimTy};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// A runtime-reified type: the ground image of a checked [`genus_types::Type`].
///
/// `Eq`/`Hash` are sound because reified types contain no floating-point
/// payloads — only ids, primitives, and nested reified types/models — so
/// they can key the interpreter's dispatch memo tables.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum RtType {
    /// Primitive.
    Prim(PrimTy),
    /// Instantiated class with reified arguments and witnesses.
    Class {
        /// The class.
        id: ClassId,
        /// Reified type arguments.
        args: Vec<RtType>,
        /// Reified model witnesses (part of the runtime type, §4.5).
        models: Vec<ModelValue>,
    },
    /// Array type.
    Array(Box<RtType>),
    /// The null type (only for the `null` value).
    Null,
}

impl RtType {
    /// The default value of this type (`T.default()`, §3.1).
    pub fn default_value(&self) -> Value {
        match self {
            RtType::Prim(PrimTy::Int) => Value::Int(0),
            RtType::Prim(PrimTy::Long) => Value::Long(0),
            RtType::Prim(PrimTy::Double) => Value::Double(0.0),
            RtType::Prim(PrimTy::Boolean) => Value::Bool(false),
            RtType::Prim(PrimTy::Char) => Value::Char('\0'),
            _ => Value::Null,
        }
    }
}

/// A runtime model witness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ModelValue {
    /// The natural model of a constraint instantiation.
    Natural {
        /// Witnessed constraint.
        constraint: ConstraintId,
        /// Reified constraint arguments.
        args: Vec<RtType>,
    },
    /// An instance of a declared model.
    Decl {
        /// The model declaration.
        id: ModelId,
        /// Reified type arguments.
        targs: Vec<RtType>,
        /// Reified model arguments.
        margs: Vec<ModelValue>,
    },
}

/// Per-class method lookup tables: `(name, arity) → method index`, built
/// lazily by the interpreter the first time a class receives a dispatch.
///
/// `virt` maps to the first *concrete* instance method in declaration
/// order (bodied or native) — exactly the candidates the virtual-dispatch
/// walk accepts, so abstract and interface signatures never shadow an
/// inherited implementation. `stat` maps to the first static method.
#[derive(Debug, Default)]
pub struct ClassMethodIndex {
    virt: FastMap<(Symbol, usize), usize>,
    stat: FastMap<(Symbol, usize), usize>,
}

impl ClassMethodIndex {
    /// Indexes a class's declared methods.
    pub fn build(def: &ClassDef) -> Self {
        let mut ix = ClassMethodIndex::default();
        for (mi, m) in def.methods.iter().enumerate() {
            let key = (m.name, m.params.len());
            if m.is_static {
                ix.stat.entry(key).or_insert(mi);
            } else if m.body.is_some() || m.is_native {
                ix.virt.entry(key).or_insert(mi);
            }
        }
        ix
    }

    /// First concrete instance method matching `(name, arity)`, if any.
    pub fn virtual_method(&self, name: Symbol, arity: usize) -> Option<usize> {
        self.virt.get(&(name, arity)).copied()
    }

    /// First static method matching `(name, arity)`, if any.
    pub fn static_method(&self, name: Symbol, arity: usize) -> Option<usize> {
        self.stat.get(&(name, arity)).copied()
    }
}

/// Specialized array storage (§7.3): primitives are stored unboxed.
#[derive(Debug, Clone)]
pub enum Storage {
    /// `int[]`.
    I32(Vec<i32>),
    /// `long[]`.
    I64(Vec<i64>),
    /// `double[]`.
    F64(Vec<f64>),
    /// `boolean[]`.
    Bool(Vec<bool>),
    /// `char[]`.
    Char(Vec<char>),
    /// Reference arrays.
    Ref(Vec<Value>),
}

impl Storage {
    /// Allocates storage of `len` default elements for `elem`.
    pub fn new(elem: &RtType, len: usize) -> Storage {
        match elem {
            RtType::Prim(PrimTy::Int) => Storage::I32(vec![0; len]),
            RtType::Prim(PrimTy::Long) => Storage::I64(vec![0; len]),
            RtType::Prim(PrimTy::Double) => Storage::F64(vec![0.0; len]),
            RtType::Prim(PrimTy::Boolean) => Storage::Bool(vec![false; len]),
            RtType::Prim(PrimTy::Char) => Storage::Char(vec!['\0'; len]),
            _ => Storage::Ref(vec![Value::Null; len]),
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        match self {
            Storage::I32(v) => v.len(),
            Storage::I64(v) => v.len(),
            Storage::F64(v) => v.len(),
            Storage::Bool(v) => v.len(),
            Storage::Char(v) => v.len(),
            Storage::Ref(v) => v.len(),
        }
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds (callers bounds-check first).
    pub fn get(&self, i: usize) -> Value {
        match self {
            Storage::I32(v) => Value::Int(v[i]),
            Storage::I64(v) => Value::Long(v[i]),
            Storage::F64(v) => Value::Double(v[i]),
            Storage::Bool(v) => Value::Bool(v[i]),
            Storage::Char(v) => Value::Char(v[i]),
            Storage::Ref(v) => v[i].clone(),
        }
    }

    /// Writes element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds or the value kind mismatches the
    /// storage (the checker rules both out).
    pub fn set(&mut self, i: usize, v: Value) {
        match (self, v) {
            (Storage::I32(s), Value::Int(x)) => s[i] = x,
            (Storage::I64(s), Value::Long(x)) => s[i] = x,
            (Storage::F64(s), Value::Double(x)) => s[i] = x,
            (Storage::Bool(s), Value::Bool(x)) => s[i] = x,
            (Storage::Char(s), Value::Char(x)) => s[i] = x,
            (Storage::Ref(s), x) => s[i] = x,
            (s, x) => panic!("array storage mismatch: {s:?} <- {x:?}"),
        }
    }
}

/// An object: class, reified type/model arguments, and one field slot per
/// instance field over the superclass chain. A field's slot is fixed per
/// `(declaring class, field)`: the instance fields of the declaring
/// class's superclasses come first, then its own in declaration order
/// (`genus_interp::rtti::FieldLayout`), so a field access is an indexed
/// load.
#[derive(Debug)]
pub struct ObjData {
    /// Dynamic class.
    pub class: ClassId,
    /// Reified type arguments.
    pub targs: Vec<RtType>,
    /// Reified model witnesses.
    pub models: Vec<ModelValue>,
    /// Field values by slot; a field not yet initialized reads `null`.
    pub fields: RefCell<Vec<Value>>,
}

/// An array with reified element type and specialized storage.
#[derive(Debug)]
pub struct ArrayData {
    /// Element type.
    pub elem: RtType,
    /// Specialized storage.
    pub storage: RefCell<Storage>,
}

/// A packed existential: the value plus the witnesses chosen at the packing
/// coercion (§6.1).
#[derive(Debug)]
pub struct PackedData {
    /// The packed value.
    pub value: Value,
    /// Type witnesses.
    pub types: Vec<RtType>,
    /// Model witnesses.
    pub models: Vec<ModelValue>,
}

/// A runtime value.
///
/// Reference variants carry a [`Handle`] into the run's [`crate::Heap`];
/// the `Rc`-free representation keeps `Value` two words and lets the
/// collector reclaim handle cycles that refcounting never could.
#[derive(Debug, Clone)]
pub enum Value {
    /// 32-bit integer.
    Int(i32),
    /// 64-bit integer.
    Long(i64),
    /// 64-bit float.
    Double(f64),
    /// Boolean.
    Bool(bool),
    /// Character.
    Char(char),
    /// String (immutable, value semantics; host-managed, see the heap
    /// docs on why strings are metered but not traced).
    Str(Rc<str>),
    /// Object reference (heap handle).
    Obj(Handle),
    /// Array reference (heap handle).
    Arr(Handle),
    /// Packed existential (heap handle).
    Packed(Handle),
    /// Null reference.
    Null,
    /// The result of a `void` expression.
    Void,
}

impl Value {
    /// Reference identity / primitive equality **without** looking through
    /// packed existentials: handles compare by index. The engines' `==`
    /// goes through [`crate::Heap::ref_eq`], which first unwraps packages;
    /// this method is correct on its own only for values that cannot be
    /// `Packed` (e.g. the optimizer's constant pool).
    pub fn ref_eq_shallow(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Long(a), Value::Long(b)) => a == b,
            (Value::Double(a), Value::Double(b)) => a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Char(a), Value::Char(b)) => a == b,
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Obj(a), Value::Obj(b)) => a == b,
            (Value::Arr(a), Value::Arr(b)) => a == b,
            (Value::Packed(a), Value::Packed(b)) => a == b,
            _ => false,
        }
    }
}

/// A runtime failure, mirroring the Java exceptions the paper's metrics talk
/// about (§8.1 counts `ClassCastException`s in specifications).
///
/// Each kind maps onto a stable `R0xxx` code in the shared diagnostic
/// registry ([`genus_common::codes`]); both execution engines produce the
/// same codes, so differential parity compares codes structurally
/// instead of exact message strings. A trap carries no source location:
/// HIR has no expression spans, so its diagnostic has the dummy span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    /// Error category.
    pub kind: ErrorKind,
    /// Message.
    pub msg: String,
}

/// Categories of runtime errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// A failed checked cast.
    ClassCast,
    /// Null dereference.
    NullPointer,
    /// Array index out of range.
    IndexOutOfBounds,
    /// Division by zero.
    Arithmetic,
    /// Dynamic dispatch found no method.
    NoSuchMethod,
    /// A non-void body fell off the end.
    MissingReturn,
    /// Interpreter recursion limit.
    StackOverflow,
    /// Per-request fuel budget exhausted (or wall-clock deadline passed).
    FuelExhausted,
    /// Per-request heap-allocation cap exceeded.
    MemoryLimit,
    /// Anything else.
    Other,
}

impl ErrorKind {
    /// The stable registered diagnostic code for this kind.
    pub fn code(self) -> &'static str {
        match self {
            ErrorKind::ClassCast => "R0001",
            ErrorKind::NullPointer => "R0002",
            ErrorKind::IndexOutOfBounds => "R0003",
            ErrorKind::Arithmetic => "R0004",
            ErrorKind::NoSuchMethod => "R0005",
            ErrorKind::MissingReturn => "R0006",
            ErrorKind::StackOverflow => "R0007",
            ErrorKind::Other => "R0008",
            ErrorKind::FuelExhausted => "R0009",
            ErrorKind::MemoryLimit => "R0010",
        }
    }
}

impl RuntimeError {
    /// Creates an error.
    pub fn new(kind: ErrorKind, msg: impl Into<String>) -> Self {
        RuntimeError {
            kind,
            msg: msg.into(),
        }
    }

    /// The stable registered diagnostic code (`R0xxx`).
    pub fn code(&self) -> &'static str {
        self.kind.code()
    }

    /// This error as a structured diagnostic, for uniform rendering next
    /// to compile-time errors.
    pub fn to_diagnostic(&self) -> genus_common::Diagnostic {
        genus_common::Diagnostic::error(self.code(), genus_common::Span::dummy(), self.to_string())
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.kind {
            ErrorKind::ClassCast => "ClassCastException",
            ErrorKind::NullPointer => "NullPointerException",
            ErrorKind::IndexOutOfBounds => "IndexOutOfBoundsException",
            ErrorKind::Arithmetic => "ArithmeticException",
            ErrorKind::NoSuchMethod => "NoSuchMethodError",
            ErrorKind::MissingReturn => "MissingReturnError",
            ErrorKind::StackOverflow => "StackOverflowError",
            ErrorKind::FuelExhausted => "FuelExhaustedError",
            ErrorKind::MemoryLimit => "MemoryLimitError",
            ErrorKind::Other => "RuntimeError",
        };
        write!(f, "{name}: {}", self.msg)
    }
}

impl std::error::Error for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_specialization() {
        let s = Storage::new(&RtType::Prim(PrimTy::Double), 3);
        assert!(matches!(s, Storage::F64(_)));
        let s = Storage::new(&RtType::Null, 2);
        assert!(matches!(s, Storage::Ref(_)));
    }

    #[test]
    fn storage_roundtrip() {
        let mut s = Storage::new(&RtType::Prim(PrimTy::Int), 2);
        s.set(1, Value::Int(7));
        assert!(matches!(s.get(1), Value::Int(7)));
        assert!(matches!(s.get(0), Value::Int(0)));
    }

    #[test]
    fn shallow_ref_eq_semantics() {
        let a = Value::Str(Rc::from("x"));
        let b = Value::Str(Rc::from("x"));
        assert!(a.ref_eq_shallow(&b));
        assert!(Value::Null.ref_eq_shallow(&Value::Null));
        assert!(!Value::Int(1).ref_eq_shallow(&Value::Long(1)));
        assert!(Value::Obj(Handle(3)).ref_eq_shallow(&Value::Obj(Handle(3))));
        assert!(!Value::Obj(Handle(3)).ref_eq_shallow(&Value::Obj(Handle(4))));
    }

    #[test]
    fn default_values() {
        assert!(matches!(
            RtType::Prim(PrimTy::Int).default_value(),
            Value::Int(0)
        ));
        assert!(matches!(RtType::Null.default_value(), Value::Null));
    }

    #[test]
    fn display_runtime_error() {
        let e = RuntimeError::new(ErrorKind::ClassCast, "bad cast");
        assert_eq!(e.to_string(), "ClassCastException: bad cast");
    }
}
