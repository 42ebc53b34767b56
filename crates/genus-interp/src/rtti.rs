//! Shared runtime-type machinery: reification, runtime subtyping,
//! existential matching, casts, and dispatch-target resolution.
//!
//! Both execution engines — the tree-walking interpreter ([`crate::Interp`])
//! and the bytecode VM (`genus-vm`) — implement the *same* dynamic
//! semantics (§4.6, §5.1, §7.2 of the paper). The semantics live here as
//! free functions over the checked program plus explicit type/model
//! environments, so an engine only contributes its evaluation strategy,
//! never a second copy of the rules. When the dispatch rules run is
//! decided in one place too: [`crate::dispatch`], which both engines hold.

use crate::{ArrayData, Heap, Meter};
use genus_check::CheckedProgram;
use genus_common::{FastMap, Symbol};
use genus_heap::value::{
    ClassMethodIndex, ErrorKind, ModelValue, ObjData, RtType, RuntimeError, Value,
};
use genus_types::{ClassId, Model, ModelId, MvId, PrimTy, TvId, Type, WhereReq};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::OnceLock;

type RResult<T> = Result<T, RuntimeError>;

/// Type-variable bindings of a runtime environment.
pub type TEnv = VarEnv<TvId, RtType>;
/// Model-variable bindings of a runtime environment.
pub type MEnv = VarEnv<MvId, ModelValue>;

/// A frame's variable bindings: a small linear map. Environments hold a
/// handful of entries (a class's and a method's parameters), so a scan
/// beats hashing and an empty one never allocates — building a frame
/// does no hashing at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarEnv<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VarEnv<K, V> {
    fn default() -> Self {
        VarEnv {
            entries: Vec::new(),
        }
    }
}

impl<K: Copy + Eq, V> VarEnv<K, V> {
    /// An empty environment.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The binding of `k`, if any.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.entries.iter().find(|(ek, _)| ek == k).map(|(_, v)| v)
    }

    /// Binds `k` to `v`, replacing an earlier binding of `k`.
    pub fn insert(&mut self, k: K, v: V) {
        match self.entries.iter_mut().find(|(ek, _)| *ek == k) {
            Some(slot) => slot.1 = v,
            None => self.entries.push((k, v)),
        }
    }

    /// The bindings, in first-insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }
}

// ----------------------------------------------------------------------
// Reification
// ----------------------------------------------------------------------

/// Evaluates a static type to its runtime reification under `tenv`/`menv`.
pub fn eval_type(prog: &CheckedProgram, tenv: &TEnv, menv: &MEnv, t: &Type) -> RtType {
    match t {
        Type::Prim(p) => RtType::Prim(*p),
        Type::Null => RtType::Null,
        Type::Infer(_) => RtType::Null,
        Type::Var(v) => tenv.get(v).cloned().unwrap_or(RtType::Null),
        Type::Array(e) => RtType::Array(Box::new(eval_type(prog, tenv, menv, e))),
        Type::Class { id, args, models } => RtType::Class {
            id: *id,
            args: args
                .iter()
                .map(|a| eval_type(prog, tenv, menv, a))
                .collect(),
            models: models
                .iter()
                .map(|m| eval_model(prog, tenv, menv, m))
                .collect(),
        },
        // Existentials erase to a generic reference at run time; their
        // witnesses live in `Packed` values.
        Type::Existential { .. } => RtType::Null,
    }
}

/// Evaluates a static model to its runtime witness under `tenv`/`menv`.
pub fn eval_model(prog: &CheckedProgram, tenv: &TEnv, menv: &MEnv, m: &Model) -> ModelValue {
    match m {
        Model::Var(v) => menv.get(v).cloned().unwrap_or(ModelValue::Natural {
            constraint: genus_types::ConstraintId(0),
            args: vec![],
        }),
        Model::Infer(_) => ModelValue::Natural {
            constraint: genus_types::ConstraintId(0),
            args: vec![],
        },
        Model::Natural { inst } => ModelValue::Natural {
            constraint: inst.id,
            args: inst
                .args
                .iter()
                .map(|a| eval_type(prog, tenv, menv, a))
                .collect(),
        },
        Model::Decl {
            id,
            type_args,
            model_args,
        } => ModelValue::Decl {
            id: *id,
            targs: type_args
                .iter()
                .map(|a| eval_type(prog, tenv, menv, a))
                .collect(),
            margs: model_args
                .iter()
                .map(|x| eval_model(prog, tenv, menv, x))
                .collect(),
        },
    }
}

/// Runtime type of a value.
pub fn value_rt_type(prog: &CheckedProgram, heap: &Heap, v: &Value) -> RtType {
    match v {
        Value::Int(_) => RtType::Prim(PrimTy::Int),
        Value::Long(_) => RtType::Prim(PrimTy::Long),
        Value::Double(_) => RtType::Prim(PrimTy::Double),
        Value::Bool(_) => RtType::Prim(PrimTy::Boolean),
        Value::Char(_) => RtType::Prim(PrimTy::Char),
        Value::Str(_) => match prog.table.lookup_class(Symbol::intern("String")) {
            Some(id) => RtType::Class {
                id,
                args: vec![],
                models: vec![],
            },
            None => RtType::Null,
        },
        Value::Obj(h) => {
            let o = heap.obj(*h);
            RtType::Class {
                id: o.class,
                args: o.targs.clone(),
                models: o.models.clone(),
            }
        }
        Value::Arr(h) => RtType::Array(Box::new(heap.arr(*h).elem.clone())),
        Value::Packed(h) => value_rt_type(prog, heap, &heap.packed(*h).value),
        Value::Null | Value::Void => RtType::Null,
    }
}

/// Whether `v`'s runtime type is exactly `rt` — structurally equivalent
/// to `value_rt_type(prog, v) == *rt`, but without constructing the type
/// (no `targs`/`models` clones for objects, no boxed element clone for
/// arrays). This is the hot-path comparator behind the VM's per-site
/// model-dispatch inline caches.
pub fn value_matches_rt(prog: &CheckedProgram, heap: &Heap, v: &Value, rt: &RtType) -> bool {
    match v {
        Value::Obj(h) => {
            let o = heap.obj(*h);
            matches!(
                rt,
                RtType::Class { id, args, models }
                    if o.class == *id && o.targs == *args && o.models == *models
            )
        }
        Value::Arr(h) => matches!(rt, RtType::Array(e) if heap.arr(*h).elem == **e),
        Value::Packed(h) => value_matches_rt(prog, heap, &heap.packed(*h).value, rt),
        // Primitives, strings, null: `value_rt_type` is allocation-free
        // for these shapes (empty vecs never touch the heap), so reuse it
        // for exact parity with the memo-key construction.
        _ => value_rt_type(prog, heap, v) == *rt,
    }
}

/// Human-readable name of a runtime type, for diagnostic messages
/// (`ArrayList[int]`, `int[]`, ...).
pub fn rt_type_name(prog: &CheckedProgram, t: &RtType) -> String {
    match t {
        RtType::Prim(p) => p.name().to_string(),
        RtType::Class { id, args, .. } => {
            let name = prog.table.class(*id).name.to_string();
            if args.is_empty() {
                name
            } else {
                let args: Vec<String> = args.iter().map(|a| rt_type_name(prog, a)).collect();
                format!("{name}[{}]", args.join(", "))
            }
        }
        RtType::Array(elem) => format!("{}[]", rt_type_name(prog, elem)),
        RtType::Null => "null".to_string(),
    }
}

/// Whether evaluating this type yields the same reification in every
/// frame (no type/model variables; inference leftovers and existentials
/// erase deterministically).
pub fn ty_receiver_independent(t: &Type) -> bool {
    match t {
        Type::Prim(_) | Type::Null | Type::Infer(_) | Type::Existential { .. } => true,
        Type::Var(_) => false,
        Type::Array(e) => ty_receiver_independent(e),
        Type::Class { args, models, .. } => {
            args.iter().all(ty_receiver_independent)
                && models.iter().all(model_receiver_independent)
        }
    }
}

/// Model analogue of [`ty_receiver_independent`].
pub fn model_receiver_independent(m: &Model) -> bool {
    match m {
        Model::Var(_) => false,
        Model::Infer(_) => true,
        Model::Natural { inst } => inst.args.iter().all(ty_receiver_independent),
        Model::Decl {
            type_args,
            model_args,
            ..
        } => {
            type_args.iter().all(ty_receiver_independent)
                && model_args.iter().all(model_receiver_independent)
        }
    }
}

// ----------------------------------------------------------------------
// Runtime subtyping
// ----------------------------------------------------------------------

/// Direct supertypes of a reified class instantiation.
pub fn rt_parents(
    prog: &CheckedProgram,
    id: ClassId,
    args: &[RtType],
    models: &[ModelValue],
) -> Vec<(ClassId, Vec<RtType>, Vec<ModelValue>)> {
    let def = prog.table.class(id);
    let mut tenv = TEnv::new();
    let mut menv = MEnv::new();
    for (tv, t) in def.params.iter().zip(args) {
        tenv.insert(*tv, t.clone());
    }
    for (w, m) in def.wheres.iter().zip(models) {
        menv.insert(w.mv, m.clone());
    }
    let mut out = Vec::new();
    let mut push = |t: &Type| {
        if let RtType::Class { id, args, models } = eval_type(prog, &tenv, &menv, t) {
            out.push((id, args, models));
        }
    };
    if let Some(e) = &def.extends {
        push(e);
    }
    for i in &def.implements {
        push(i);
    }
    out
}

/// The instantiation of a reified class viewed at ancestor `target`.
pub fn rt_supertype_at(
    prog: &CheckedProgram,
    id: ClassId,
    args: &[RtType],
    models: &[ModelValue],
    target: ClassId,
) -> Option<(Vec<RtType>, Vec<ModelValue>)> {
    if id == target {
        return Some((args.to_vec(), models.to_vec()));
    }
    for (pid, pargs, pmodels) in rt_parents(prog, id, args, models) {
        if let Some(found) = rt_supertype_at(prog, pid, &pargs, &pmodels, target) {
            return Some(found);
        }
    }
    None
}

/// Runtime subtyping over reified types (invariant generics, reference
/// types below `Object`).
pub fn rt_subtype(prog: &CheckedProgram, a: &RtType, b: &RtType) -> bool {
    if a == b {
        return true;
    }
    if let RtType::Class { id, args, .. } = b {
        if args.is_empty() {
            if let Some(obj) = prog.table.lookup_class(Symbol::intern("Object")) {
                if *id == obj && !matches!(a, RtType::Prim(_)) {
                    return true;
                }
            }
        }
    }
    match (a, b) {
        (RtType::Null, x) => !matches!(x, RtType::Prim(_)),
        (
            RtType::Class { id, args, models },
            RtType::Class {
                id: tid,
                args: targs,
                models: tmodels,
            },
        ) => match rt_supertype_at(prog, *id, args, models, *tid) {
            Some((sargs, smodels)) => &sargs == targs && &smodels == tmodels,
            None => false,
        },
        _ => false,
    }
}

/// Reified `instanceof` (null is not an instance of anything).
pub fn value_instanceof(prog: &CheckedProgram, heap: &Heap, v: &Value, t: &RtType) -> bool {
    if heap.is_null(v) {
        return false;
    }
    let vt = value_rt_type(prog, heap, v);
    rt_subtype(prog, &vt, t)
}

/// `instanceof` against a (possibly existential) static type.
pub fn instanceof_type(
    prog: &CheckedProgram,
    heap: &Heap,
    tenv: &TEnv,
    menv: &MEnv,
    v: &Value,
    ty: &Type,
) -> bool {
    match ty {
        Type::Existential {
            params,
            bounds,
            wheres,
            body,
        } => match_existential(prog, heap, tenv, menv, v, params, bounds, wheres, body).is_some(),
        _ => {
            let t = eval_type(prog, tenv, menv, ty);
            value_instanceof(prog, heap, v, &t)
        }
    }
}

/// Matches a value against an existential pattern, returning the hole
/// solutions `(types, models)` on success. This is what makes
/// Figure 7's `src instanceof TreeSet[? extends T with c]` work.
#[allow(clippy::too_many_arguments)]
pub fn match_existential(
    prog: &CheckedProgram,
    heap: &Heap,
    tenv: &TEnv,
    menv: &MEnv,
    v: &Value,
    params: &[TvId],
    bounds: &[Option<Type>],
    wheres: &[WhereReq],
    body: &Type,
) -> Option<(Vec<RtType>, Vec<ModelValue>)> {
    if heap.is_null(v) {
        return None;
    }
    let packed = match v {
        Value::Packed(h) => Some(heap.packed(*h)),
        _ => None,
    };
    let inner: &Value = packed.as_ref().map_or(v, |p| &p.value);
    let Type::Class { id, args, models } = body else {
        // `[some U] U` matches anything; witnesses come from packaging.
        if let Type::Var(u) = body {
            if params.contains(u) {
                let vt = value_rt_type(prog, heap, inner);
                if let Some(p) = &packed {
                    return Some((vec![vt], p.models.clone()));
                }
                if wheres.is_empty() {
                    return Some((vec![vt], vec![]));
                }
            }
        }
        return None;
    };
    let vt = value_rt_type(prog, heap, inner);
    let RtType::Class {
        id: vid,
        args: vargs,
        models: vmodels,
    } = &vt
    else {
        return None;
    };
    let (sargs, smodels) = rt_supertype_at(prog, *vid, vargs, vmodels, *id)?;
    let mut hole_tys: HashMap<TvId, RtType> = HashMap::new();
    for (pat, actual) in args.iter().zip(&sargs) {
        match pat {
            Type::Var(u) if params.contains(u) => {
                if let Some(prev) = hole_tys.get(u) {
                    if prev != actual {
                        return None;
                    }
                } else {
                    let idx = params.iter().position(|p| p == u).expect("hole in params");
                    if let Some(Some(b)) = bounds.get(idx) {
                        let bt = eval_type(prog, tenv, menv, b);
                        if !rt_subtype(prog, actual, &bt) {
                            return None;
                        }
                    }
                    hole_tys.insert(*u, actual.clone());
                }
            }
            _ => {
                let want = eval_type(prog, tenv, menv, pat);
                if &want != actual {
                    return None;
                }
            }
        }
    }
    let mut hole_models: HashMap<MvId, ModelValue> = HashMap::new();
    let hole_mvs: Vec<MvId> = wheres.iter().map(|w| w.mv).collect();
    for (pat, actual) in models.iter().zip(&smodels) {
        match pat {
            Model::Var(mv) if hole_mvs.contains(mv) => {
                if let Some(prev) = hole_models.get(mv) {
                    if prev != actual {
                        return None;
                    }
                } else {
                    hole_models.insert(*mv, actual.clone());
                }
            }
            _ => {
                let want = eval_model(prog, tenv, menv, pat);
                if &want != actual {
                    return None;
                }
            }
        }
    }
    let types = params
        .iter()
        .map(|p| hole_tys.get(p).cloned().unwrap_or(RtType::Null))
        .collect();
    let models = wheres
        .iter()
        .map(|w| hole_models.get(&w.mv).cloned())
        .collect::<Option<Vec<_>>>()?;
    Some((types, models))
}

/// Checked cast semantics shared by both engines: numeric conversion
/// matrices, null passthrough, existential (re)packing, and the reified
/// class-cast check. A successful cast to an existential allocates a
/// package on `heap`, charged to `meter` (it can trap with `R0010`).
pub fn cast_value(
    prog: &CheckedProgram,
    heap: &Heap,
    meter: &Meter,
    tenv: &TEnv,
    menv: &MEnv,
    v: Value,
    ty: &Type,
) -> RResult<Value> {
    // Numeric casts (including narrowing) go through the reified matrix
    // below; everything else lets `null` pass through unchanged first.
    if !matches!(ty, Type::Prim(_)) && heap.is_null(&v) {
        return Ok(Value::Null);
    }
    if let Type::Existential {
        params,
        bounds,
        wheres,
        body,
    } = ty
    {
        return match match_existential(prog, heap, tenv, menv, &v, params, bounds, wheres, body) {
            Some((types, models)) => {
                let inner = heap.unpack(v);
                heap.alloc_packed(meter, inner, types, models)
            }
            None => Err(RuntimeError::new(
                ErrorKind::ClassCast,
                "value does not match existential type".to_string(),
            )),
        };
    }
    let t = eval_type(prog, tenv, menv, ty);
    cast_value_rt(prog, heap, v, &t)
}

/// Checked cast against an already-reified (non-existential) target type:
/// the tail of [`cast_value`], split out so engines that pre-reify their
/// cast targets (the VM optimizer's `rt_types` table) share the exact
/// same conversion matrix and failure messages.
pub fn cast_value_rt(prog: &CheckedProgram, heap: &Heap, v: Value, t: &RtType) -> RResult<Value> {
    if let RtType::Prim(p) = t {
        return match (&v, p) {
            (Value::Int(x), PrimTy::Int) => Ok(Value::Int(*x)),
            (Value::Int(x), PrimTy::Long) => Ok(Value::Long(i64::from(*x))),
            (Value::Int(x), PrimTy::Double) => Ok(Value::Double(f64::from(*x))),
            (Value::Long(x), PrimTy::Int) => Ok(Value::Int(*x as i32)),
            (Value::Long(x), PrimTy::Long) => Ok(Value::Long(*x)),
            (Value::Long(x), PrimTy::Double) => Ok(Value::Double(*x as f64)),
            (Value::Double(x), PrimTy::Int) => Ok(Value::Int(*x as i32)),
            (Value::Double(x), PrimTy::Long) => Ok(Value::Long(*x as i64)),
            (Value::Double(x), PrimTy::Double) => Ok(Value::Double(*x)),
            (Value::Char(c), PrimTy::Int) => Ok(Value::Int(*c as i32)),
            (Value::Int(x), PrimTy::Char) => {
                Ok(Value::Char(char::from_u32(*x as u32).unwrap_or('\u{FFFD}')))
            }
            (Value::Char(c), PrimTy::Char) => Ok(Value::Char(*c)),
            (Value::Bool(b), PrimTy::Boolean) => Ok(Value::Bool(*b)),
            _ => Err(RuntimeError::new(
                ErrorKind::ClassCast,
                format!("cannot cast {v:?} to {}", p.name()),
            )),
        };
    }
    if heap.is_null(&v) {
        return Ok(Value::Null);
    }
    if value_instanceof(prog, heap, &v, t) {
        Ok(heap.unpack(v))
    } else {
        Err(RuntimeError::new(
            ErrorKind::ClassCast,
            format!(
                "cannot cast value of type `{}` to `{}`",
                rt_type_name(prog, &value_rt_type(prog, heap, &v)),
                rt_type_name(prog, t),
            ),
        ))
    }
}

// ----------------------------------------------------------------------
// Virtual dispatch resolution
// ----------------------------------------------------------------------

/// Lazily built per-class `(name, arity) → method index` tables (held by
/// [`crate::dispatch::Dispatch`]).
#[derive(Default)]
pub(crate) struct ClassIndexes {
    map: RefCell<FastMap<ClassId, Rc<ClassMethodIndex>>>,
}

impl ClassIndexes {
    /// The (lazily built) method index for `id`.
    pub(crate) fn get(&self, prog: &CheckedProgram, id: ClassId) -> Rc<ClassMethodIndex> {
        if let Some(ix) = self.map.borrow().get(&id) {
            return Rc::clone(ix);
        }
        let ix = Rc::new(ClassMethodIndex::build(prog.table.class(id)));
        self.map.borrow_mut().insert(id, Rc::clone(&ix));
        ix
    }
}

/// A memoized virtual-dispatch target: the defining class and method
/// index, plus the parent-edge path (`hops`) from the dynamic class to
/// the defining class. The path is instantiation-independent — parent
/// class ids come from `extends`/`implements` clauses whose head classes
/// are fixed — so one entry serves every instantiation of the class;
/// receiver-specific type/model arguments are re-derived by replaying
/// the hops.
#[derive(Debug, Clone)]
pub(crate) struct VirtTarget {
    /// Parent-edge indices from the dynamic class to the defining class.
    pub hops: Vec<usize>,
    /// Defining class.
    pub cid: ClassId,
    /// Method index within the defining class.
    pub mi: usize,
    /// The defining class's instantiation, precomputed when every parent
    /// edge on the path is receiver-independent (mentions no type/model
    /// variables) — then hits skip the hop replay entirely.
    pub fixed: Option<(Vec<RtType>, Vec<ModelValue>)>,
}

/// Finds `(declaring class, method index, class targs, class models)`
/// for a virtual call, walking the dynamic class chain then interfaces.
/// This is the uncached slow path (`no-cache` builds).
pub fn find_virtual(
    prog: &CheckedProgram,
    id: ClassId,
    args: &[RtType],
    models: &[ModelValue],
    name: Symbol,
    arity: usize,
) -> Option<(ClassId, usize, Vec<RtType>, Vec<ModelValue>)> {
    let def = prog.table.class(id);
    for (mi, m) in def.methods.iter().enumerate() {
        if m.name == name && m.params.len() == arity && !m.is_static {
            // Skip pure signatures (abstract or interface methods
            // without a body) so the search continues to an
            // implementation; native methods are kept.
            if m.body.is_some() || m.is_native {
                return Some((id, mi, args.to_vec(), models.to_vec()));
            }
        }
    }
    for (pid, pargs, pmodels) in rt_parents(prog, id, args, models) {
        if let Some(found) = find_virtual(prog, pid, &pargs, &pmodels, name, arity) {
            return Some(found);
        }
    }
    None
}

/// Walks the hierarchy like [`find_virtual`] but records the parent-edge
/// path taken, so the result can be memoized per class and replayed for
/// other instantiations.
#[allow(clippy::too_many_arguments)]
fn find_virtual_path(
    prog: &CheckedProgram,
    indexes: &ClassIndexes,
    id: ClassId,
    args: &[RtType],
    models: &[ModelValue],
    name: Symbol,
    arity: usize,
    hops: &mut Vec<usize>,
) -> Option<(ClassId, usize)> {
    if let Some(mi) = indexes.get(prog, id).virtual_method(name, arity) {
        return Some((id, mi));
    }
    for (h, (pid, pargs, pmodels)) in rt_parents(prog, id, args, models).into_iter().enumerate() {
        hops.push(h);
        if let Some(found) =
            find_virtual_path(prog, indexes, pid, &pargs, &pmodels, name, arity, hops)
        {
            return Some(found);
        }
        hops.pop();
    }
    None
}

/// Whether every parent edge along `hops` evaluates identically for
/// all instantiations of `id` (so the target's instantiation can be
/// computed once and frozen).
fn path_is_receiver_independent(prog: &CheckedProgram, id: ClassId, hops: &[usize]) -> bool {
    let mut cur = id;
    for &h in hops {
        let def = prog.table.class(cur);
        // Hop indices follow `rt_parents` order: `extends` first,
        // then `implements`.
        let t = match def.extends.as_ref() {
            Some(ext) if h == 0 => ext,
            ext => &def.implements[h - usize::from(ext.is_some())],
        };
        if !ty_receiver_independent(t) {
            return false;
        }
        let Type::Class { id: pid, .. } = t else {
            return false;
        };
        cur = *pid;
    }
    true
}

/// Resolves a virtual-dispatch target for the dynamic class `id`,
/// precomputing the fixed instantiation where the path allows it. The
/// result is memoizable per `(class, name, arity)` ([`crate::dispatch`]).
pub(crate) fn resolve_virtual(
    prog: &CheckedProgram,
    indexes: &ClassIndexes,
    id: ClassId,
    args: &[RtType],
    models: &[ModelValue],
    name: Symbol,
    arity: usize,
) -> Option<Rc<VirtTarget>> {
    let mut hops = Vec::new();
    find_virtual_path(prog, indexes, id, args, models, name, arity, &mut hops).map(|(cid, mi)| {
        let mut vt = VirtTarget {
            hops,
            cid,
            mi,
            fixed: None,
        };
        if !vt.hops.is_empty() && path_is_receiver_independent(prog, id, &vt.hops) {
            let (_, _, cargs, cmodels) = replay_target(prog, &vt, id, args, models);
            vt.fixed = Some((cargs, cmodels));
        }
        Rc::new(vt)
    })
}

/// Re-derives the receiver-specific instantiation of the defining
/// class by replaying a memoized target's parent-edge path.
pub(crate) fn replay_target(
    prog: &CheckedProgram,
    t: &VirtTarget,
    id: ClassId,
    args: &[RtType],
    models: &[ModelValue],
) -> (ClassId, usize, Vec<RtType>, Vec<ModelValue>) {
    let (mut id, mut args, mut models) = (id, args.to_vec(), models.to_vec());
    for &h in &t.hops {
        let (pid, pargs, pmodels) = rt_parents(prog, id, &args, &models)
            .into_iter()
            .nth(h)
            .expect("memoized hop path stays within the class's parents");
        id = pid;
        args = pargs;
        models = pmodels;
    }
    debug_assert_eq!(id, t.cid);
    (t.cid, t.mi, args, models)
}

// ----------------------------------------------------------------------
// Value projections shared by the engines
// ----------------------------------------------------------------------

/// Projects a value to an object reference, unwrapping existential
/// packages.
///
/// # Errors
///
/// `NullPointerException` on null; `Other` on non-objects.
pub fn expect_obj(heap: &Heap, v: &Value) -> RResult<Rc<ObjData>> {
    match v {
        Value::Obj(h) => Ok(heap.obj(*h)),
        Value::Packed(h) => match &heap.packed(*h).value {
            Value::Obj(o) => Ok(heap.obj(*o)),
            Value::Null => Err(RuntimeError::new(
                ErrorKind::NullPointer,
                "null dereference",
            )),
            other => Err(RuntimeError::new(
                ErrorKind::Other,
                format!("expected object, got {other:?}"),
            )),
        },
        Value::Null => Err(RuntimeError::new(
            ErrorKind::NullPointer,
            "null dereference",
        )),
        other => Err(RuntimeError::new(
            ErrorKind::Other,
            format!("expected object, got {other:?}"),
        )),
    }
}

/// Projects a value to an array reference, unwrapping existential
/// packages.
///
/// # Errors
///
/// `NullPointerException` on null; `Other` on non-arrays.
pub fn expect_arr(heap: &Heap, v: &Value) -> RResult<Rc<ArrayData>> {
    match v {
        Value::Arr(h) => Ok(heap.arr(*h)),
        Value::Packed(h) => match &heap.packed(*h).value {
            Value::Arr(a) => Ok(heap.arr(*a)),
            _ => Err(RuntimeError::new(ErrorKind::Other, "expected array")),
        },
        Value::Null => Err(RuntimeError::new(ErrorKind::NullPointer, "null array")),
        other => Err(RuntimeError::new(
            ErrorKind::Other,
            format!("expected array, got {other:?}"),
        )),
    }
}

/// The superclass of `id`: its `extends` class (every class but `Object`
/// has one, and the checker's `E0305` makes it a class, never an
/// interface).
pub fn superclass(prog: &CheckedProgram, id: ClassId) -> Option<ClassId> {
    match &prog.table.class(id).extends {
        Some(Type::Class { id, .. }) => Some(*id),
        _ => None,
    }
}

/// The fixed slot of every field of every class, and every class's
/// instance slot count. A field's slot holds in every object whose
/// superclass chain contains its declaring class: the instance fields of
/// the declaring class's superclasses come first, then its own instance
/// fields in declaration order. Computed once per engine (the VM at
/// lowering), superclass first, so it is linear in the number of fields
/// however deep the chains are, and a field access is an indexed load.
#[derive(Debug, Default, Clone)]
pub struct FieldLayout {
    /// Per class, the slot of each declared field (statics get a slot
    /// too; it is never read).
    slots: Vec<Vec<u32>>,
    /// Per class, the instance fields over its superclass chain: the
    /// object's slot count, which also fixes its byte size.
    sizes: Vec<u32>,
}

impl FieldLayout {
    /// Lays out every class of `prog`.
    #[must_use]
    pub fn new(prog: &CheckedProgram) -> Self {
        let n = prog.table.classes.len();
        let mut sizes: Vec<Option<u32>> = vec![None; n];
        let mut slots = vec![Vec::new(); n];
        // Classes whose superclass is not laid out yet, nearest first.
        // Collection cut every `extends` cycle (`E0217`); `on_path` stops
        // the walk anyway should one survive.
        let mut path = Vec::new();
        let mut on_path = vec![false; n];
        for ci in 0..n {
            let mut cur = Some(ClassId(ci as u32));
            while let Some(c) = cur {
                if sizes[c.0 as usize].is_some() || on_path[c.0 as usize] {
                    break;
                }
                on_path[c.0 as usize] = true;
                path.push(c);
                cur = superclass(prog, c);
            }
            while let Some(c) = path.pop() {
                on_path[c.0 as usize] = false;
                let mut next = superclass(prog, c)
                    .and_then(|s| sizes[s.0 as usize])
                    .unwrap_or(0);
                slots[c.0 as usize] = prog
                    .table
                    .class(c)
                    .fields
                    .iter()
                    .map(|f| {
                        let slot = next;
                        next += u32::from(!f.is_static);
                        slot
                    })
                    .collect();
                sizes[c.0 as usize] = Some(next);
            }
        }
        FieldLayout {
            slots,
            sizes: sizes.into_iter().map(|s| s.unwrap_or(0)).collect(),
        }
    }

    /// The slot of `class`'s field `field`.
    #[must_use]
    pub fn slot(&self, class: ClassId, field: usize) -> usize {
        self.slots[class.0 as usize][field] as usize
    }

    /// The number of instance slots of a `class` object.
    #[must_use]
    pub fn size(&self, class: ClassId) -> usize {
        self.sizes[class.0 as usize] as usize
    }
}

/// What a fresh instance slot holds until its initializer, if any, runs.
#[derive(Debug, Clone, Copy)]
enum SlotDefault {
    /// The same in every instance: a primitive's zero, or `null` (`None`).
    Fixed(Option<PrimTy>),
    /// A field typed by the bare type variable `tv` of the chain's class
    /// at `level` (0 is the base class): `0` or `null` depending on how
    /// the instance binds it.
    Var { level: u32, tv: TvId },
}

/// One field initializer of a construction.
#[derive(Debug, Clone)]
struct FieldInit<I> {
    /// The slot it writes.
    slot: u32,
    /// The chain level of its declaring class (0 is the base class).
    level: u32,
    /// The engine's handle on its code.
    init: I,
}

/// How to construct an instance of one class, fixed by the class
/// structure alone and built once per program: the default of every slot
/// and the field initializers in run order (base class first, each
/// class's in declaration order). `I` is the engine's handle on an
/// initializer's code (a function id on the VM, the HIR expression on the
/// AST engine).
#[derive(Debug, Clone)]
pub struct ClassPlan<I> {
    defaults: Box<[SlotDefault]>,
    inits: Box<[FieldInit<I>]>,
    /// Whether some step depends on the instance's type or model
    /// arguments: a slot typed by a bare type variable, or an initializer
    /// of a class with type parameters or `where` clauses (it runs under
    /// that class's bindings).
    needs_env: bool,
}

impl<I> ClassPlan<I> {
    /// Plans `cid`, whose objects have `slots` slots. `init_of` gives the
    /// initializer of a class's field, if it has one.
    fn build(
        prog: &CheckedProgram,
        cid: ClassId,
        slots: usize,
        init_of: impl Fn(ClassId, usize) -> Option<I>,
    ) -> Self {
        let mut chain: Vec<ClassId> =
            std::iter::successors(Some(cid), |&c| superclass(prog, c)).collect();
        chain.reverse();
        let mut defaults = Vec::with_capacity(slots);
        let mut inits = Vec::new();
        let mut needs_env = false;
        for (level, &c) in chain.iter().enumerate() {
            let def = prog.table.class(c);
            let generic = !def.params.is_empty() || !def.wheres.is_empty();
            for (fi, f) in def.fields.iter().enumerate() {
                if f.is_static {
                    continue;
                }
                let level = level as u32;
                if let Some(init) = init_of(c, fi) {
                    needs_env |= generic;
                    let slot = defaults.len() as u32;
                    inits.push(FieldInit { slot, level, init });
                }
                defaults.push(match &f.ty {
                    Type::Var(tv) => {
                        needs_env = true;
                        SlotDefault::Var { level, tv: *tv }
                    }
                    Type::Prim(p) => SlotDefault::Fixed(Some(*p)),
                    _ => SlotDefault::Fixed(None),
                });
            }
        }
        debug_assert_eq!(defaults.len(), slots, "the plan agrees with the layout");
        ClassPlan {
            defaults: defaults.into(),
            inits: inits.into(),
            needs_env,
        }
    }

    /// Allocates an instance of `cid` with the given type and model
    /// arguments, fills its slots with their defaults and runs its field
    /// initializers, base class first. `rooted` sees the object right
    /// after allocation, before any initializer can run a collection;
    /// `run_init` runs one initializer for `this` under the bindings of
    /// its declaring class. Every slot holds its default from the start,
    /// so an initializer that reads a field not yet initialized sees `0`,
    /// `0.0`, `false` or `null`, as in Java.
    ///
    /// When no step depends on the instance's type or model arguments,
    /// initializers run under empty bindings. Otherwise the bindings of
    /// every class on the chain are evaluated first, from `targs`/`models`
    /// up through each `extends` clause.
    ///
    /// # Errors
    ///
    /// `R0010` when the allocation is over the memory limit; any error of
    /// an initializer.
    #[allow(clippy::too_many_arguments)]
    pub fn construct(
        &self,
        prog: &CheckedProgram,
        heap: &Heap,
        meter: &Meter,
        cid: ClassId,
        targs: &[RtType],
        models: &[ModelValue],
        rooted: impl FnOnce(&Value),
        mut run_init: impl FnMut(&Value, &I, &TEnv, &MEnv) -> RResult<Value>,
    ) -> RResult<Value> {
        let envs = if self.needs_env {
            chain_envs(prog, cid, targs, models)
        } else {
            Vec::new()
        };
        let empty = (TEnv::new(), MEnv::new());
        let env = |level: u32| envs.get(level as usize).unwrap_or(&empty);
        let default = |slot: usize| match self.defaults[slot] {
            SlotDefault::Fixed(Some(p)) => RtType::Prim(p).default_value(),
            SlotDefault::Fixed(None) => Value::Null,
            SlotDefault::Var { level, tv } => env(level)
                .0
                .get(&tv)
                .map_or(Value::Null, RtType::default_value),
        };
        let fields = (0..self.defaults.len()).map(default).collect();
        let this = heap.alloc_obj(meter, cid, targs.to_vec(), models.to_vec(), fields)?;
        rooted(&this);
        if self.inits.is_empty() {
            return Ok(this);
        }
        let Value::Obj(h) = &this else {
            unreachable!("an allocation is an object")
        };
        for i in &*self.inits {
            let (tenv, menv) = env(i.level);
            let v = run_init(&this, &i.init, tenv, menv)?;
            heap.obj(*h).fields.borrow_mut()[i.slot as usize] = v;
        }
        Ok(this)
    }
}

/// The type and model bindings of every class on `cid`'s superclass chain
/// in an instance with `targs`/`models`, base class first: each class's
/// parameters bound as the `extends` clause below it instantiates them.
fn chain_envs(
    prog: &CheckedProgram,
    cid: ClassId,
    targs: &[RtType],
    models: &[ModelValue],
) -> Vec<(TEnv, MEnv)> {
    let mut envs = Vec::new();
    let mut cur = Some((cid, targs.to_vec(), models.to_vec()));
    while let Some((id, args, ms)) = cur {
        let def = prog.table.class(id);
        let mut tenv = TEnv::new();
        let mut menv = MEnv::new();
        for (tv, t) in def.params.iter().zip(args) {
            tenv.insert(*tv, t);
        }
        for (w, m) in def.wheres.iter().zip(ms) {
            menv.insert(w.mv, m);
        }
        cur = match def
            .extends
            .as_ref()
            .map(|t| eval_type(prog, &tenv, &menv, t))
        {
            Some(RtType::Class { id, args, models }) => Some((id, args, models)),
            _ => None,
        };
        envs.push((tenv, menv));
    }
    envs.reverse();
    envs
}

/// Every class's [`ClassPlan`], each built on its first use, next to the
/// field layout the plans take their slot counts from. One table serves
/// every run of a program (the VM keeps it in the shared bytecode), so
/// a `new` walks its class chain only the first time its class is built.
#[derive(Debug, Clone)]
pub struct ClassPlans<I> {
    layout: FieldLayout,
    plans: Box<[OnceLock<ClassPlan<I>>]>,
}

impl<I> Default for ClassPlans<I> {
    fn default() -> Self {
        ClassPlans {
            layout: FieldLayout::default(),
            plans: Box::default(),
        }
    }
}

impl<I> ClassPlans<I> {
    /// An empty plan slot for every class `layout` lays out.
    #[must_use]
    pub fn new(layout: FieldLayout) -> Self {
        let plans = layout.sizes.iter().map(|_| OnceLock::new()).collect();
        ClassPlans { layout, plans }
    }

    /// The field layout.
    #[must_use]
    pub fn layout(&self) -> &FieldLayout {
        &self.layout
    }

    /// `cid`'s plan, built now if this is its first use; `init_of` gives
    /// the initializer of a class's field, if it has one.
    pub fn get(
        &self,
        prog: &CheckedProgram,
        cid: ClassId,
        init_of: impl Fn(ClassId, usize) -> Option<I>,
    ) -> &ClassPlan<I> {
        self.plans[cid.0 as usize]
            .get_or_init(|| ClassPlan::build(prog, cid, self.layout.size(cid), init_of))
    }
}

/// Bounds-checks an array index value.
///
/// # Errors
///
/// `Other` for non-int indices; `IndexOutOfBounds` otherwise.
pub fn expect_index(v: &Value, len: usize) -> RResult<usize> {
    let Value::Int(i) = v else {
        return Err(RuntimeError::new(
            ErrorKind::Other,
            "array index must be int",
        ));
    };
    if *i < 0 || *i as usize >= len {
        return Err(RuntimeError::new(
            ErrorKind::IndexOutOfBounds,
            format!("index {i} out of bounds for length {len}"),
        ));
    }
    Ok(*i as usize)
}

/// Checks the length of a `new T[len]`.
///
/// # Errors
///
/// `Other` for a non-int length; `IndexOutOfBounds` for a negative one.
pub fn expect_length(v: &Value) -> RResult<usize> {
    let Value::Int(n) = v else {
        return Err(RuntimeError::new(
            ErrorKind::Other,
            "array length must be int",
        ));
    };
    if *n < 0 {
        return Err(RuntimeError::new(
            ErrorKind::IndexOutOfBounds,
            format!("negative array length {n}"),
        ));
    }
    Ok(*n as usize)
}

// ----------------------------------------------------------------------
// Multimethod (model) dispatch resolution (§5.1)
// ----------------------------------------------------------------------

/// The winning candidate of a multimethod dispatch, with the model-level
/// environment its body runs under.
#[derive(Debug)]
pub struct ModelTarget {
    /// Defining model.
    pub mid: ModelId,
    /// Method index within the model.
    pub mi: usize,
    /// Type environment the body runs under.
    pub tenv: TEnv,
    /// Model environment the body runs under.
    pub menv: MEnv,
}

/// Collects `(model id, method index, env)` candidates: the model's own
/// methods plus those inherited via `extends` (§5.3), depth first, own
/// methods before each parent's. Public so the VM optimizer can enumerate
/// the same candidate set when proving a `CallModel` site devirtualizable
/// at compile time.
///
/// The checker cut every `extends` cycle, so the walk ends; it keeps its
/// own stack, so a chain of any length needs constant host stack. A model
/// reached again under the same arguments would only add candidates an
/// earlier identical one wins every tie against, so it is skipped.
pub fn model_candidates(
    prog: &CheckedProgram,
    id: ModelId,
    targs: &[RtType],
    margs: &[ModelValue],
    out: &mut Vec<(ModelId, usize, TEnv, MEnv)>,
) {
    let mut seen = HashSet::new();
    let mut stack = vec![(id, targs.to_vec(), margs.to_vec())];
    let mut root = true;
    while let Some((id, targs, margs)) = stack.pop() {
        // The root is never reached again (that would be a cycle), so a
        // model without parents allocates no set.
        if !std::mem::take(&mut root) && !seen.insert((id, targs.clone(), margs.clone())) {
            continue;
        }
        let def = prog.table.model(id);
        let mut tenv = TEnv::new();
        let mut menv = MEnv::new();
        for (tv, t) in def.tparams.iter().zip(targs) {
            tenv.insert(*tv, t);
        }
        for (w, m) in def.wheres.iter().zip(margs) {
            menv.insert(w.mv, m);
        }
        for (mi, _) in def.methods.iter().enumerate() {
            out.push((id, mi, tenv.clone(), menv.clone()));
        }
        for parent in def.extends.iter().rev() {
            if let ModelValue::Decl {
                id: pid,
                targs: pt,
                margs: pm,
            } = eval_model(prog, &tenv, &menv, parent)
            {
                stack.push((pid, pt, pm));
            }
        }
    }
}

/// Selects the most specific applicable multimethod candidate (§5.1) for
/// an operation on a declared model, given the receiver value (`None` for
/// a static operation, whose receiver *type* `static_recv` is matched
/// exactly) and the argument values. Returns `None` when no candidate
/// applies (the caller falls back to the receiver's own method).
///
/// The decision is a pure function of the model instance, the operation,
/// and the dynamic receiver/argument types (a null's is `RtType::Null`),
/// so [`crate::dispatch`] memoizes it under exactly those.
#[allow(clippy::too_many_arguments)]
pub(crate) fn select_model_target(
    prog: &CheckedProgram,
    heap: &Heap,
    id: ModelId,
    targs: &[RtType],
    margs: &[ModelValue],
    name: Symbol,
    recv: Option<&Value>,
    static_recv: Option<&RtType>,
    args: &[Value],
) -> Option<Rc<ModelTarget>> {
    let is_static = recv.is_none();
    let recv_vt = recv.map(|r| (value_rt_type(prog, heap, r), heap.is_null(r)));
    let arg_ts: Vec<RtType> = args.iter().map(|a| value_rt_type(prog, heap, a)).collect();
    let args_null: Vec<bool> = args.iter().map(|a| heap.is_null(a)).collect();
    let mut cands = Vec::new();
    model_candidates(prog, id, targs, margs, &mut cands);
    // Applicability: the dynamic receiver and argument values must be
    // instances of the declared (evaluated) types.
    let mut applicable: Vec<(usize, Vec<RtType>)> = Vec::new();
    for (ci, (mid, mi, tenv, menv)) in cands.iter().enumerate() {
        let m = &prog.table.model(*mid).methods[*mi];
        if m.name != name || m.is_static != is_static || m.params.len() != arg_ts.len() {
            continue;
        }
        let recv_t = eval_type(prog, tenv, menv, &m.receiver);
        let ok_recv = match (&recv_vt, static_recv) {
            (Some((vt, is_null)), _) => !is_null && rt_subtype(prog, vt, &recv_t),
            (None, Some(srt)) => &recv_t == srt,
            (None, None) => false,
        };
        if !ok_recv {
            continue;
        }
        let param_ts: Vec<RtType> = m
            .params
            .iter()
            .map(|(_, t)| eval_type(prog, tenv, menv, t))
            .collect();
        let ok_args = arg_ts
            .iter()
            .zip(&args_null)
            .zip(&param_ts)
            .all(|((vt, null), t)| {
                (!null && rt_subtype(prog, vt, t)) || matches!(t, RtType::Prim(_)) || *null
            });
        if !ok_args {
            continue;
        }
        let mut tuple = vec![recv_t];
        tuple.extend(param_ts);
        applicable.push((ci, tuple));
    }
    if applicable.is_empty() {
        return None;
    }
    // Most specific by pointwise runtime subtyping. Ties keep the
    // earlier candidate: own definitions precede inherited ones in
    // the candidate list, so a child model's definition shadows an
    // inherited definition with the same dispatch tuple (§5.3).
    let mut best = 0;
    for i in 1..applicable.len() {
        let fwd = applicable[i]
            .1
            .iter()
            .zip(&applicable[best].1)
            .all(|(a, b)| rt_subtype(prog, a, b));
        let bwd = applicable[best]
            .1
            .iter()
            .zip(&applicable[i].1)
            .all(|(a, b)| rt_subtype(prog, a, b));
        if fwd && !bwd {
            best = i;
        }
    }
    let (ci, _) = applicable[best];
    let (mid, mi, tenv, menv) = &cands[ci];
    Some(Rc::new(ModelTarget {
        mid: *mid,
        mi: *mi,
        tenv: tenv.clone(),
        menv: menv.clone(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_check::check_source;

    #[test]
    fn reification_and_subtyping_roundtrip() {
        let prog = check_source(
            "class A { A() { } }
             class B extends A { B() { } }
             void main() { }",
        )
        .unwrap();
        let a = prog.table.lookup_class(Symbol::intern("A")).unwrap();
        let b = prog.table.lookup_class(Symbol::intern("B")).unwrap();
        let ta = RtType::Class {
            id: a,
            args: vec![],
            models: vec![],
        };
        let tb = RtType::Class {
            id: b,
            args: vec![],
            models: vec![],
        };
        assert!(rt_subtype(&prog, &tb, &ta));
        assert!(!rt_subtype(&prog, &ta, &tb));
        assert!(rt_subtype(&prog, &RtType::Null, &ta));
        assert!(!rt_subtype(
            &prog,
            &RtType::Null,
            &RtType::Prim(PrimTy::Int)
        ));
    }

    #[test]
    fn virtual_resolution_matches_uncached_walk() {
        let prog = check_source(
            "class A { A() { } int f() { return 1; } }
             class B extends A { B() { } }
             void main() { }",
        )
        .unwrap();
        let b = prog.table.lookup_class(Symbol::intern("B")).unwrap();
        let idx = ClassIndexes::default();
        let f = Symbol::intern("f");
        let t = resolve_virtual(&prog, &idx, b, &[], &[], f, 0).expect("resolves");
        let (cid, mi, _, _) = find_virtual(&prog, b, &[], &[], f, 0).expect("walks");
        assert_eq!((t.cid, t.mi), (cid, mi));
        assert_eq!(t.hops, vec![0]);
        assert!(t.fixed.is_some(), "monomorphic parent edge should freeze");
    }

    #[test]
    fn cast_value_numeric_and_failure() {
        let prog = check_source("void main() { }").unwrap();
        let heap = Heap::with_stress(false);
        let meter = Meter::unlimited();
        let (tenv, menv) = (TEnv::new(), MEnv::new());
        let v = cast_value(
            &prog,
            &heap,
            &meter,
            &tenv,
            &menv,
            Value::Int(65),
            &Type::Prim(PrimTy::Char),
        )
        .unwrap();
        assert!(matches!(v, Value::Char('A')));
        let e = cast_value(
            &prog,
            &heap,
            &meter,
            &tenv,
            &menv,
            Value::Bool(true),
            &Type::Prim(PrimTy::Int),
        )
        .unwrap_err();
        assert_eq!(e.kind, ErrorKind::ClassCast);
    }
}
