//! Member lookup: methods and fields through the class hierarchy, plus the
//! built-in method sets of primitive types (§3.3 gives primitives natural
//! models containing "common methods").

use genus_common::Symbol;
use genus_types::{ClassId, PrimTy, Subst, Table, Type};

/// Where a found method lives.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodOwner {
    /// A class/interface method: `(class, method index)`.
    Class(ClassId, usize),
    /// A built-in method of a primitive type.
    Prim(PrimTy),
}

/// A method signature found by lookup, instantiated at the receiver type.
#[derive(Debug, Clone)]
pub struct FoundMethod {
    /// Declaring owner.
    pub owner: MethodOwner,
    /// Method name.
    pub name: Symbol,
    /// Whether static.
    pub is_static: bool,
    /// Whether implemented natively.
    pub is_native: bool,
    /// Method-level type parameters (uninstantiated).
    pub tparams: Vec<genus_types::TvId>,
    /// Method-level where requirements (uninstantiated).
    pub wheres: Vec<genus_types::WhereReq>,
    /// Parameter types, with the receiver's class arguments substituted.
    pub params: Vec<Type>,
    /// Return type, with the receiver's class arguments substituted.
    pub ret: Type,
}

/// All methods named `name` reachable from `recv_ty` (instance and static),
/// with class type/model arguments substituted into their signatures.
///
/// Walks: the class itself, its superclass chain, then implemented
/// interfaces breadth-first. Methods shadowed by an override (same name and
/// arity in a more-derived class) are dropped.
pub fn lookup_methods(table: &Table, recv_ty: &Type, name: Symbol) -> Vec<FoundMethod> {
    let mut out: Vec<FoundMethod> = Vec::new();
    collect_from(table, recv_ty, name, &mut out);
    out
}

fn push_unshadowed(out: &mut Vec<FoundMethod>, fm: FoundMethod) {
    if out
        .iter()
        .any(|m| m.name == fm.name && m.params.len() == fm.params.len())
    {
        return; // shadowed by a more-derived definition
    }
    out.push(fm);
}

/// Depth first from `recv_ty`, on its own stack rather than the host's,
/// so a hierarchy of any depth is walked in constant host stack.
fn collect_from(table: &Table, recv_ty: &Type, name: Symbol, out: &mut Vec<FoundMethod>) {
    let mut stack = vec![recv_ty.clone()];
    while let Some(ty) = stack.pop() {
        match ty {
            Type::Class { id, args, models } => {
                let def = table.class(id);
                let subst = Subst::from_pairs(&def.params, &args).with_models(
                    &def.wheres.iter().map(|w| w.mv).collect::<Vec<_>>(),
                    &models,
                );
                for (mi, m) in def.methods.iter().enumerate() {
                    if m.name == name {
                        push_unshadowed(
                            out,
                            FoundMethod {
                                owner: MethodOwner::Class(id, mi),
                                name,
                                is_static: m.is_static,
                                is_native: m.is_native,
                                tparams: m.tparams.clone(),
                                wheres: m.wheres.iter().map(|w| subst.apply_where(w)).collect(),
                                params: m.params.iter().map(|(_, t)| subst.apply(t)).collect(),
                                ret: subst.apply(&m.ret),
                            },
                        );
                    }
                }
                // `extends` is walked before `implements`.
                let parents = def.extends.iter().chain(&def.implements);
                stack.extend(parents.rev().map(|t| subst.apply(t)));
            }
            Type::Var(v) => stack.extend(table.tv_bound(v).cloned()),
            Type::Prim(p) => {
                for fm in prim_methods(p) {
                    if fm.name == name {
                        push_unshadowed(out, fm);
                    }
                }
            }
            _ => {}
        }
    }
}

/// A field found by lookup.
#[derive(Debug, Clone)]
pub struct FoundField {
    /// Declaring class.
    pub class: ClassId,
    /// Field index within the class.
    pub index: usize,
    /// Whether static.
    pub is_static: bool,
    /// Field type with class arguments substituted.
    pub ty: Type,
}

/// Finds field `name` reachable from `recv_ty`, up the superclass chain
/// in a loop (constant host stack at any depth). The declaring class
/// comes from `declaring_class`, so the walk substitutes level by level
/// only for a field of a generic class.
pub fn lookup_field(table: &Table, recv_ty: &Type, name: Symbol) -> Option<FoundField> {
    let mut ty = recv_ty.clone();
    loop {
        ty = match ty {
            Type::Class { id, args, models } => {
                let (class, index) = declaring_class(table, id, name)?;
                let decl = table.class(class);
                let f = &decl.fields[index];
                let found = |ty| {
                    Some(FoundField {
                        class,
                        index,
                        is_static: f.is_static,
                        ty,
                    })
                };
                // Nothing of the receiver's instantiation reaches the
                // field of a class without parameters.
                if decl.params.is_empty() && decl.wheres.is_empty() {
                    return found(f.ty.clone());
                }
                let def = table.class(id);
                let subst = Subst::from_pairs(&def.params, &args).with_models(
                    &def.wheres.iter().map(|w| w.mv).collect::<Vec<_>>(),
                    &models,
                );
                if class == id {
                    return found(subst.apply(&f.ty));
                }
                subst.apply(def.extends.as_ref()?)
            }
            Type::Var(v) => table.tv_bound(v)?.clone(),
            _ => return None,
        };
    }
}

/// The class up `class`'s superclass chain that declares field `name`,
/// and the field's index there. Memoized for every class the walk
/// passes, so the lookups of a whole chain are linear in its length.
fn declaring_class(table: &Table, class: ClassId, name: Symbol) -> Option<(ClassId, usize)> {
    let mut walked = Vec::new();
    let mut c = class;
    let found = loop {
        if let Some(hit) = table.cache.field_get(c, name) {
            break hit;
        }
        walked.push(c);
        let def = table.class(c);
        if let Some(i) = def.fields.iter().position(|f| f.name == name) {
            break Some((c, i));
        }
        match &def.extends {
            Some(Type::Class { id, .. }) => c = *id,
            _ => break None,
        }
    };
    table.cache.field_put(&walked, name, found);
    found
}

/// The built-in methods of a primitive type. These are what primitives'
/// natural models contain: `equals`, `compareTo`, `hashCode`, `toString`,
/// the numeric ring operations, and the universal static `default()`.
pub fn prim_methods(p: PrimTy) -> Vec<FoundMethod> {
    let t = Type::Prim(p);
    let int = Type::Prim(PrimTy::Int);
    let boolean = Type::Prim(PrimTy::Boolean);
    let string = Type::Null; // replaced below if the table has String; see `prim_method_string_note`
    let mk = |name: &str, is_static: bool, params: Vec<Type>, ret: Type| FoundMethod {
        owner: MethodOwner::Prim(p),
        name: Symbol::intern(name),
        is_static,
        is_native: true,
        tparams: vec![],
        wheres: vec![],
        params,
        ret,
    };
    let mut out = vec![
        mk("equals", false, vec![t.clone()], boolean.clone()),
        mk("compareTo", false, vec![t.clone()], int.clone()),
        mk("hashCode", false, vec![], int.clone()),
        mk("toString", false, vec![], string),
        mk("default", true, vec![], t.clone()),
    ];
    if matches!(p, PrimTy::Int | PrimTy::Long | PrimTy::Double) {
        out.extend([
            mk("plus", false, vec![t.clone()], t.clone()),
            mk("minus", false, vec![t.clone()], t.clone()),
            mk("times", false, vec![t.clone()], t.clone()),
            mk("min", false, vec![t.clone()], t.clone()),
            mk("max", false, vec![t.clone()], t.clone()),
            mk("abs", false, vec![], t.clone()),
            mk("zero", true, vec![], t.clone()),
            mk("one", true, vec![], t.clone()),
        ]);
    }
    out
}

/// Fixes up the `String` return type of primitive `toString` methods, which
/// [`prim_methods`] cannot know without a table.
pub fn patch_prim_string(table: &Table, methods: &mut [FoundMethod]) {
    if let Some(sid) = table.lookup_class(Symbol::intern("String")) {
        for m in methods {
            if m.name.as_str() == "toString" && matches!(m.owner, MethodOwner::Prim(_)) {
                m.ret = Type::Class {
                    id: sid,
                    args: vec![],
                    models: vec![],
                };
            }
        }
    }
}

/// Looks up methods and patches primitive `toString` signatures.
pub fn lookup_methods_patched(table: &Table, recv_ty: &Type, name: Symbol) -> Vec<FoundMethod> {
    let mut ms = lookup_methods(table, recv_ty, name);
    patch_prim_string(table, &mut ms);
    ms
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prim_method_sets() {
        let ints = prim_methods(PrimTy::Int);
        assert!(ints.iter().any(|m| m.name.as_str() == "compareTo"));
        assert!(ints
            .iter()
            .any(|m| m.name.as_str() == "zero" && m.is_static));
        let bools = prim_methods(PrimTy::Boolean);
        assert!(bools.iter().all(|m| m.name.as_str() != "plus"));
        assert!(bools.iter().any(|m| m.name.as_str() == "equals"));
    }

    #[test]
    fn lookup_on_prim() {
        let table = Table::new();
        let ms = lookup_methods(&table, &Type::Prim(PrimTy::Double), Symbol::intern("plus"));
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].params, vec![Type::Prim(PrimTy::Double)]);
    }
}
