//! Nominal subtyping over semantic types.
//!
//! Genus subtyping is deliberately simple (§6.1 separates subtyping from
//! coercion): generic classes are invariant in both their type arguments and
//! their models — `Set[String with CIEq]` is unrelated to `Set[String]` —
//! and existential packing is a coercion, not a subtyping step.

use crate::subst::Subst;
use crate::table::Table;
use crate::ty::{Model, TvId, Type};
use genus_common::Symbol;

/// Whether `sub` is a subtype of `sup`.
pub fn is_subtype(table: &Table, sub: &Type, sup: &Type) -> bool {
    if let Some(r) = shortcut(table, sub, sup) {
        return r;
    }
    let r = subtype_walk(table, sub, sup);
    table.cache.subtype_put(sub, sup, r);
    r
}

/// The part of [`is_subtype`] that needs no walk up the hierarchy: the
/// fast paths, then the cache. `None` means the hierarchy must decide.
fn shortcut(table: &Table, sub: &Type, sup: &Type) -> Option<bool> {
    if type_eq(table, sub, sup) {
        return Some(true);
    }
    // null <: every reference type.
    if matches!(sub, Type::Null) && sup.is_reference() {
        return Some(true);
    }
    // Every reference type (and type variables, which range over any type
    // but are only subtypes of Object when used as references) <: Object.
    if let Some(obj) = object_class(table) {
        if let Type::Class { id, args, .. } = sup {
            if *id == obj && args.is_empty() && sub.is_reference() {
                return Some(true);
            }
        }
    }
    // Only the hierarchy-walking cases below are worth memoizing; the
    // fast paths above already handled everything else.
    if !matches!(sub, Type::Class { .. } | Type::Var(_)) {
        return Some(false);
    }
    table.cache.subtype_get(sub, sup)
}

/// The direct supertypes of `ty`, in declaration order: a class's
/// `extends` then its `implements`, substituted at its arguments, or a
/// type variable's bound.
pub fn direct_supertypes(table: &Table, ty: &Type) -> Vec<Type> {
    match ty {
        Type::Class { id, args, models } => {
            let def = table.class(*id);
            let subst = Subst::from_pairs(&def.params, args)
                .with_models(&def.wheres.iter().map(|w| w.mv).collect::<Vec<_>>(), models);
            def.extends
                .iter()
                .chain(&def.implements)
                .map(|t| subst.apply(t))
                .collect()
        }
        Type::Var(v) => table.tv_bound(*v).cloned().into_iter().collect(),
        _ => Vec::new(),
    }
}

/// The uncached hierarchy walk backing [`is_subtype`]. It keeps its own
/// stack rather than the host's, so a hierarchy of any depth is walked in
/// constant host stack. It visits and memoizes what recursing through
/// [`is_subtype`] would: each direct supertype is tried by the fast paths
/// and the cache first, and each one whose own supertypes had to be
/// walked gets its own cache entry.
fn subtype_walk(table: &Table, sub: &Type, sup: &Type) -> bool {
    // One frame per type being walked: the type, and its direct
    // supertypes still to try, last first.
    let frame = |t: Type| {
        let mut pending = direct_supertypes(table, &t);
        pending.reverse();
        (t, pending)
    };
    let mut stack = vec![frame(sub.clone())];
    // The verdict of the frame popped last, for the frame below it.
    let mut popped = None;
    loop {
        let (_, pending) = stack.last_mut().expect("the root frame is popped last");
        let verdict = if popped.take() == Some(true) {
            Some(true)
        } else {
            match pending.pop() {
                None => Some(false),
                Some(t) => match shortcut(table, &t, sup) {
                    Some(true) => Some(true),
                    Some(false) => None,
                    None => {
                        stack.push(frame(t));
                        None
                    }
                },
            }
        };
        if let Some(v) = verdict {
            let (t, _) = stack.pop().expect("a frame decided");
            if stack.is_empty() {
                return v;
            }
            table.cache.subtype_put(&t, sup, v);
            popped = Some(v);
        }
    }
}

/// Structural equality of types, with alpha-equivalence for existentials.
pub fn type_eq(table: &Table, a: &Type, b: &Type) -> bool {
    alpha_eq(table, a, b, &mut Vec::new())
}

fn alpha_eq(table: &Table, a: &Type, b: &Type, map: &mut Vec<(TvId, TvId)>) -> bool {
    match (a, b) {
        (Type::Prim(x), Type::Prim(y)) => x == y,
        (Type::Null, Type::Null) => true,
        (Type::Infer(x), Type::Infer(y)) => x == y,
        (Type::Var(x), Type::Var(y)) => {
            for (l, r) in map.iter().rev() {
                if l == x || r == y {
                    return l == x && r == y;
                }
            }
            x == y
        }
        (Type::Array(x), Type::Array(y)) => alpha_eq(table, x, y, map),
        (
            Type::Class {
                id: i1,
                args: a1,
                models: m1,
            },
            Type::Class {
                id: i2,
                args: a2,
                models: m2,
            },
        ) => {
            i1 == i2
                && a1.len() == a2.len()
                && m1.len() == m2.len()
                && a1.iter().zip(a2).all(|(x, y)| alpha_eq(table, x, y, map))
                && m1
                    .iter()
                    .zip(m2)
                    .all(|(x, y)| model_alpha_eq(table, x, y, map))
        }
        (
            Type::Existential {
                params: p1,
                bounds: bo1,
                wheres: w1,
                body: b1,
            },
            Type::Existential {
                params: p2,
                bounds: bo2,
                wheres: w2,
                body: b2,
            },
        ) => {
            if p1.len() != p2.len() || w1.len() != w2.len() || bo1.len() != bo2.len() {
                return false;
            }
            let depth = map.len();
            for (x, y) in p1.iter().zip(p2) {
                map.push((*x, *y));
            }
            let bounds_ok = bo1.iter().zip(bo2).all(|(x, y)| match (x, y) {
                (None, None) => true,
                (Some(bx), Some(by)) => {
                    let mut m2 = map.clone();
                    alpha_eq(table, bx, by, &mut m2)
                }
                _ => false,
            });
            let ok = bounds_ok
                && w1.iter().zip(w2).all(|(x, y)| {
                    x.inst.id == y.inst.id
                        && x.inst.args.len() == y.inst.args.len()
                        && x.inst
                            .args
                            .iter()
                            .zip(&y.inst.args)
                            .all(|(u, v)| alpha_eq(table, u, v, map))
                })
                && alpha_eq(table, b1, b2, map);
            map.truncate(depth);
            ok
        }
        _ => false,
    }
}

fn model_alpha_eq(table: &Table, a: &Model, b: &Model, map: &mut Vec<(TvId, TvId)>) -> bool {
    match (a, b) {
        (Model::Var(x), Model::Var(y)) => x == y,
        (Model::Infer(x), Model::Infer(y)) => x == y,
        (Model::Natural { inst: i1 }, Model::Natural { inst: i2 }) => {
            i1.id == i2.id
                && i1.args.len() == i2.args.len()
                && i1
                    .args
                    .iter()
                    .zip(&i2.args)
                    .all(|(x, y)| alpha_eq(table, x, y, map))
        }
        (
            Model::Decl {
                id: d1,
                type_args: t1,
                model_args: m1,
            },
            Model::Decl {
                id: d2,
                type_args: t2,
                model_args: m2,
            },
        ) => {
            d1 == d2
                && t1.len() == t2.len()
                && m1.len() == m2.len()
                && t1.iter().zip(t2).all(|(x, y)| alpha_eq(table, x, y, map))
                && m1
                    .iter()
                    .zip(m2)
                    .all(|(x, y)| model_alpha_eq(table, x, y, map))
        }
        _ => false,
    }
}

/// Structural equality of models.
pub fn model_eq(table: &Table, a: &Model, b: &Model) -> bool {
    model_alpha_eq(table, a, b, &mut Vec::new())
}

fn object_class(table: &Table) -> Option<crate::table::ClassId> {
    table.lookup_class(Symbol::intern("Object"))
}

/// Finds the instantiation of `sub` (a class type) viewed at ancestor class
/// `target`, if any: e.g. `ArrayList[String]` viewed at `List` is
/// `List[String]`. Used by call-site inference to lift argument types to
/// parameter classes before unification. Depth first, `extends` before
/// `implements`, on its own stack: a hierarchy of any depth is walked in
/// constant host stack.
pub fn supertype_at(table: &Table, sub: &Type, target: crate::table::ClassId) -> Option<Type> {
    let mut stack = vec![sub.clone()];
    while let Some(t) = stack.pop() {
        if matches!(t, Type::Class { id, .. } if id == target) {
            return Some(t);
        }
        stack.extend(direct_supertypes(table, &t).into_iter().rev());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{ClassDef, Table};
    use crate::ty::PrimTy;
    use genus_common::{Span, Symbol};

    fn simple_class(tb: &mut Table, name: &str, extends: Option<Type>) -> crate::table::ClassId {
        tb.add_class(ClassDef {
            name: Symbol::intern(name),
            is_interface: false,
            is_abstract: false,
            params: vec![],
            wheres: vec![],
            extends,
            implements: vec![],
            fields: vec![],
            ctors: vec![],
            methods: vec![],
            span: Span::dummy(),
        })
    }

    #[test]
    fn nominal_chain() {
        let mut tb = Table::new();
        let obj = simple_class(&mut tb, "Object", None);
        let obj_ty = Type::Class {
            id: obj,
            args: vec![],
            models: vec![],
        };
        let shape = simple_class(&mut tb, "Shape", Some(obj_ty.clone()));
        let shape_ty = Type::Class {
            id: shape,
            args: vec![],
            models: vec![],
        };
        let circle = simple_class(&mut tb, "Circle", Some(shape_ty.clone()));
        let circle_ty = Type::Class {
            id: circle,
            args: vec![],
            models: vec![],
        };

        assert!(is_subtype(&tb, &circle_ty, &shape_ty));
        assert!(is_subtype(&tb, &circle_ty, &obj_ty));
        assert!(!is_subtype(&tb, &shape_ty, &circle_ty));
        assert!(is_subtype(&tb, &Type::Null, &circle_ty));
        assert!(!is_subtype(&tb, &Type::Prim(PrimTy::Int), &obj_ty));
    }

    #[test]
    fn generics_are_invariant() {
        let mut tb = Table::new();
        let _obj = simple_class(&mut tb, "Object", None);
        let t = tb.fresh_tv(Symbol::intern("T"));
        let list = tb.add_class(ClassDef {
            name: Symbol::intern("List"),
            is_interface: true,
            is_abstract: false,
            params: vec![t],
            wheres: vec![],
            extends: None,
            implements: vec![],
            fields: vec![],
            ctors: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        let li = Type::Class {
            id: list,
            args: vec![Type::Prim(PrimTy::Int)],
            models: vec![],
        };
        let ld = Type::Class {
            id: list,
            args: vec![Type::Prim(PrimTy::Double)],
            models: vec![],
        };
        assert!(is_subtype(&tb, &li, &li));
        assert!(!is_subtype(&tb, &li, &ld));
    }

    #[test]
    fn existential_alpha_equivalence() {
        let mut tb = Table::new();
        let u = tb.fresh_tv(Symbol::intern("U"));
        let v = tb.fresh_tv(Symbol::intern("V"));
        let ex1 = Type::Existential {
            params: vec![u],
            bounds: vec![None],
            wheres: vec![],
            body: Box::new(Type::Var(u)),
        };
        let ex2 = Type::Existential {
            params: vec![v],
            bounds: vec![None],
            wheres: vec![],
            body: Box::new(Type::Var(v)),
        };
        assert!(type_eq(&tb, &ex1, &ex2));
        assert!(is_subtype(&tb, &ex1, &ex2));
    }

    #[test]
    fn supertype_at_walks_hierarchy() {
        let mut tb = Table::new();
        let obj = simple_class(&mut tb, "Object", None);
        let obj_ty = Type::Class {
            id: obj,
            args: vec![],
            models: vec![],
        };
        let e = tb.fresh_tv(Symbol::intern("E"));
        let list = tb.add_class(ClassDef {
            name: Symbol::intern("List"),
            is_interface: true,
            is_abstract: false,
            params: vec![e],
            wheres: vec![],
            extends: None,
            implements: vec![],
            fields: vec![],
            ctors: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        let e2 = tb.fresh_tv(Symbol::intern("E"));
        let list_of_e2 = Type::Class {
            id: list,
            args: vec![Type::Var(e2)],
            models: vec![],
        };
        let alist = tb.add_class(ClassDef {
            name: Symbol::intern("ArrayList"),
            is_interface: false,
            is_abstract: false,
            params: vec![e2],
            wheres: vec![],
            extends: Some(obj_ty),
            implements: vec![list_of_e2],
            fields: vec![],
            ctors: vec![],
            methods: vec![],
            span: Span::dummy(),
        });
        let al_int = Type::Class {
            id: alist,
            args: vec![Type::Prim(PrimTy::Int)],
            models: vec![],
        };
        let sup = supertype_at(&tb, &al_int, list).expect("should reach List");
        assert_eq!(
            sup,
            Type::Class {
                id: list,
                args: vec![Type::Prim(PrimTy::Int)],
                models: vec![]
            }
        );
        assert!(is_subtype(
            &tb,
            &al_int,
            &Type::Class {
                id: list,
                args: vec![Type::Prim(PrimTy::Int)],
                models: vec![]
            }
        ));
    }
}
