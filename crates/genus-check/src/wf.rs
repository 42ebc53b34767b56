//! Class-hierarchy well-formedness: override compatibility and interface
//! implementation checks.
//!
//! Dispatch is by `(name, arity)`, so an override must accept exactly the
//! parameter types of the overridden method (at the subclass's
//! instantiation) and return a subtype. A concrete class must implement
//! every method of every interface it transitively implements.

use crate::methods::lookup_methods_patched;
use genus_common::Diagnostics;
use genus_types::{is_subtype, subtype::type_eq, ClassId, Model, Subst, Table, Type};

/// Runs hierarchy checks over every class from index `from` on (a class's
/// checks read only its own supertypes, so earlier classes keep their
/// verdicts when classes are appended).
pub fn check_hierarchy(table: &Table, diags: &mut Diagnostics, from: usize) {
    for ci in from..table.classes.len() {
        let cid = ClassId(ci as u32);
        check_overrides(table, cid, diags);
        if !table.class(cid).is_interface && !table.class(cid).is_abstract {
            check_implements(table, cid, diags);
        }
    }
}

fn self_type(table: &Table, cid: ClassId) -> Type {
    let def = table.class(cid);
    Type::Class {
        id: cid,
        args: def.params.iter().map(|t| Type::Var(*t)).collect(),
        models: def.wheres.iter().map(|w| Model::Var(w.mv)).collect(),
    }
}

/// Every supertype of a class instantiation (transitive, substituted).
fn supertypes(table: &Table, ty: &Type, out: &mut Vec<Type>) {
    let Type::Class { id, args, models } = ty else {
        return;
    };
    let def = table.class(*id);
    let subst = Subst::from_pairs(&def.params, args)
        .with_models(&def.wheres.iter().map(|w| w.mv).collect::<Vec<_>>(), models);
    let push = |t: Type, out: &mut Vec<Type>| {
        if !out.iter().any(|o| type_eq(table, o, &t)) {
            supertypes(table, &t, out);
            out.push(t);
        }
    };
    if let Some(e) = &def.extends {
        push(subst.apply(e), out);
    }
    for i in &def.implements {
        push(subst.apply(i), out);
    }
}

/// Checks that each method of `cid` is signature-compatible with any
/// same-name/same-arity method in a supertype.
fn check_overrides(table: &Table, cid: ClassId, diags: &mut Diagnostics) {
    let def = table.class(cid);
    let self_ty = self_type(table, cid);
    let mut supers = Vec::new();
    supertypes(table, &self_ty, &mut supers);
    for m in &def.methods {
        if m.is_static {
            continue;
        }
        for sup in &supers {
            for fm in lookup_methods_patched(table, sup, m.name) {
                if fm.is_static || fm.params.len() != m.params.len() {
                    continue;
                }
                // Method-level generics: require matching shape, then
                // identify the type parameters positionally.
                if fm.tparams.len() != m.tparams.len() || fm.wheres.len() != m.wheres.len() {
                    diags.error(
                        "E0301",
                        m.span,
                        format!(
                            "method `{}` overrides a method with a different generic signature",
                            m.name
                        ),
                    );
                    continue;
                }
                let tsubst = Subst::from_pairs(
                    &fm.tparams,
                    &m.tparams.iter().map(|t| Type::Var(*t)).collect::<Vec<_>>(),
                )
                .with_models(
                    &fm.wheres.iter().map(|w| w.mv).collect::<Vec<_>>(),
                    &m.wheres
                        .iter()
                        .map(|w| Model::Var(w.mv))
                        .collect::<Vec<_>>(),
                );
                let params_ok = m
                    .params
                    .iter()
                    .zip(&fm.params)
                    .all(|((_, a), b)| type_eq(table, a, &tsubst.apply(b)));
                if !params_ok {
                    diags.error(
                        "E0302",
                        m.span,
                        format!(
                            "method `{}` does not override compatibly: parameter types must \
                             match the supertype declaration (dispatch is by name and arity)",
                            m.name
                        ),
                    );
                    continue;
                }
                let ret_ok = is_subtype(table, &m.ret, &tsubst.apply(&fm.ret))
                    || (m.ret.is_void() && fm.ret.is_void());
                if !ret_ok {
                    diags.error(
                        "E0303",
                        m.span,
                        format!(
                            "method `{}` overrides with an incompatible return type",
                            m.name
                        ),
                    );
                }
            }
        }
    }
}

/// Checks that a concrete class provides an implementation for every
/// interface method it inherits.
fn check_implements(table: &Table, cid: ClassId, diags: &mut Diagnostics) {
    let def = table.class(cid);
    let self_ty = self_type(table, cid);
    let mut supers = Vec::new();
    supertypes(table, &self_ty, &mut supers);
    for sup in &supers {
        let Type::Class { id: sid, .. } = sup else {
            continue;
        };
        let sdef = table.class(*sid);
        for m in &sdef.methods {
            let needs_impl = (sdef.is_interface || m.is_abstract)
                && m.body.is_none()
                && !m.is_native
                && !m.is_static;
            if !needs_impl {
                continue;
            }
            let impls = lookup_methods_patched(table, &self_ty, m.name);
            let provided = impls.iter().any(|fm| {
                !fm.is_static
                    && fm.params.len() == m.params.len()
                    && match fm.owner {
                        crate::methods::MethodOwner::Class(icid, imi) => {
                            let im = &table.class(icid).methods[imi];
                            im.body.is_some() || im.is_native
                        }
                        crate::methods::MethodOwner::Prim(_) => true,
                    }
            });
            if !provided {
                diags.error(
                    "E0304",
                    def.span,
                    format!(
                        "class `{}` does not implement `{}`/{} required by `{}`",
                        def.name,
                        m.name,
                        m.params.len(),
                        sdef.name
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::check_source;

    #[test]
    fn missing_interface_method_rejected() {
        let e = check_source(
            "interface Runner { void go(); }
             class Slacker implements Runner { Slacker() { } }
             void main() { }",
        )
        .unwrap_err();
        assert!(e.contains("does not implement"), "{e}");
    }

    #[test]
    fn abstract_class_may_defer_implementation() {
        let r = check_source(
            "interface Runner { void go(); }
             abstract class Base implements Runner { }
             class Worker extends Base {
               Worker() { }
               void go() { }
             }
             void main() { }",
        );
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn incompatible_override_param_rejected() {
        let e = check_source(
            "class A {
               A() { }
               void m(int x) { }
             }
             class B extends A {
               B() { }
               void m(String x) { }
             }
             void main() { }",
        )
        .unwrap_err();
        assert!(e.contains("does not override compatibly"), "{e}");
    }

    #[test]
    fn incompatible_override_return_rejected() {
        let e = check_source(
            "class A {
               A() { }
               int m() { return 1; }
             }
             class B extends A {
               B() { }
               String m() { return \"x\"; }
             }
             void main() { }",
        )
        .unwrap_err();
        assert!(e.contains("incompatible return type"), "{e}");
    }

    #[test]
    fn covariant_return_override_allowed() {
        let r = check_source(
            "class A {
               A() { }
               A self() { return this; }
             }
             class B extends A {
               B() { }
               B self() { return this; }
             }
             void main() { }",
        );
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn generic_interface_implementation_checked_at_instantiation() {
        let e = check_source(
            "interface Pipe[T] { T pass(T x); }
             class IntPipe implements Pipe[int] {
               IntPipe() { }
               int pass(String x) { return 0; }
             }
             void main() { }",
        )
        .unwrap_err();
        // `pass(String)` neither overrides `pass(int)` compatibly nor
        // implements it.
        assert!(
            e.contains("does not implement") || e.contains("does not override compatibly"),
            "{e}"
        );
    }
}
