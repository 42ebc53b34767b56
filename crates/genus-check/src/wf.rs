//! Class-hierarchy well-formedness: override compatibility and interface
//! implementation checks.
//!
//! Dispatch is by `(name, arity)`, so an override must accept exactly the
//! parameter types of the overridden method (at the subclass's
//! instantiation) and return a subtype. A concrete class must implement
//! every method of every interface it transitively implements. A class
//! extends a class and implements interfaces, and an interface extends
//! interfaces, so a class's subtypes are exactly the classes whose
//! superclass chain reaches it.

use crate::methods::lookup_methods_patched;
use genus_common::Diagnostics;
use genus_types::subtype::{direct_supertypes, type_eq};
use genus_types::{is_subtype, ClassDef, ClassId, MethodDef, Model, Subst, Table, Type};

/// Runs hierarchy checks over every class from index `from` on (a class's
/// checks read only its own supertypes, so earlier classes keep their
/// verdicts when classes are appended).
///
/// A class's supertypes are listed only when a check reads them: when it
/// declares an instance method, or when it is concrete and inherits a
/// method it must implement. So a long chain of classes without such
/// methods is checked in linear time.
pub fn check_hierarchy(table: &Table, diags: &mut Diagnostics, from: usize) {
    let obliged = inherits_obligations(table);
    for (ci, &obliged) in obliged.iter().enumerate().skip(from) {
        let cid = ClassId(ci as u32);
        check_parent_kinds(table, cid, diags);
        let def = table.class(cid);
        let overrides = def.methods.iter().any(|m| !m.is_static);
        let implements = !def.is_interface && !def.is_abstract && obliged;
        if !overrides && !implements {
            continue;
        }
        let supers = supertypes(table, &self_type(table, cid));
        if overrides {
            check_overrides(table, cid, &supers, diags);
        }
        if implements {
            check_implements(table, cid, &supers, diags);
        }
    }
}

/// Whether a supertype's method `m` must be implemented by a concrete
/// subclass.
fn needs_impl(sup: &ClassDef, m: &MethodDef) -> bool {
    (sup.is_interface || m.is_abstract) && m.body.is_none() && !m.is_native && !m.is_static
}

/// For every class, whether some strict supertype declares a method the
/// class must implement (when concrete). Memoized bottom-up on an
/// explicit stack; collection has cut every inheritance cycle (`E0217`),
/// so the walk ends.
fn inherits_obligations(table: &Table) -> Vec<bool> {
    let parents = |c: usize| {
        let def = &table.classes[c];
        def.extends
            .iter()
            .chain(&def.implements)
            .filter_map(|t| match t {
                Type::Class { id, .. } => Some(id.0 as usize),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let declares = |c: usize| {
        let def = &table.classes[c];
        def.methods.iter().any(|m| needs_impl(def, m))
    };
    let mut memo: Vec<Option<bool>> = vec![None; table.classes.len()];
    for root in 0..memo.len() {
        let mut stack = vec![root];
        while let Some(&c) = stack.last() {
            let ps = parents(c);
            if let Some(&p) = ps.iter().find(|&&p| memo[p].is_none()) {
                stack.push(p);
                continue;
            }
            memo[c] = Some(ps.iter().any(|&p| declares(p) || memo[p] == Some(true)));
            stack.pop();
        }
    }
    memo.into_iter().map(|o| o == Some(true)).collect()
}

/// Checks that `extends` names a class and `implements` (an interface's
/// `extends`) names interfaces.
fn check_parent_kinds(table: &Table, cid: ClassId, diags: &mut Diagnostics) {
    let def = table.class(cid);
    let is_iface = |t: &Type| match t {
        Type::Class { id, .. } => Some(table.class(*id).is_interface),
        _ => None,
    };
    let bad_extends = def.extends.as_ref().filter(|t| is_iface(t) != Some(false));
    let bad_implements = def.implements.iter().find(|t| is_iface(t) != Some(true));
    if let Some(t) = bad_extends {
        diags.error(
            "E0305",
            def.span,
            format!(
                "class `{}` extends `{}`, which is not a class",
                def.name,
                t.display(table)
            ),
        );
    }
    if let Some(t) = bad_implements {
        let verb = if def.is_interface {
            "extends"
        } else {
            "implements"
        };
        diags.error(
            "E0305",
            def.span,
            format!(
                "`{}` {verb} `{}`, which is not an interface",
                def.name,
                t.display(table)
            ),
        );
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

/// Every supertype of a class instantiation (transitive, substituted),
/// each after its own supertypes, without repeats. Walked on an explicit
/// stack, so a chain of any length needs constant host stack.
fn supertypes(table: &Table, ty: &Type) -> Vec<Type> {
    // The direct supertypes of a class type, last first; no others are
    // walked.
    let parents = |t: &Type| {
        let mut ps = match t {
            Type::Class { .. } => direct_supertypes(table, t),
            _ => Vec::new(),
        };
        ps.reverse();
        ps
    };
    let mut out: Vec<Type> = Vec::new();
    // One frame per type being walked: its supertypes still to visit, and
    // the type itself, listed once they are (none for `ty`).
    let mut stack = vec![(parents(ty), None)];
    while let Some((pending, _)) = stack.last_mut() {
        match pending.pop() {
            Some(t) => {
                if !out.iter().any(|o| type_eq(table, o, &t)) {
                    stack.push((parents(&t), Some(t)));
                }
            }
            None => out.extend(stack.pop().and_then(|(_, t)| t)),
        }
    }
    out
}

/// Checks that each method of `cid` is signature-compatible with any
/// same-name/same-arity method in a supertype.
fn check_overrides(table: &Table, cid: ClassId, supers: &[Type], diags: &mut Diagnostics) {
    let def = table.class(cid);
    for m in &def.methods {
        if m.is_static {
            continue;
        }
        for sup in supers {
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
fn check_implements(table: &Table, cid: ClassId, supers: &[Type], diags: &mut Diagnostics) {
    let def = table.class(cid);
    let self_ty = self_type(table, cid);
    for sup in supers {
        let Type::Class { id: sid, .. } = sup else {
            continue;
        };
        let sdef = table.class(*sid);
        for m in &sdef.methods {
            if !needs_impl(sdef, m) {
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
