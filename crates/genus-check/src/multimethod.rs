//! Model–constraint conformance and multimethod checking (§5.1).
//!
//! A model's methods are multimethods: definitions may specialize the
//! receiver and argument types to subclasses of the constrained types, and
//! dispatch picks the dynamically most specific definition. Following
//! Relaxed MultiJava, we check at "load time" (end of checking, whole
//! program in view) that every potential invocation has a unique best
//! definition, so enrichments from separate declarations cannot introduce
//! ambient ambiguity.

use genus_common::Diagnostics;
use genus_types::{
    is_subtype, subtype::type_eq, ConstraintInst, Model, ModelId, ModelMethod, Subst, Table, Type,
};
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// All method definitions visible in a model: its own plus those inherited
/// through `extends` (§5.3), with inherited ones substituted. Own methods
/// shadow inherited ones with identical dispatch tuples.
pub fn visible_methods(table: &Table, mid: ModelId) -> Vec<ModelMethod> {
    VisibleMethods::default().get(table, mid).to_vec()
}

/// [`visible_methods`] of every model a pass asks about, each list built
/// once from its parents' lists, so a pass over a chain of any length
/// does work linear in the lists it builds instead of re-walking every
/// model's whole `extends` chain.
#[derive(Default)]
pub(crate) struct VisibleMethods {
    lists: HashMap<ModelId, Rc<[ModelMethod]>>,
}

impl VisibleMethods {
    /// The methods visible in `mid`: its own, then each parent's list in
    /// declaration order under the parent's arguments (a depth-first walk
    /// of the `extends` graph), each kept unless an earlier definition
    /// has the same dispatch tuple. Parents are built first, on an
    /// explicit stack, so a chain of any length needs constant host
    /// stack. Collection cut every `extends` cycle (E0217); a parent
    /// still being built is skipped should one survive.
    pub(crate) fn get(&mut self, table: &Table, mid: ModelId) -> Rc<[ModelMethod]> {
        let mut building = HashSet::new();
        let mut stack = vec![(mid, false)];
        while let Some((m, parents_done)) = stack.pop() {
            if self.lists.contains_key(&m) {
                continue;
            }
            if parents_done {
                let list = self.build(table, m);
                self.lists.insert(m, list);
                continue;
            }
            if !building.insert(m) {
                continue;
            }
            stack.push((m, true));
            for (pid, _, _) in parents(table, m) {
                if !self.lists.contains_key(&pid) && !building.contains(&pid) {
                    stack.push((pid, false));
                }
            }
        }
        Rc::clone(&self.lists[&mid])
    }

    /// `mid`'s list from its own methods and its parents' built lists.
    fn build(&self, table: &Table, mid: ModelId) -> Rc<[ModelMethod]> {
        let mut out: Vec<ModelMethod> = Vec::new();
        let mut push = |inst: ModelMethod| {
            let shadowed = out.iter().any(|e| {
                e.name == inst.name
                    && e.is_static == inst.is_static
                    && e.params.len() == inst.params.len()
                    && type_eq(table, &e.receiver, &inst.receiver)
                    && e.params
                        .iter()
                        .zip(&inst.params)
                        .all(|((_, a), (_, b))| type_eq(table, a, b))
            });
            if !shadowed {
                out.push(inst);
            }
        };
        for m in &table.model(mid).methods {
            push(m.clone());
        }
        for (pid, targs, margs) in parents(table, mid) {
            let Some(inherited) = self.lists.get(&pid) else {
                continue;
            };
            let pdef = table.model(pid);
            let mvs: Vec<_> = pdef.wheres.iter().map(|w| w.mv).collect();
            let subst = Subst::from_pairs(&pdef.tparams, targs).with_models(&mvs, margs);
            for m in inherited.iter() {
                push(ModelMethod {
                    name: m.name,
                    is_static: m.is_static,
                    receiver: subst.apply(&m.receiver),
                    params: m.params.iter().map(|(n, t)| (*n, subst.apply(t))).collect(),
                    ret: subst.apply(&m.ret),
                    body: m.body.clone(),
                    from_enrich: m.from_enrich,
                    span: m.span,
                });
            }
        }
        out.into()
    }
}

/// The models `mid` extends, in declaration order, with the type and
/// model arguments it gives each.
fn parents(table: &Table, mid: ModelId) -> impl Iterator<Item = (ModelId, &[Type], &[Model])> {
    table
        .model(mid)
        .extends
        .iter()
        .filter_map(|parent| match parent {
            Model::Decl {
                id,
                type_args,
                model_args,
            } => Some((*id, type_args.as_slice(), model_args.as_slice())),
            _ => None,
        })
}

/// Checks that model `mid` witnesses its declared constraint: every
/// operation of the constraint (and of its prerequisites) has an applicable
/// definition covering the constrained types, with a conformant signature.
pub(crate) fn check_model_conformance(
    table: &Table,
    visible: &mut VisibleMethods,
    mid: ModelId,
    diags: &mut Diagnostics,
) {
    let def = table.model(mid);
    let methods = visible.get(table, mid);
    for inst in crate::entail::prereq_closure(table, &def.for_inst).iter() {
        check_ops_covered(
            table,
            inst,
            &methods,
            def.span,
            diags,
            &def.name.to_string(),
        );
    }
    check_unique_best(table, &methods, diags);
}

fn check_ops_covered(
    table: &Table,
    inst: &ConstraintInst,
    methods: &[ModelMethod],
    span: genus_common::Span,
    diags: &mut Diagnostics,
    model_name: &str,
) {
    let cdef = table.constraint(inst.id);
    if cdef.params.len() != inst.args.len() {
        return;
    }
    let subst = Subst::from_pairs(&cdef.params, &inst.args);
    for op in &cdef.ops {
        let required_recv = subst.apply(&Type::Var(op.receiver));
        let required_params: Vec<Type> = op.params.iter().map(|(_, t)| subst.apply(t)).collect();
        let required_ret = subst.apply(&op.ret);
        let covered =
            methods.iter().any(|m| {
                m.name == op.name
                    && m.is_static == op.is_static
                    && m.params.len() == required_params.len()
                    && is_subtype(table, &required_recv, &m.receiver)
                    && required_params
                        .iter()
                        .zip(&m.params)
                        .all(|(req, (_, decl))| is_subtype(table, req, decl))
                    && (is_subtype(table, &m.ret, &required_ret) || required_ret.is_void())
            }) || natural_covers(table, &required_recv, op, &required_params, &required_ret);
        if !covered {
            diags.error(
                "E0601",
                span,
                format!(
                    "model `{model_name}` does not witness `{}`: operation `{}` is not covered",
                    inst.display(table),
                    op.name
                ),
            );
        }
    }
}

/// A model may leave an operation to the underlying type when the type
/// itself conforms for that operation (e.g. `CICmp` could rely on `String`'s
/// own `equals` if it did not inherit `CIEq`) — the paper's models always
/// define or inherit everything, but prerequisite coverage through the
/// underlying type keeps single-op models convenient.
fn natural_covers(
    table: &Table,
    recv: &Type,
    op: &genus_types::ConstraintOp,
    required_params: &[Type],
    required_ret: &Type,
) -> bool {
    let candidates = crate::methods::lookup_methods_patched(table, recv, op.name);
    candidates.iter().any(|m| {
        crate::natural::signature_conforms(table, m, op.is_static, required_params, required_ret)
    })
}

/// The Relaxed-MultiJava-style check: for every pair of definitions of the
/// same operation whose dispatch tuples can overlap, either one dominates
/// the other or some third definition covers the overlap exactly.
pub fn check_unique_best(table: &Table, methods: &[ModelMethod], diags: &mut Diagnostics) {
    for (i, a) in methods.iter().enumerate() {
        for b in &methods[i + 1..] {
            if a.name != b.name || a.is_static != b.is_static || a.params.len() != b.params.len() {
                continue;
            }
            let ta = tuple(a);
            let tb = tuple(b);
            if !tuples_overlap(table, &ta, &tb) {
                continue;
            }
            if dominates(table, &ta, &tb) || dominates(table, &tb, &ta) {
                continue;
            }
            // Ambiguous overlap: look for an exact glb definition.
            let glb: Option<Vec<Type>> = ta
                .iter()
                .zip(&tb)
                .map(|(x, y)| {
                    if is_subtype(table, x, y) {
                        Some(x.clone())
                    } else if is_subtype(table, y, x) {
                        Some(y.clone())
                    } else {
                        None
                    }
                })
                .collect();
            let resolved = glb.is_some_and(|g| {
                methods.iter().any(|c| {
                    c.name == a.name
                        && c.params.len() == a.params.len()
                        && tuple(c).iter().zip(&g).all(|(x, y)| type_eq(table, x, y))
                })
            });
            if !resolved {
                diags.error(
                    "E0602",
                    b.span,
                    format!(
                        "ambiguous multimethod: `{}` definitions at overlapping argument types \
                         have no unique best definition",
                        b.name
                    ),
                );
            }
        }
    }
}

fn tuple(m: &ModelMethod) -> Vec<Type> {
    let mut v = vec![m.receiver.clone()];
    v.extend(m.params.iter().map(|(_, t)| t.clone()));
    v
}

fn tuples_overlap(table: &Table, a: &[Type], b: &[Type]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| is_subtype(table, x, y) || is_subtype(table, y, x))
}

fn dominates(table: &Table, a: &[Type], b: &[Type]) -> bool {
    a.iter().zip(b).all(|(x, y)| is_subtype(table, x, y))
}

/// Chooses the most specific applicable definition for a concrete dispatch
/// tuple; used by the checker for static sanity and mirrored by the
/// interpreter at run time.
pub fn best_method<'m>(
    table: &Table,
    methods: &'m [ModelMethod],
    name: genus_common::Symbol,
    is_static: bool,
    tuple_tys: &[Type],
) -> Option<&'m ModelMethod> {
    let applicable: Vec<&ModelMethod> = methods
        .iter()
        .filter(|m| {
            m.name == name
                && m.is_static == is_static
                && m.params.len() + 1 == tuple_tys.len()
                && tuple(m)
                    .iter()
                    .zip(tuple_tys)
                    .all(|(decl, actual)| is_subtype(table, actual, decl))
        })
        .collect();
    let mut best: Option<&ModelMethod> = None;
    for cand in applicable {
        match best {
            None => best = Some(cand),
            Some(cur) => {
                // Strict domination only: on ties the earlier candidate
                // wins, so own definitions shadow inherited ones (§5.3).
                if dominates(table, &tuple(cand), &tuple(cur))
                    && !dominates(table, &tuple(cur), &tuple(cand))
                {
                    best = Some(cand);
                }
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_source;
    use genus_common::Symbol;

    fn table_for(src: &str) -> Table {
        check_source(src).expect("program checks").table
    }

    #[test]
    fn visible_methods_include_inherited() {
        let table = table_for(
            "constraint Pair[T] { String first(); String second(); }
             class Duo { Duo() { } }
             model Base for Pair[Duo] {
               String first() { return \"f\"; }
               String second() { return \"s\"; }
             }
             model Child for Pair[Duo] extends Base {
               String second() { return \"S\"; }
             }
             void main() { }",
        );
        let child = table
            .lookup_model(Symbol::intern("Child"))
            .expect("Child exists");
        let ms = visible_methods(&table, child);
        // Child's own `second` shadows Base's; Base's `first` is inherited.
        assert_eq!(ms.len(), 2);
        assert!(ms.iter().any(|m| m.name.as_str() == "first"));
        assert!(ms.iter().any(|m| m.name.as_str() == "second"));
    }

    #[test]
    fn best_method_prefers_most_specific() {
        let table = table_for(
            "class A { A() { } }
             class B extends A { B() { } }
             constraint Touch[T] { T touch(T that); }
             model M for Touch[A] {
               A A.touch(A that) { return that; }
               A B.touch(B that) { return that; }
             }
             void main() { }",
        );
        let mid = table.lookup_model(Symbol::intern("M")).expect("M exists");
        let ms = visible_methods(&table, mid);
        let b = table.lookup_class(Symbol::intern("B")).expect("B exists");
        let b_ty = Type::Class {
            id: b,
            args: vec![],
            models: vec![],
        };
        let best = best_method(
            &table,
            &ms,
            Symbol::intern("touch"),
            false,
            &[b_ty.clone(), b_ty],
        )
        .expect("applicable");
        // The (B, B) definition dominates (A, A).
        match &best.receiver {
            Type::Class { id, .. } => assert_eq!(*id, b),
            other => panic!("unexpected receiver {other:?}"),
        }
    }

    #[test]
    fn best_method_tie_keeps_earliest() {
        let table = table_for(
            "class A { A() { } }
             constraint Touch[T] { T touch(T that); }
             model First for Touch[A] { A A.touch(A that) { return that; } }
             model Second for Touch[A] extends First { A A.touch(A that) { return this; } }
             void main() { }",
        );
        let second = table
            .lookup_model(Symbol::intern("Second"))
            .expect("Second");
        let ms = visible_methods(&table, second);
        // Own definition shadows the inherited equal-tuple one entirely.
        assert_eq!(ms.iter().filter(|m| m.name.as_str() == "touch").count(), 1);
    }
}
