//! Closedness tests and static-term reconstruction for the specializer.
//!
//! A `Type`/`Model` term is *closed* when it contains no free type or
//! model variables anywhere — including models nested inside class types
//! and the arguments of natural-model constraint instantiations. Closed
//! terms evaluate to the same reification under every environment, which
//! is what lets the optimizer evaluate them once at compile time.
//!
//! (`genus_types::Model::free_mvs` is not reusable here: it ignores
//! models nested inside a natural model's instantiation argument types,
//! which is fine for its resolution use-site but would let the optimizer
//! misclassify an open term as closed.)

use genus_interp::{ModelValue, RtType};
use genus_types::{ConstraintInst, Model, MvId, TvId, Type};

/// Whether `t` contains no free type/model variables.
pub fn ty_closed(t: &Type) -> bool {
    closed_ty(t, &mut Vec::new(), &mut Vec::new())
}

/// Whether `m` contains no free type/model variables.
pub fn model_closed(m: &Model) -> bool {
    closed_model(m, &mut Vec::new(), &mut Vec::new())
}

fn closed_ty(t: &Type, tvs: &mut Vec<TvId>, mvs: &mut Vec<MvId>) -> bool {
    match t {
        // `Infer` never survives checking; it evaluates deterministically
        // (to the null reification) if it somehow did.
        Type::Prim(_) | Type::Null | Type::Infer(_) => true,
        Type::Var(v) => tvs.contains(v),
        Type::Array(e) => closed_ty(e, tvs, mvs),
        Type::Class { args, models, .. } => {
            args.iter().all(|a| closed_ty(a, tvs, mvs))
                && models.iter().all(|m| closed_model(m, tvs, mvs))
        }
        Type::Existential {
            params,
            bounds,
            wheres,
            body,
        } => {
            let (nt, nm) = (tvs.len(), mvs.len());
            tvs.extend_from_slice(params);
            mvs.extend(wheres.iter().map(|w| w.mv));
            let ok = bounds.iter().flatten().all(|b| closed_ty(b, tvs, mvs))
                && wheres
                    .iter()
                    .all(|w| w.inst.args.iter().all(|a| closed_ty(a, tvs, mvs)))
                && closed_ty(body, tvs, mvs);
            tvs.truncate(nt);
            mvs.truncate(nm);
            ok
        }
    }
}

fn closed_model(m: &Model, tvs: &mut Vec<TvId>, mvs: &mut Vec<MvId>) -> bool {
    match m {
        Model::Infer(_) => true,
        Model::Var(v) => mvs.contains(v),
        Model::Natural { inst } => inst.args.iter().all(|a| closed_ty(a, tvs, mvs)),
        Model::Decl {
            type_args,
            model_args,
            ..
        } => {
            type_args.iter().all(|a| closed_ty(a, tvs, mvs))
                && model_args.iter().all(|m| closed_model(m, tvs, mvs))
        }
    }
}

/// Whether an existential quantifier occurs anywhere in `t`. Existential
/// targets have their own `instanceof`/`cast` semantics (matching against
/// `Packed` witnesses), so pre-reification must skip them.
pub fn contains_existential(t: &Type) -> bool {
    match t {
        Type::Prim(_) | Type::Null | Type::Var(_) | Type::Infer(_) => false,
        Type::Array(e) => contains_existential(e),
        Type::Class { args, models, .. } => {
            args.iter().any(contains_existential) || models.iter().any(model_contains_existential)
        }
        Type::Existential { .. } => true,
    }
}

fn model_contains_existential(m: &Model) -> bool {
    match m {
        Model::Var(_) | Model::Infer(_) => false,
        Model::Natural { inst } => inst.args.iter().any(contains_existential),
        Model::Decl {
            type_args,
            model_args,
            ..
        } => {
            type_args.iter().any(contains_existential)
                || model_args.iter().any(model_contains_existential)
        }
    }
}

/// Whether `t` is a ground term: no type/model variables, no inference
/// leftovers, no existentials. A ground receiver type reifies to exactly
/// the runtime type every value reaching the site has at that class
/// (invariant reified generics), which is what class-hierarchy analysis
/// binds its clone under.
pub fn ty_ground(t: &Type) -> bool {
    match t {
        Type::Prim(_) | Type::Null => true,
        Type::Var(_) | Type::Infer(_) | Type::Existential { .. } => false,
        Type::Array(e) => ty_ground(e),
        Type::Class { args, models, .. } => {
            args.iter().all(ty_ground) && models.iter().all(model_ground)
        }
    }
}

fn model_ground(m: &Model) -> bool {
    match m {
        Model::Var(_) | Model::Infer(_) => false,
        Model::Natural { inst } => inst.args.iter().all(ty_ground),
        Model::Decl {
            type_args,
            model_args,
            ..
        } => type_args.iter().all(ty_ground) && model_args.iter().all(model_ground),
    }
}

/// Reconstructs the closed static `Type` whose reification is `t` — the
/// inverse of `rtti::eval_type` on closed terms. Used to turn a dispatch
/// candidate's runtime environment back into a substitution for cloning.
pub fn rt_to_type(t: &RtType) -> Type {
    match t {
        RtType::Prim(p) => Type::Prim(*p),
        RtType::Null => Type::Null,
        RtType::Array(e) => Type::Array(Box::new(rt_to_type(e))),
        RtType::Class { id, args, models } => Type::Class {
            id: *id,
            args: args.iter().map(rt_to_type).collect(),
            models: models.iter().map(mv_to_model).collect(),
        },
    }
}

/// Reconstructs the closed static `Model` whose reification is `m`.
pub fn mv_to_model(m: &ModelValue) -> Model {
    match m {
        ModelValue::Natural { constraint, args } => Model::Natural {
            inst: ConstraintInst {
                id: *constraint,
                args: args.iter().map(rt_to_type).collect(),
            },
        },
        ModelValue::Decl { id, targs, margs } => Model::Decl {
            id: *id,
            type_args: targs.iter().map(rt_to_type).collect(),
            model_args: margs.iter().map(mv_to_model).collect(),
        },
    }
}
