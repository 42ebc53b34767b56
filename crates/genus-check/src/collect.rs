//! Declaration collection: builds the semantic [`Table`] from parsed ASTs.
//!
//! Collection runs in phases:
//!
//! 1. **Registration** — every class/interface, constraint, and model gets an
//!    id so signatures can refer to each other freely.
//! 2. **Headers** — generic signatures, `extends`/`implements`, constraint
//!    operations, model headers, fields, and method signatures are resolved.
//!    Elided `with`-clause models in signature types are left empty here.
//! 3. **Variance** — per-parameter constraint variance is computed (§5.2).
//! 4. **Completion** — elided models in signature types are resolved with
//!    default model resolution against each declaration's own context
//!    (`genus-check::resolve`), run from [`crate::check_program`].

use genus_common::{Diagnostics, Span, Symbol};
use genus_syntax::ast;
use genus_types::{
    ClassDef, ClassId, ConstraintDef, ConstraintId, ConstraintInst, ConstraintOp, CtorDef,
    FieldDef, MethodDef, Model, ModelDef, ModelMethod, MvId, Table, TvId, Type, UseDef, WhereReq,
};
use std::collections::HashMap;

/// Lexical scope used while resolving types in signatures and bodies.
#[derive(Debug, Clone, Default)]
pub struct Scope {
    /// Type parameters in scope.
    pub tvs: HashMap<Symbol, TvId>,
    /// Named model variables in scope.
    pub mvs: HashMap<Symbol, MvId>,
}

impl Scope {
    /// Creates an empty scope.
    pub fn new() -> Self {
        Scope::default()
    }

    /// Child scope extended with additional type parameters.
    pub fn child(&self) -> Scope {
        self.clone()
    }
}

/// Resolves AST types/model expressions against a scope and the table.
pub struct Resolver<'a> {
    /// The (mutable — fresh variables) table.
    pub table: &'a mut Table,
    /// Diagnostics sink.
    pub diags: &'a mut Diagnostics,
}

impl<'a> Resolver<'a> {
    /// Resolves a surface type. Elided `with` models yield a `Class` type
    /// with an empty model list, completed later (or resolved in context by
    /// the body checker). Wildcard arguments desugar to existentials.
    pub fn resolve_ty(&mut self, scope: &Scope, t: &ast::Ty) -> Type {
        match &t.kind {
            ast::TyKind::Prim(p) => Type::Prim(*p),
            ast::TyKind::Array(e) => Type::Array(Box::new(self.resolve_ty(scope, e))),
            ast::TyKind::Wildcard { .. } => {
                self.diags
                    .error("E0210", t.span, "wildcard type not allowed here");
                Type::Null
            }
            ast::TyKind::Existential {
                params,
                wheres,
                body,
            } => {
                let mut inner = scope.child();
                let mut tvs = Vec::new();
                for p in params {
                    let tv = self.table.fresh_tv(p.name);
                    inner.tvs.insert(p.name, tv);
                    tvs.push(tv);
                }
                // Bounds may mention the binders themselves.
                let mut bounds = Vec::new();
                for p in params {
                    match &p.bound {
                        Some(b) => {
                            let bt = self.resolve_ty(&inner, b);
                            bounds.push(Some(bt));
                        }
                        None => bounds.push(None),
                    }
                }
                for (tv, b) in tvs.iter().zip(&bounds) {
                    self.table.set_tv_bound(*tv, b.clone());
                }
                let mut ws = Vec::new();
                for w in wheres {
                    if let Some(req) = self.resolve_where(&mut inner, w) {
                        ws.push(req);
                    }
                }
                let body_t = self.resolve_ty(&inner, body);
                Type::Existential {
                    params: tvs,
                    bounds,
                    wheres: ws,
                    body: Box::new(body_t),
                }
            }
            ast::TyKind::Named { name, args, models } => {
                // Type variable?
                if args.is_empty() && models.is_empty() {
                    if let Some(tv) = scope.tvs.get(name) {
                        return Type::Var(*tv);
                    }
                }
                let Some(cid) = self.table.lookup_class(*name) else {
                    // A single-parameter constraint used as a type is sugar
                    // for an existential (§6.1): `Printable` means
                    // `[some U where Printable[U]] U`.
                    if args.is_empty() && models.is_empty() {
                        if let Some(kid) = self.table.lookup_constraint(*name) {
                            if self.table.constraint(kid).params.len() == 1 {
                                return self.constraint_as_type(kid, t.span);
                            }
                        }
                    }
                    self.diags
                        .error("E0204", t.span, format!("unknown type `{name}`"));
                    return Type::Null;
                };
                let def_params = self.table.class(cid).params.clone();
                if args.len() != def_params.len() {
                    self.diags.error(
                        "E0208",
                        t.span,
                        format!(
                            "wrong number of type arguments for `{name}`: expected {}, found {}",
                            def_params.len(),
                            args.len()
                        ),
                    );
                    // Like an unknown type: a class term of the wrong
                    // arity would break every substitution downstream.
                    return Type::Null;
                }
                // Wildcard arguments lift the whole type to an existential.
                let mut ex_params: Vec<TvId> = Vec::new();
                let mut ex_bounds: Vec<Option<Type>> = Vec::new();
                let mut resolved_args = Vec::new();
                for a in args {
                    match &a.kind {
                        ast::TyKind::Wildcard { bound } => {
                            let tv = self.table.fresh_tv(Symbol::intern("?"));
                            let bt = bound.as_ref().map(|b| self.resolve_ty(scope, b));
                            self.table.set_tv_bound(tv, bt.clone());
                            ex_params.push(tv);
                            ex_bounds.push(bt);
                            resolved_args.push(Type::Var(tv));
                        }
                        _ => resolved_args.push(self.resolve_ty(scope, a)),
                    }
                }
                // Expected constraints for the with-clause models.
                let wheres = self.table.class(cid).wheres.clone();
                let subst = genus_types::Subst::from_pairs(
                    &def_params,
                    &pad_args(&resolved_args, def_params.len()),
                );
                let mut resolved_models = Vec::new();
                let mut ex_wheres: Vec<WhereReq> = Vec::new();
                // `TreeSet[?]` must quantify the witness too: when a
                // wildcard hole appears in a constrained class's arguments
                // and no models are given, the class's `where` witnesses
                // become existentially bound model holes —
                // `[some U where Comparable[U] m] TreeSet[U with m]`.
                if models.is_empty()
                    && !wheres.is_empty()
                    && !ex_params.is_empty()
                    && wheres.iter().any(|w| {
                        let inst = subst.apply_inst(&w.inst);
                        let mut tvs = Vec::new();
                        for a in &inst.args {
                            a.free_tvs(&mut tvs);
                        }
                        tvs.iter().any(|tv| ex_params.contains(tv))
                    })
                {
                    for w in &wheres {
                        let inst = subst.apply_inst(&w.inst);
                        let mv = self.table.fresh_mv(Symbol::intern("?m"));
                        ex_wheres.push(WhereReq {
                            inst,
                            mv,
                            named: false,
                        });
                        resolved_models.push(Model::Var(mv));
                    }
                }
                if !models.is_empty() {
                    if models.len() != wheres.len() {
                        self.diags.error(
                            "E0212",
                            t.span,
                            format!(
                                "wrong number of models for `{name}`: expected {}, found {}",
                                wheres.len(),
                                models.len()
                            ),
                        );
                    }
                    for (i, m) in models.iter().enumerate() {
                        let expected = wheres.get(i).map(|w| subst.apply_inst(&w.inst));
                        match m {
                            ast::ModelExpr::Wildcard { span } => {
                                // Wildcard model: existentially quantify the
                                // witness (§6).
                                let mv = self.table.fresh_mv(Symbol::intern("?m"));
                                let inst = expected.clone().unwrap_or(ConstraintInst {
                                    id: ConstraintId(0),
                                    args: vec![],
                                });
                                if expected.is_none() {
                                    self.diags.error(
                                        "E0211",
                                        *span,
                                        "wildcard model has no expected constraint",
                                    );
                                }
                                ex_wheres.push(WhereReq {
                                    inst,
                                    mv,
                                    named: false,
                                });
                                resolved_models.push(Model::Var(mv));
                            }
                            _ => {
                                let rm = self.resolve_model_expr(scope, m, expected.as_ref());
                                resolved_models.push(rm);
                            }
                        }
                    }
                }
                let base = Type::Class {
                    id: cid,
                    args: resolved_args,
                    models: resolved_models,
                };
                if ex_params.is_empty() && ex_wheres.is_empty() {
                    base
                } else {
                    Type::Existential {
                        params: ex_params,
                        bounds: ex_bounds,
                        wheres: ex_wheres,
                        body: Box::new(base),
                    }
                }
            }
        }
    }

    /// `Printable` as a type: `[some U where Printable[U]] U`.
    fn constraint_as_type(&mut self, kid: ConstraintId, _span: Span) -> Type {
        let u = self.table.fresh_tv(Symbol::intern("U"));
        let mv = self.table.fresh_mv(Symbol::intern("m"));
        Type::Existential {
            params: vec![u],
            bounds: vec![None],
            wheres: vec![WhereReq {
                inst: ConstraintInst {
                    id: kid,
                    args: vec![Type::Var(u)],
                },
                mv,
                named: false,
            }],
            body: Box::new(Type::Var(u)),
        }
    }

    /// Resolves a constraint reference, checking arity.
    pub fn resolve_constraint_ref(
        &mut self,
        scope: &Scope,
        c: &ast::ConstraintRef,
    ) -> Option<ConstraintInst> {
        let Some(kid) = self.table.lookup_constraint(c.name) else {
            self.diags
                .error("E0205", c.span, format!("unknown constraint `{}`", c.name));
            return None;
        };
        let arity = self.table.constraint(kid).params.len();
        if c.args.len() != arity {
            self.diags.error(
                "E0209",
                c.span,
                format!(
                    "constraint `{}` expects {} type argument(s), found {}",
                    c.name,
                    arity,
                    c.args.len()
                ),
            );
        }
        let args: Vec<Type> = c.args.iter().map(|a| self.resolve_ty(scope, a)).collect();
        Some(ConstraintInst {
            id: kid,
            args: pad_args(&args, arity),
        })
    }

    /// Resolves a where-clause binding, registering its model variable in
    /// the scope.
    pub fn resolve_where(&mut self, scope: &mut Scope, w: &ast::WhereBinding) -> Option<WhereReq> {
        let inst = self.resolve_constraint_ref(scope, &w.constraint)?;
        let name = w.var.unwrap_or_else(|| Symbol::intern("$w"));
        let mv = self.table.fresh_mv(name);
        if let Some(v) = w.var {
            scope.mvs.insert(v, mv);
        }
        Some(WhereReq {
            inst,
            mv,
            named: w.var.is_some(),
        })
    }

    /// Resolves a model expression. `expected` is the constraint the model
    /// must witness, when known from context (with-clauses); it is required
    /// to interpret a *type name* as that type's natural model.
    pub fn resolve_model_expr(
        &mut self,
        scope: &Scope,
        m: &ast::ModelExpr,
        expected: Option<&ConstraintInst>,
    ) -> Model {
        match m {
            ast::ModelExpr::Wildcard { span } => {
                self.diags
                    .error("E0211", *span, "wildcard model not allowed here");
                Model::Natural {
                    inst: expected.cloned().unwrap_or(ConstraintInst {
                        id: ConstraintId(0),
                        args: vec![],
                    }),
                }
            }
            ast::ModelExpr::Named {
                name,
                args,
                models,
                span,
            } => {
                // 1. A model variable in scope.
                if args.is_empty() && models.is_empty() {
                    if let Some(mv) = scope.mvs.get(name) {
                        return Model::Var(*mv);
                    }
                }
                // 2. A declared model.
                if let Some(mid) = self.table.lookup_model(*name) {
                    let (tparams, wheres) = {
                        let d = self.table.model(mid);
                        (d.tparams.clone(), d.wheres.clone())
                    };
                    if args.len() != tparams.len() && !args.is_empty() {
                        self.diags.error(
                            "E0212",
                            *span,
                            format!(
                                "model `{name}` expects {} type argument(s), found {}",
                                tparams.len(),
                                args.len()
                            ),
                        );
                    }
                    let targs: Vec<Type> = args.iter().map(|a| self.resolve_ty(scope, a)).collect();
                    let targs = pad_args(&targs, tparams.len());
                    let subst = genus_types::Subst::from_pairs(&tparams, &targs);
                    let mut margs = Vec::new();
                    for (i, me) in models.iter().enumerate() {
                        let exp = wheres.get(i).map(|w| subst.apply_inst(&w.inst));
                        margs.push(self.resolve_model_expr(scope, me, exp.as_ref()));
                    }
                    // Missing model/type args are left for contextual
                    // inference (body checker) or flagged during completion.
                    return Model::Decl {
                        id: mid,
                        type_args: targs,
                        model_args: margs,
                    };
                }
                // 3. A type name selecting the natural model
                //    (`Set[String with String]`).
                let names_type = self.table.lookup_class(*name).is_some()
                    || scope.tvs.contains_key(name)
                    || is_prim_name(*name);
                if names_type {
                    if let Some(exp) = expected {
                        return Model::Natural { inst: exp.clone() };
                    }
                    self.diags.error(
                        "E0213",
                        *span,
                        format!("cannot determine which constraint the natural model of `{name}` should witness here"),
                    );
                    return Model::Natural {
                        inst: ConstraintInst {
                            id: ConstraintId(0),
                            args: vec![],
                        },
                    };
                }
                self.diags
                    .error("E0206", *span, format!("unknown model `{name}`"));
                Model::Natural {
                    inst: expected.cloned().unwrap_or(ConstraintInst {
                        id: ConstraintId(0),
                        args: vec![],
                    }),
                }
            }
        }
    }
}

fn is_prim_name(name: Symbol) -> bool {
    matches!(
        name.as_str(),
        "int" | "long" | "double" | "boolean" | "char"
    )
}

fn pad_args(args: &[Type], want: usize) -> Vec<Type> {
    let mut v: Vec<Type> = args.iter().take(want).cloned().collect();
    while v.len() < want {
        v.push(Type::Null);
    }
    v
}

/// Collects all declarations of `programs` into a fresh table.
///
/// Errors (duplicate names, unknown types, arity mismatches, receiver names
/// that are not constraint parameters, prerequisite cycles) are reported into
/// `diags`.
pub fn collect(programs: &[ast::Program], diags: &mut Diagnostics) -> Table {
    let refs: Vec<&ast::Program> = programs.iter().collect();
    collect_refs(&refs, diags)
}

/// [`collect`] over borrowed programs — incremental sessions keep their
/// parse trees in shared `Arc`s and collect from references.
pub fn collect_refs(programs: &[&ast::Program], diags: &mut Diagnostics) -> Table {
    let mut table = Table::new();
    collect_into(&mut table, programs, diags);
    table
}

/// Collects `programs` into an existing table, after its declarations:
/// new ids follow the table's, and names resolve against both. Collecting
/// a program list in two calls assigns the same class, constraint, model
/// and global ids as one call over the whole list (type and model variable
/// ids are numbered differently, but consistently within the table).
pub fn collect_into(table: &mut Table, programs: &[&ast::Program], diags: &mut Diagnostics) {
    register_names(programs, table, diags);
    collect_headers(programs, table, diags);
    genus_types::variance::store_variances(table);
    check_prereq_cycles(table, diags);
}

fn register_names(programs: &[&ast::Program], table: &mut Table, diags: &mut Diagnostics) {
    for p in programs {
        for d in &p.decls {
            match d {
                ast::Decl::Class(c) => {
                    if table.lookup_class(c.name).is_some() {
                        diags.error("E0201", c.span, format!("duplicate type `{}`", c.name));
                        continue;
                    }
                    table.add_class(placeholder_class(c.name, false, c.is_abstract, c.span));
                }
                ast::Decl::Interface(i) => {
                    if table.lookup_class(i.name).is_some() {
                        diags.error("E0201", i.span, format!("duplicate type `{}`", i.name));
                        continue;
                    }
                    table.add_class(placeholder_class(i.name, true, true, i.span));
                }
                ast::Decl::Constraint(c) => {
                    if table.lookup_constraint(c.name).is_some() {
                        diags.error(
                            "E0202",
                            c.span,
                            format!("duplicate constraint `{}`", c.name),
                        );
                        continue;
                    }
                    table.add_constraint(ConstraintDef {
                        name: c.name,
                        params: vec![],
                        prereqs: vec![],
                        ops: vec![],
                        variance: vec![],
                        span: c.span,
                    });
                }
                ast::Decl::Model(m) => {
                    if table.lookup_model(m.name).is_some() {
                        diags.error("E0203", m.span, format!("duplicate model `{}`", m.name));
                        continue;
                    }
                    table.add_model(ModelDef {
                        name: m.name,
                        tparams: vec![],
                        wheres: vec![],
                        for_inst: ConstraintInst {
                            id: ConstraintId(0),
                            args: vec![],
                        },
                        extends: vec![],
                        methods: vec![],
                        span: m.span,
                    });
                }
                _ => {}
            }
        }
    }
}

/// The id a class or interface declaration was registered under. `None`
/// for a duplicate (reported at registration): its header must not
/// overwrite the first declaration's.
fn own_class(table: &Table, name: Symbol, span: Span) -> Option<ClassId> {
    table
        .lookup_class(name)
        .filter(|&id| table.class(id).span == span)
}

/// [`own_class`] for constraint declarations.
fn own_constraint(table: &Table, name: Symbol, span: Span) -> Option<ConstraintId> {
    table
        .lookup_constraint(name)
        .filter(|&id| table.constraint(id).span == span)
}

/// [`own_class`] for model declarations.
fn own_model(table: &Table, name: Symbol, span: Span) -> Option<genus_types::ModelId> {
    table
        .lookup_model(name)
        .filter(|&id| table.model(id).span == span)
}

fn placeholder_class(name: Symbol, is_interface: bool, is_abstract: bool, span: Span) -> ClassDef {
    ClassDef {
        name,
        is_interface,
        is_abstract,
        params: vec![],
        wheres: vec![],
        extends: None,
        implements: vec![],
        fields: vec![],
        ctors: vec![],
        methods: vec![],
        span,
    }
}

fn collect_headers(programs: &[&ast::Program], table: &mut Table, diags: &mut Diagnostics) {
    // Phase order matters: constraint arities are needed by class `where`
    // clauses, and class arities are needed by constraint operations, so
    // parameters of both are registered before any type is resolved.
    for p in programs {
        for d in &p.decls {
            if let ast::Decl::Constraint(c) = d {
                let Some(kid) = own_constraint(table, c.name, c.span) else {
                    continue;
                };
                let mut params = Vec::new();
                for tp in &c.params {
                    params.push(table.fresh_tv(tp.name));
                }
                table.constraints[kid.0 as usize].params = params;
            }
        }
    }
    for p in programs {
        for d in &p.decls {
            match d {
                ast::Decl::Class(c) => register_class_params(c.name, c.span, &c.generics, table),
                ast::Decl::Interface(i) => {
                    register_class_params(i.name, i.span, &i.generics, table)
                }
                _ => {}
            }
        }
    }
    for p in programs {
        for d in &p.decls {
            match d {
                ast::Decl::Class(c) => {
                    collect_class_wheres(c.name, c.span, &c.generics, table, diags)
                }
                ast::Decl::Interface(i) => {
                    collect_class_wheres(i.name, i.span, &i.generics, table, diags)
                }
                _ => {}
            }
        }
    }
    for p in programs {
        for d in &p.decls {
            if let ast::Decl::Constraint(c) = d {
                collect_constraint(c, table, diags);
            }
        }
    }
    // Model headers (for_inst/wheres) — needed by class signatures with
    // explicit models and by use declarations.
    for p in programs {
        for d in &p.decls {
            if let ast::Decl::Model(m) = d {
                collect_model_header(m, table, diags);
            }
        }
    }
    // Class bodies: supertypes, fields, ctors, methods.
    for p in programs {
        for d in &p.decls {
            match d {
                ast::Decl::Class(c) => collect_class_body(c, table, diags),
                ast::Decl::Interface(i) => collect_interface_body(i, table, diags),
                _ => {}
            }
        }
    }
    break_inheritance_cycles(table, diags);
    // Model bodies (method signatures) and extends.
    for p in programs {
        for d in &p.decls {
            if let ast::Decl::Model(m) = d {
                collect_model_body(m, table, diags);
            }
        }
    }
    // Enrichments.
    for p in programs {
        for d in &p.decls {
            if let ast::Decl::Enrich(e) = d {
                collect_enrich(e, table, diags);
            }
        }
    }
    // Top-level methods.
    for p in programs {
        for d in &p.decls {
            if let ast::Decl::Method(m) = d {
                let scope = Scope::new();
                if let Some(def) = collect_method(m, &scope, table, diags) {
                    table.globals.push(def);
                }
            }
        }
    }
    // Use declarations.
    for p in programs {
        for d in &p.decls {
            if let ast::Decl::Use(u) = d {
                collect_use(u, table, diags);
            }
        }
    }
}

fn collect_constraint(c: &ast::ConstraintDecl, table: &mut Table, diags: &mut Diagnostics) {
    let Some(kid) = own_constraint(table, c.name, c.span) else {
        return;
    };
    let params = table.constraint(kid).params.clone();
    let mut scope = Scope::new();
    for (tp, tv) in c.params.iter().zip(&params) {
        scope.tvs.insert(tp.name, *tv);
    }
    let mut r = Resolver { table, diags };
    let mut prereqs = Vec::new();
    for e in &c.extends {
        if let Some(inst) = r.resolve_constraint_ref(&scope, e) {
            prereqs.push(inst);
        }
    }
    let mut ops = Vec::new();
    for m in &c.methods {
        // Receiver defaults to the sole parameter (single-parameter sugar).
        let receiver = match m.receiver {
            Some(rn) => match scope.tvs.get(&rn) {
                Some(tv) => *tv,
                None => {
                    r.diags.error(
                        "E0214",
                        m.span,
                        format!(
                            "receiver `{rn}` is not a parameter of constraint `{}`",
                            c.name
                        ),
                    );
                    params.first().copied().unwrap_or(TvId(0))
                }
            },
            None => {
                if params.len() != 1 {
                    r.diags.error(
                        "E0214",
                        m.span,
                        "operations of multiparameter constraints must declare a receiver type",
                    );
                }
                params.first().copied().unwrap_or(TvId(0))
            }
        };
        let ret = r.resolve_ty(&scope, &m.ret);
        let ps: Vec<(Symbol, Type)> = m
            .params
            .iter()
            .map(|p| (p.name, r.resolve_ty(&scope, &p.ty)))
            .collect();
        ops.push(ConstraintOp {
            name: m.name,
            is_static: m.is_static,
            receiver,
            params: ps,
            ret,
            span: m.span,
        });
    }
    table.constraints[kid.0 as usize].prereqs = prereqs;
    table.constraints[kid.0 as usize].ops = ops;
}

fn register_class_params(name: Symbol, span: Span, generics: &ast::GenericSig, table: &mut Table) {
    let Some(cid) = own_class(table, name, span) else {
        return;
    };
    let mut params = Vec::new();
    for tp in &generics.type_params {
        params.push(table.fresh_tv(tp.name));
    }
    table.classes[cid.0 as usize].params = params;
}

fn collect_class_wheres(
    name: Symbol,
    span: Span,
    generics: &ast::GenericSig,
    table: &mut Table,
    diags: &mut Diagnostics,
) {
    let Some(cid) = own_class(table, name, span) else {
        return;
    };
    let params = table.class(cid).params.clone();
    let mut scope = Scope::new();
    for (tp, tv) in generics.type_params.iter().zip(&params) {
        scope.tvs.insert(tp.name, *tv);
    }
    let mut r = Resolver { table, diags };
    let mut wheres = Vec::new();
    for w in &generics.wheres {
        if let Some(req) = r.resolve_where(&mut scope, w) {
            wheres.push(req);
        }
    }
    table.classes[cid.0 as usize].wheres = wheres;
}

/// Rebuilds the scope of a class from its collected header.
pub fn class_scope(table: &Table, cid: ClassId, generics: &ast::GenericSig) -> Scope {
    let def = table.class(cid);
    let mut scope = Scope::new();
    for (tp, tv) in generics.type_params.iter().zip(&def.params) {
        scope.tvs.insert(tp.name, *tv);
    }
    for (wb, wr) in generics.wheres.iter().zip(&def.wheres) {
        if let Some(v) = wb.var {
            scope.mvs.insert(v, wr.mv);
        }
    }
    scope
}

fn collect_class_body(c: &ast::ClassDecl, table: &mut Table, diags: &mut Diagnostics) {
    let Some(cid) = own_class(table, c.name, c.span) else {
        return;
    };
    let scope = class_scope(table, cid, &c.generics);
    let mut r = Resolver { table, diags };
    let extends = match &c.extends {
        Some(e) => Some(r.resolve_ty(&scope, e)),
        None => {
            // Everything except Object extends Object.
            if c.name.as_str() == "Object" {
                None
            } else {
                r.table
                    .lookup_class(Symbol::intern("Object"))
                    .map(|oid| Type::Class {
                        id: oid,
                        args: vec![],
                        models: vec![],
                    })
            }
        }
    };
    let implements: Vec<Type> = c
        .implements
        .iter()
        .map(|t| r.resolve_ty(&scope, t))
        .collect();
    let mut fields = Vec::new();
    for f in &c.fields {
        let ty = r.resolve_ty(&scope, &f.ty);
        fields.push(FieldDef {
            name: f.name,
            ty,
            is_static: f.is_static,
            init: f.init.clone(),
            span: f.span,
        });
    }
    let mut ctors = Vec::new();
    for ct in &c.ctors {
        let params: Vec<(Symbol, Type)> = ct
            .params
            .iter()
            .map(|p| (p.name, r.resolve_ty(&scope, &p.ty)))
            .collect();
        ctors.push(CtorDef {
            params,
            body: ct.body.clone(),
            span: ct.span,
        });
    }
    let mut methods = Vec::new();
    for m in &c.methods {
        if let Some(def) = collect_method(m, &scope, table, diags) {
            methods.push(def);
        }
    }
    check_member_clashes(&methods, &ctors, table, diags);
    let def = &mut table.classes[cid.0 as usize];
    def.extends = extends;
    def.implements = implements;
    def.fields = fields;
    def.ctors = ctors;
    def.methods = methods;
}

/// Reports each class or interface that is its own supertype (`E0217`)
/// and cuts the edge that closes the cycle: a class's `extends` falls back
/// to `Object`, an interface's `extends` entry is dropped. Every later walk
/// up the hierarchy then ends. The depth-first search keeps its own stack,
/// so a chain of any length needs constant host stack.
fn break_inheritance_cycles(table: &mut Table, diags: &mut Diagnostics) {
    // The supertypes of a class: `extends`, then `implements`.
    let parent = |t: &Table, c: usize, edge: usize| {
        let def = &t.classes[c];
        def.extends
            .iter()
            .chain(&def.implements)
            .nth(edge)
            .map(|ty| match ty {
                Type::Class { id, .. } => Some(id.0 as usize),
                _ => None,
            })
    };
    // 0: not reached yet, 1: on the stack, 2: done.
    let mut state = vec![0u8; table.classes.len()];
    let mut cuts = Vec::new();
    for root in 0..state.len() {
        if state[root] != 0 {
            continue;
        }
        state[root] = 1;
        let mut stack = vec![(root, 0)];
        while let Some((c, edge)) = stack.last_mut() {
            let (c, e) = (*c, *edge);
            *edge += 1;
            match parent(table, c, e) {
                None => {
                    state[c] = 2;
                    stack.pop();
                }
                Some(Some(p)) if state[p] == 0 => {
                    state[p] = 1;
                    stack.push((p, 0));
                }
                Some(Some(p)) if state[p] == 1 => cuts.push((c, e, p)),
                Some(_) => {}
            }
        }
    }
    let object = table.lookup_class(Symbol::intern("Object"));
    // A class's cuts were found in edge order; undo them from the last so
    // each index still names its edge.
    for &(c, e, p) in cuts.iter().rev() {
        let (name, parent_name) = (table.classes[c].name, table.classes[p].name);
        let def = &mut table.classes[c];
        diags.error(
            "E0217",
            def.span,
            format!("`{name}` is its own supertype, through `{parent_name}`"),
        );
        if def.extends.is_some() && e == 0 {
            def.extends = object.map(|id| Type::Class {
                id,
                args: vec![],
                models: vec![],
            });
        } else {
            def.implements
                .remove(e - usize::from(def.extends.is_some()));
        }
    }
}

fn collect_interface_body(i: &ast::InterfaceDecl, table: &mut Table, diags: &mut Diagnostics) {
    let Some(cid) = own_class(table, i.name, i.span) else {
        return;
    };
    let scope = class_scope(table, cid, &i.generics);
    let mut r = Resolver { table, diags };
    let extends: Vec<Type> = i.extends.iter().map(|t| r.resolve_ty(&scope, t)).collect();
    let mut methods = Vec::new();
    for m in &i.methods {
        if let Some(def) = collect_method(m, &scope, table, diags) {
            methods.push(def);
        }
    }
    check_member_clashes(&methods, &[], table, diags);
    let def = &mut table.classes[cid.0 as usize];
    def.implements = extends;
    def.methods = methods;
}

/// Methods may only be overloaded when their arities differ — dispatch is by
/// `(name, arity)`. Constructors likewise.
fn check_member_clashes(
    methods: &[MethodDef],
    ctors: &[CtorDef],
    _table: &Table,
    diags: &mut Diagnostics,
) {
    for (i, a) in methods.iter().enumerate() {
        for b in &methods[i + 1..] {
            if a.name == b.name && a.params.len() == b.params.len() && a.is_static == b.is_static {
                diags.error(
                    "E0216",
                    b.span,
                    format!(
                        "duplicate method `{}` with {} parameter(s): overloads must differ in arity",
                        b.name,
                        b.params.len()
                    ),
                );
            }
        }
    }
    for (i, a) in ctors.iter().enumerate() {
        for b in &ctors[i + 1..] {
            if a.params.len() == b.params.len() {
                diags.error(
                    "E0216",
                    b.span,
                    "duplicate constructor: constructor overloads must differ in arity",
                );
            }
        }
    }
}

fn collect_method(
    m: &ast::MethodDecl,
    outer: &Scope,
    table: &mut Table,
    diags: &mut Diagnostics,
) -> Option<MethodDef> {
    let mut scope = outer.child();
    let mut tparams = Vec::new();
    for tp in &m.generics.type_params {
        let tv = table.fresh_tv(tp.name);
        scope.tvs.insert(tp.name, tv);
        tparams.push(tv);
    }
    let mut r = Resolver { table, diags };
    let mut wheres = Vec::new();
    for w in &m.generics.wheres {
        if let Some(req) = r.resolve_where(&mut scope, w) {
            wheres.push(req);
        }
    }
    let ret = r.resolve_ty(&scope, &m.ret);
    let params: Vec<(Symbol, Type)> = m
        .params
        .iter()
        .map(|p| (p.name, r.resolve_ty(&scope, &p.ty)))
        .collect();
    Some(MethodDef {
        name: m.name,
        is_static: m.is_static,
        is_abstract: m.is_abstract,
        is_native: m.is_native,
        tparams,
        wheres,
        params,
        ret,
        body: m.body.clone(),
        span: m.span,
    })
}

fn collect_model_header(m: &ast::ModelDecl, table: &mut Table, diags: &mut Diagnostics) {
    let Some(mid) = own_model(table, m.name, m.span) else {
        return;
    };
    let mut scope = Scope::new();
    let mut tparams = Vec::new();
    for tp in &m.generics.type_params {
        let tv = table.fresh_tv(tp.name);
        scope.tvs.insert(tp.name, tv);
        tparams.push(tv);
    }
    // Placeholder `for` target when the named constraint doesn't resolve
    // (already diagnosed): the args must match ConstraintId(0)'s declared
    // arity, because downstream substitution assumes every ConstraintInst
    // is arity-consistent with its definition.
    let fallback_arity = table.constraints.first().map_or(0, |c| c.params.len());
    let mut r = Resolver { table, diags };
    let mut wheres = Vec::new();
    for w in &m.generics.wheres {
        if let Some(req) = r.resolve_where(&mut scope, w) {
            wheres.push(req);
        }
    }
    let for_inst = r
        .resolve_constraint_ref(&scope, &m.for_constraint)
        .unwrap_or(ConstraintInst {
            id: ConstraintId(0),
            args: vec![Type::Null; fallback_arity],
        });
    table.models[mid.0 as usize].tparams = tparams;
    table.models[mid.0 as usize].wheres = wheres;
    table.models[mid.0 as usize].for_inst = for_inst;
}

/// Rebuilds the scope of a model from its collected header.
pub fn model_scope(table: &Table, mid: genus_types::ModelId, generics: &ast::GenericSig) -> Scope {
    let def = table.model(mid);
    let mut scope = Scope::new();
    for (tp, tv) in generics.type_params.iter().zip(&def.tparams) {
        scope.tvs.insert(tp.name, *tv);
    }
    for (wb, wr) in generics.wheres.iter().zip(&def.wheres) {
        if let Some(v) = wb.var {
            scope.mvs.insert(v, wr.mv);
        }
    }
    scope
}

fn collect_model_body(m: &ast::ModelDecl, table: &mut Table, diags: &mut Diagnostics) {
    let Some(mid) = own_model(table, m.name, m.span) else {
        return;
    };
    let scope = model_scope(table, mid, &m.generics);
    let for_inst = table.model(mid).for_inst.clone();
    let mut r = Resolver { table, diags };
    let mut extends = Vec::new();
    for e in &m.extends {
        extends.push(r.resolve_model_expr(&scope, e, None));
    }
    let mut methods = Vec::new();
    for d in &m.methods {
        methods.push(resolve_model_method(&mut r, &scope, &for_inst, d, false));
    }
    table.models[mid.0 as usize].extends = extends;
    table.models[mid.0 as usize].methods = methods;
}

fn resolve_model_method(
    r: &mut Resolver<'_>,
    scope: &Scope,
    for_inst: &ConstraintInst,
    d: &ast::ModelMethodDef,
    from_enrich: bool,
) -> ModelMethod {
    let ret = r.resolve_ty(scope, &d.ret);
    let receiver = match &d.receiver {
        Some(t) => r.resolve_ty(scope, t),
        None => {
            // Single-parameter sugar: the receiver is the sole argument of
            // the witnessed constraint.
            if for_inst.args.len() == 1 {
                for_inst.args[0].clone()
            } else {
                r.diags.error(
                    "E0214",
                    d.span,
                    "methods of models for multiparameter constraints must declare a receiver type",
                );
                Type::Null
            }
        }
    };
    let params: Vec<(Symbol, Type)> = d
        .params
        .iter()
        .map(|p| (p.name, r.resolve_ty(scope, &p.ty)))
        .collect();
    ModelMethod {
        name: d.name,
        is_static: d.is_static,
        receiver,
        params,
        ret,
        body: d.body.clone(),
        from_enrich,
        span: d.span,
    }
}

fn collect_enrich(e: &ast::EnrichDecl, table: &mut Table, diags: &mut Diagnostics) {
    let Some(mid) = table.lookup_model(e.target) else {
        diags.error(
            "E0207",
            e.span,
            format!("cannot enrich unknown model `{}`", e.target),
        );
        return;
    };
    // Enrichment methods are resolved in the *model's* generic context. The
    // model's parameter names are reconstructed from the table.
    let def = table.model(mid);
    let mut scope = Scope::new();
    for tv in &def.tparams {
        scope.tvs.insert(table.tv_name(*tv), *tv);
    }
    for w in &def.wheres {
        if w.named {
            scope.mvs.insert(table.mv_name(w.mv), w.mv);
        }
    }
    let for_inst = def.for_inst.clone();
    let mut r = Resolver { table, diags };
    let mut methods = Vec::new();
    for d in &e.methods {
        methods.push(resolve_model_method(&mut r, &scope, &for_inst, d, true));
    }
    table.models[mid.0 as usize].methods.extend(methods);
}

fn collect_use(u: &ast::UseDecl, table: &mut Table, diags: &mut Diagnostics) {
    // `use M;` where `M` is a parameterized model is sugar for the fully
    // parameterized form (§4.7): copy M's generic signature as the use's.
    if u.generics.is_empty() && u.for_constraint.is_none() {
        if let ast::ModelExpr::Named {
            name, args, models, ..
        } = &u.model
        {
            if args.is_empty() && models.is_empty() {
                if let Some(mid) = table.lookup_model(*name) {
                    let d = table.model(mid);
                    let tparams = d.tparams.clone();
                    let wheres = d.wheres.clone();
                    let for_inst = d.for_inst.clone();
                    let model = Model::Decl {
                        id: mid,
                        type_args: tparams.iter().map(|t| Type::Var(*t)).collect(),
                        model_args: wheres.iter().map(|w| Model::Var(w.mv)).collect(),
                    };
                    table.uses.push(UseDef {
                        tparams,
                        wheres,
                        model,
                        for_inst,
                        span: u.span,
                    });
                    return;
                }
                diags.error(
                    "E0206",
                    u.span,
                    format!("unknown model `{name}` in use declaration"),
                );
                return;
            }
        }
    }
    let mut scope = Scope::new();
    let mut tparams = Vec::new();
    for tp in &u.generics.type_params {
        let tv = table.fresh_tv(tp.name);
        scope.tvs.insert(tp.name, tv);
        tparams.push(tv);
    }
    let mut r = Resolver { table, diags };
    let mut wheres = Vec::new();
    for w in &u.generics.wheres {
        if let Some(req) = r.resolve_where(&mut scope, w) {
            wheres.push(req);
        }
    }
    let for_inst = match &u.for_constraint {
        Some(c) => r.resolve_constraint_ref(&scope, c),
        None => None,
    };
    let model = r.resolve_model_expr(&scope, &u.model, for_inst.as_ref());
    // Infer the enabled constraint from the model when elided.
    let for_inst = match for_inst {
        Some(f) => f,
        None => match &model {
            Model::Decl {
                id,
                type_args,
                model_args,
            } => {
                let d = r.table.model(*id);
                let subst = genus_types::Subst::from_pairs(&d.tparams, type_args).with_models(
                    &d.wheres.iter().map(|w| w.mv).collect::<Vec<_>>(),
                    model_args,
                );
                subst.apply_inst(&d.for_inst)
            }
            _ => {
                r.diags.error(
                    "E0213",
                    u.span,
                    "cannot infer the constraint this use declaration enables",
                );
                ConstraintInst {
                    id: ConstraintId(0),
                    args: vec![],
                }
            }
        },
    };
    table.uses.push(UseDef {
        tparams,
        wheres,
        model,
        for_inst,
        span: u.span,
    });
}

fn check_prereq_cycles(table: &Table, diags: &mut Diagnostics) {
    // DFS over the prerequisite graph.
    let n = table.constraints.len();
    let mut state = vec![0u8; n]; // 0 unseen, 1 in-progress, 2 done
    fn dfs(table: &Table, i: usize, state: &mut [u8], diags: &mut Diagnostics) {
        if state[i] == 2 {
            return;
        }
        if state[i] == 1 {
            diags.error(
                "E0215",
                table.constraints[i].span,
                format!(
                    "constraint `{}` participates in a prerequisite cycle",
                    table.constraints[i].name
                ),
            );
            state[i] = 2;
            return;
        }
        state[i] = 1;
        let prereqs: Vec<usize> = table.constraints[i]
            .prereqs
            .iter()
            .map(|p| p.id.0 as usize)
            .collect();
        for j in prereqs {
            dfs(table, j, state, diags);
        }
        state[i] = 2;
    }
    for i in 0..n {
        dfs(table, i, &mut state, diags);
    }
}

/// Map from declaration names back to AST nodes, used by the body checker to
/// re-derive scopes (parameter names are not stored in the table).
#[derive(Debug, Default)]
pub struct AstIndex<'a> {
    /// Class name → AST node.
    pub classes: HashMap<Symbol, &'a ast::ClassDecl>,
    /// Interface name → AST node.
    pub interfaces: HashMap<Symbol, &'a ast::InterfaceDecl>,
    /// Model name → AST node.
    pub models: HashMap<Symbol, &'a ast::ModelDecl>,
}

impl<'a> AstIndex<'a> {
    /// Builds the index from the same programs passed to [`collect`].
    pub fn build(programs: &'a [ast::Program]) -> Self {
        let mut idx = AstIndex::default();
        for p in programs {
            for d in &p.decls {
                match d {
                    ast::Decl::Class(c) => {
                        idx.classes.insert(c.name, c);
                    }
                    ast::Decl::Interface(i) => {
                        idx.interfaces.insert(i.name, i);
                    }
                    ast::Decl::Model(m) => {
                        idx.models.insert(m.name, m);
                    }
                    _ => {}
                }
            }
        }
        idx
    }
}

/// A where-requirement paired with the `MvId`s it binds, tracked while
/// building enablement environments.
pub type Enabled = Vec<(ConstraintInst, Model)>;

/// Builds the globally enabled defaults: every `use` declaration (handled
/// specially during resolution because of subgoals) contributes, and models
/// are self-enabled inside their own bodies (added by the body checker).
pub fn global_enabled(_table: &Table) -> Enabled {
    Vec::new()
}

/// Allocates `n` fresh `MvId`s (helper for capture conversion).
pub fn fresh_mvs(table: &mut Table, n: usize) -> Vec<MvId> {
    (0..n)
        .map(|i| table.fresh_mv(Symbol::intern(&format!("#m{i}"))))
        .collect()
}

#[cfg(test)]
mod tests {
    use crate::check_source;
    use genus_common::Symbol;
    use genus_types::{Model, Type};

    #[test]
    fn class_header_collects_params_and_wheres() {
        let t = check_source("class Box[T where Comparable[T] c] { Box() { } }\nvoid main() { }")
            .expect("checks")
            .table;
        let cid = t.lookup_class(Symbol::intern("Box")).expect("Box");
        let def = t.class(cid);
        assert_eq!(def.params.len(), 1);
        assert_eq!(def.wheres.len(), 1);
        assert!(def.wheres[0].named);
        assert_eq!(t.tv_name(def.params[0]).as_str(), "T");
        assert_eq!(t.mv_name(def.wheres[0].mv).as_str(), "c");
    }

    #[test]
    fn constraint_single_param_sugar_sets_receiver() {
        let t = check_source("constraint Neg[T] { T negate(); }\nvoid main() { }")
            .expect("checks")
            .table;
        let kid = t.lookup_constraint(Symbol::intern("Neg")).expect("Neg");
        let def = t.constraint(kid);
        assert_eq!(def.ops.len(), 1);
        assert_eq!(def.ops[0].receiver, def.params[0]);
    }

    #[test]
    fn bare_use_of_parameterized_model_desugars() {
        let t = check_source(
            "class Holder[E] { Holder() { } E item; }
             constraint Fill[T] { T fillOne(); }
             model HolderFill[E] for Fill[Holder[E]] where Fill[E] {
               Holder[E] fillOne() { return new Holder[E](); }
             }
             use HolderFill;
             void main() { }",
        )
        .expect("checks")
        .table;
        assert_eq!(t.uses.len(), 1);
        let u = &t.uses[0];
        // The sugar copies the model's generic signature onto the use.
        assert_eq!(u.tparams.len(), 1);
        assert_eq!(u.wheres.len(), 1);
        match &u.model {
            Model::Decl {
                type_args,
                model_args,
                ..
            } => {
                assert!(matches!(type_args[0], Type::Var(_)));
                assert!(matches!(model_args[0], Model::Var(_)));
            }
            other => panic!("expected declared model, got {other:?}"),
        }
    }

    #[test]
    fn object_is_implicit_superclass() {
        let t = check_source("class Simple { Simple() { } }\nvoid main() { }")
            .expect("checks")
            .table;
        let cid = t.lookup_class(Symbol::intern("Simple")).expect("Simple");
        let obj = t.lookup_class(Symbol::intern("Object")).expect("Object");
        match &t.class(cid).extends {
            Some(Type::Class { id, .. }) => assert_eq!(*id, obj),
            other => panic!("expected Object supertype, got {other:?}"),
        }
    }

    #[test]
    fn implicit_with_on_constrained_class_is_completed() {
        // `TreeSetLike[int]` with an elided model resolves the natural one
        // during signature completion.
        let t = check_source(
            "class TreeSetLike[T where Comparable[T] c] { TreeSetLike() { } }
             class User { User() { } TreeSetLike[int] field; }
             void main() { }",
        )
        .expect("checks")
        .table;
        let user = t.lookup_class(Symbol::intern("User")).expect("User");
        match &t.class(user).fields[0].ty {
            Type::Class { models, .. } => {
                assert_eq!(models.len(), 1);
                assert!(matches!(models[0], Model::Natural { .. }));
            }
            other => panic!("expected class type, got {other:?}"),
        }
    }
}
