//! The Genus type checker.
//!
//! A check runs the paper's static semantics in phases:
//!
//! 1. collect declarations ([`collect`]),
//! 2. infer constraint variance (section 5.2),
//! 3. enforce the termination restriction on `use` declarations (section 9),
//! 4. complete elided `with`-clause models in signatures by default model
//!    resolution (section 4.4),
//! 5. check model-constraint conformance and multimethod unambiguity (5.1),
//! 6. check and lower every body to typed [`hir`].
//!
//! # Examples
//!
//! ```
//! use genus_check::check_source;
//!
//! let out = check_source("int main() { return 42; }").expect("program checks");
//! assert!(out.main_index().is_some());
//! ```

pub mod base;
pub mod body;
pub mod collect;
pub mod entail;
pub mod hir;
pub mod imports;
pub mod incremental;
pub mod methods;
pub mod multimethod;
pub mod natural;
pub mod prelude;
pub mod resolve;
pub mod termination;
pub mod wf;

pub use base::CheckedBase;
pub use incremental::{Session, SessionReport, SessionStats};

use body::BodyCtx;
use collect::Scope;
use genus_common::{diag, Diagnostic, Diagnostics, ErrorFormat, Severity, SourceMap, Symbol};
use genus_syntax::ast;
use genus_types::{ClassId, Model, ModelId, Table, Type};
use std::collections::HashMap;
use std::sync::Arc;

/// The result of checking: the table plus lowered bodies, ready to run.
///
/// Bodies are reference-counted so programs whose sessions extend the
/// [`CheckedBase`] share its prelude and stdlib bodies instead of copying
/// them.
#[derive(Debug)]
pub struct CheckedProgram {
    /// The semantic declaration table.
    pub table: Table,
    /// Instance/static method bodies: `(class, method index)`.
    pub method_bodies: HashMap<(u32, u32), Arc<hir::Body>>,
    /// Constructor bodies: `(class, ctor index)`.
    pub ctor_bodies: HashMap<(u32, u32), Arc<hir::Body>>,
    /// Top-level method bodies, by global index.
    pub global_bodies: HashMap<u32, Arc<hir::Body>>,
    /// Model method bodies: `(model, method index)`.
    pub model_bodies: HashMap<(u32, u32), Arc<hir::Body>>,
    /// Instance field initializers: `(class, field index)` — run at `new`.
    pub field_inits: HashMap<(u32, u32), Arc<hir::Expr>>,
    /// Static field initializers in declaration order — run at startup.
    pub static_inits: Vec<(ClassId, usize, Arc<hir::Expr>)>,
    /// What the checker vouches for about the program's base (the prelude
    /// and stdlib); `None` when it vouches for nothing.
    pub base: Option<BaseStamp>,
}

/// The checker's word that a program's base part is exactly what any
/// other program with an equal stamp has: the same definitions under the
/// same ids and the same checked bodies. The base is the program's first
/// `files` source files; a definition belongs to it when its span does.
///
/// Minted by [`Session`] from the base units' verdict keys and definition
/// fingerprints, so equal stamps mean equal content, whatever the bodies'
/// addresses; a program whose base units' verdicts are the
/// [`CheckedBase`]'s own carries the base's stamp. Code generators use it
/// to lower the base once and reuse the result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BaseStamp {
    /// How many leading source files form the base.
    pub(crate) files: u32,
    /// Fingerprint of the base's verdict keys and definitions.
    pub(crate) fp: u64,
}

impl BaseStamp {
    /// Whether a definition declared at `span` belongs to the base.
    pub fn owns(&self, span: genus_common::Span) -> bool {
        span.file.0 < self.files
    }
}

impl CheckedProgram {
    /// Finds the index of the entry method `main()` among globals.
    pub fn main_index(&self) -> Option<usize> {
        self.table
            .globals
            .iter()
            .position(|g| g.name.as_str() == "main" && g.params.is_empty())
    }
}

/// Structured result of checking: the source map the diagnostics point
/// into, every diagnostic (errors *and* warnings, normalized — sorted by
/// (file, offset, code) and deduplicated), and the checked program when no
/// errors were found.
#[derive(Debug)]
pub struct CheckReport {
    /// All registered source files, for rendering diagnostics.
    pub sm: SourceMap,
    /// Every diagnostic, in normalized order.
    pub diags: Vec<Diagnostic>,
    /// The checked program, present iff there were no errors.
    pub program: Option<CheckedProgram>,
}

impl CheckReport {
    /// Whether any error-severity diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// The warning-severity diagnostics.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }

    /// The error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The stable codes of all error diagnostics, in normalized order.
    pub fn error_codes(&self) -> Vec<&'static str> {
        self.errors().map(|d| d.code).collect()
    }

    /// Renders every diagnostic in the given format (errors and warnings
    /// alike), joined appropriately for that format.
    pub fn render(&self, format: ErrorFormat) -> String {
        diag::render_all(&self.diags, &self.sm, format)
    }

    /// Renders only the error diagnostics, in the compact one-line mode —
    /// the string shape [`check_source`] returns.
    pub fn render_errors_short(&self) -> String {
        diag::render_errors_short(&self.diags, &self.sm)
    }

    /// The checked program, or the errors as
    /// [`CheckReport::render_errors_short`] renders them.
    pub fn into_program(mut self) -> Result<CheckedProgram, String> {
        self.program
            .take()
            .ok_or_else(|| self.render_errors_short())
    }
}

/// Checks one Genus source string (plus the prelude). Convenience for tests
/// and examples; embedders that edit and re-check keep a [`Session`].
///
/// # Errors
///
/// Returns the rendered diagnostics when checking fails.
pub fn check_source(src: &str) -> Result<CheckedProgram, String> {
    check_sources_report(&[("main.genus", src)]).into_program()
}

/// Checks multiple Genus source files (plus the prelude) and returns the
/// full structured [`CheckReport`] — diagnostics with stable codes and
/// spans, warnings included, plus the program when checking succeeded.
///
/// One-shot checks are a single cold pass of the incremental [`Session`]
/// machinery, which extends the shared [`CheckedBase`] when the reuse
/// rule allows, so `genus check` and a warm session re-check agree on
/// output by construction.
pub fn check_sources_report(sources: &[(&str, &str)]) -> CheckReport {
    Session::new().report_over(sources)
}

/// The unshared full build: checks `sources` after the prelude (and the
/// stdlib when `stdlib`) without the [`CheckedBase`], every unit from
/// scratch. The reference the oracles compare every shared check with.
pub fn check_unshared(stdlib: bool, sources: &[(&str, &str)]) -> CheckReport {
    Session::unshared(stdlib).report_over(sources)
}

/// Runs every whole-program phase that precedes body checking: collection,
/// variance, the termination restriction, signature completion, multimethod
/// conformance, and hierarchy well-formedness. The result is the "semantic
/// prefix" incremental sessions key by the interface fingerprints of all
/// units.
pub(crate) fn build_prefix(programs: &[&ast::Program], diags: &mut Diagnostics) -> Table {
    let mut table = collect::collect_refs(programs, diags);
    termination::check_use_termination(&table, diags);
    finish_prefix(&mut table, diags, Start::default());
    table
}

/// The first index of each declaration kind a prefix pass covers: every
/// class, model and global at or past these indices is new. The default
/// covers the whole table.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Start {
    pub(crate) classes: usize,
    pub(crate) models: usize,
    pub(crate) globals: usize,
}

impl Start {
    /// The current end of `table`: a pass from here covers only what is
    /// collected afterwards.
    pub(crate) fn end_of(table: &Table) -> Start {
        Start {
            classes: table.classes.len(),
            models: table.models.len(),
            globals: table.globals.len(),
        }
    }
}

/// The prefix phases after collection — signature completion, model
/// conformance and hierarchy well-formedness — over the declarations
/// from `from` on.
pub(crate) fn finish_prefix(table: &mut Table, diags: &mut Diagnostics, from: Start) {
    complete_signatures(table, diags, from);
    // Signature completion rewrites types in place, which existing cache
    // entries could observe; drop them. The table is only read from here
    // on, so the caches filled below stay valid for good.
    table.cache.clear();
    let mut visible = multimethod::VisibleMethods::default();
    for i in from.models..table.models.len() {
        multimethod::check_model_conformance(table, &mut visible, ModelId(i as u32), diags);
    }
    wf::check_hierarchy(table, diags, from.classes);
}

/// Extends a copy of `base`, the clean semantic prefix of a library, with
/// the declarations of `units`: collection after the base's declarations
/// (so class, constraint, model and global ids match [`build_prefix`] over
/// the base's units plus these), then [`finish_prefix`] over the new
/// declarations only. Returns `None` when the reuse rule declines, and the
/// caller must build the whole prefix instead.
///
/// # The reuse rule
///
/// Genus resolves models per instantiation (§4) and subtyping is nominal,
/// so a library's prefix does not depend on the units checked after it,
/// except through what the rule excludes:
///
/// - `use` declarations are candidates in every scope, and declared models
///   are searched whole-program by default model resolution (`resolve.rs`,
///   rule 3). A `use`, an `enrich`, or a model whose constraint has a base
///   constraint in its prerequisite closure could therefore change how a
///   base signature or body resolves.
/// - A top-level method sharing a base global's name would join that
///   global's overload set; a colliding type, constraint or model name is
///   reported by collection and falls under the next rule.
/// - Any collection or prefix diagnostic: the full build reports it, with
///   the whole table in view.
///
/// Everything else a unit declares only extends the table: classes look
/// their supertypes up, never down, and structural conformance reads the
/// type's own members, so base subtyping, method lookup and natural models
/// are unchanged.
pub(crate) fn extend_prefix(base: &Table, units: &[&ast::Program]) -> Option<Table> {
    let is_base_global = |name| base.globals.iter().any(|g| g.name == name);
    if !units.iter().all(|p| leaves_base_alone(p, is_base_global)) {
        return None;
    }
    let mut table = base.clone();
    let from = Start::end_of(&table);
    let mut diags = Diagnostics::new();
    collect::collect_into(&mut table, units, &mut diags);
    let base_constraints = base.constraints.len();
    let reaches_base = |inst| {
        entail::prereq_closure(&table, inst)
            .iter()
            .any(|c| (c.id.0 as usize) < base_constraints)
    };
    if !diags.is_empty()
        || table.models[from.models..]
            .iter()
            .any(|m| reaches_base(&m.for_inst))
    {
        return None;
    }
    finish_prefix(&mut table, &mut diags, from);
    diags.is_empty().then_some(table)
}

/// The syntactic half of the reuse rule: `unit` declares no `use`, no
/// `enrich` and no top-level method named like a base global.
pub(crate) fn leaves_base_alone(
    unit: &ast::Program,
    is_base_global: impl Fn(Symbol) -> bool,
) -> bool {
    unit.decls.iter().all(|d| match d {
        ast::Decl::Use(_) | ast::Decl::Enrich(_) => false,
        ast::Decl::Method(m) => !is_base_global(m.name),
        _ => true,
    })
}

/// An empty [`CheckedProgram`] around a prefix table, to be filled by
/// [`check_bodies_filter`].
pub(crate) fn new_checked_shell(table: Table) -> CheckedProgram {
    CheckedProgram {
        table,
        method_bodies: HashMap::new(),
        ctor_bodies: HashMap::new(),
        global_bodies: HashMap::new(),
        model_bodies: HashMap::new(),
        field_inits: HashMap::new(),
        static_inits: Vec::new(),
        base: None,
    }
}

/// Builds the lexical scope of a class from the table (parameter names are
/// their display names).
fn scope_of_class(table: &Table, cid: ClassId) -> Scope {
    let def = table.class(cid);
    let mut scope = Scope::new();
    for tv in &def.params {
        scope.tvs.insert(table.tv_name(*tv), *tv);
    }
    for w in &def.wheres {
        if w.named {
            scope.mvs.insert(table.mv_name(w.mv), w.mv);
        }
    }
    scope
}

fn scope_of_model(table: &Table, mid: ModelId) -> Scope {
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
    scope
}

fn enabled_of(wheres: &[genus_types::WhereReq]) -> Vec<(genus_types::ConstraintInst, Model)> {
    wheres
        .iter()
        .map(|w| (w.inst.clone(), Model::Var(w.mv)))
        .collect()
}

/// The "self type" of a class: the class applied to its own parameters and
/// witnesses.
fn self_type(table: &Table, cid: ClassId) -> Type {
    let def = table.class(cid);
    Type::Class {
        id: cid,
        args: def.params.iter().map(|t| Type::Var(*t)).collect(),
        models: def.wheres.iter().map(|w| Model::Var(w.mv)).collect(),
    }
}

/// The self-model of a model declaration (enabled inside its own body,
/// enablement source 4 of section 4.4).
fn self_model(table: &Table, mid: ModelId) -> Model {
    let def = table.model(mid);
    Model::Decl {
        id: mid,
        type_args: def.tparams.iter().map(|t| Type::Var(*t)).collect(),
        model_args: def.wheres.iter().map(|w| Model::Var(w.mv)).collect(),
    }
}

/// Completes elided `with`-clause models in the signatures collected from
/// `from` on, using each declaration's own context (its `where` clauses) as
/// the enablement environment.
fn complete_signatures(table: &mut Table, diags: &mut Diagnostics, from: Start) {
    // Classes.
    for ci in from.classes..table.classes.len() {
        let cid = ClassId(ci as u32);
        let def = table.classes[ci].clone();
        let scope = scope_of_class(table, cid);
        let enabled = enabled_of(&def.wheres);
        let span = def.span;
        let mut ctx = BodyCtx::new(
            table,
            diags,
            scope.clone(),
            enabled.clone(),
            None,
            Type::void(),
        );
        let extends = def.extends.clone().map(|t| ctx.complete_type(t, span));
        let implements: Vec<Type> = def
            .implements
            .iter()
            .map(|t| ctx.complete_type(t.clone(), span))
            .collect();
        let fields: Vec<Type> = def
            .fields
            .iter()
            .map(|f| ctx.complete_type(f.ty.clone(), span))
            .collect();
        let ctor_params: Vec<Vec<Type>> = def
            .ctors
            .iter()
            .map(|c| {
                c.params
                    .iter()
                    .map(|(_, t)| ctx.complete_type(t.clone(), span))
                    .collect()
            })
            .collect();
        drop(ctx);
        // Methods get their own wheres added to the environment.
        let mut method_sigs = Vec::new();
        for m in &def.methods {
            let mut en = enabled.clone();
            en.extend(enabled_of(&m.wheres));
            let mut mscope = scope.clone();
            for tv in &m.tparams {
                mscope.tvs.insert(table.tv_name(*tv), *tv);
            }
            let mut mctx = BodyCtx::new(table, diags, mscope, en, None, Type::void());
            let params: Vec<Type> = m
                .params
                .iter()
                .map(|(_, t)| mctx.complete_type(t.clone(), m.span))
                .collect();
            let ret = mctx.complete_type(m.ret.clone(), m.span);
            method_sigs.push((params, ret));
        }
        let d = &mut table.classes[ci];
        d.extends = extends;
        d.implements = implements;
        for (f, t) in d.fields.iter_mut().zip(fields) {
            f.ty = t;
        }
        for (c, ps) in d.ctors.iter_mut().zip(ctor_params) {
            for (p, t) in c.params.iter_mut().zip(ps) {
                p.1 = t;
            }
        }
        for (m, (ps, ret)) in d.methods.iter_mut().zip(method_sigs) {
            for (p, t) in m.params.iter_mut().zip(ps) {
                p.1 = t;
            }
            m.ret = ret;
        }
    }
    // Models.
    for mi in from.models..table.models.len() {
        let mid = ModelId(mi as u32);
        let def = table.models[mi].clone();
        let scope = scope_of_model(table, mid);
        let mut enabled = enabled_of(&def.wheres);
        enabled.push((def.for_inst.clone(), self_model(table, mid)));
        let span = def.span;
        let mut ctx = BodyCtx::new(table, diags, scope, enabled, None, Type::void());
        let for_args: Vec<Type> = def
            .for_inst
            .args
            .iter()
            .map(|t| ctx.complete_type(t.clone(), span))
            .collect();
        let extends: Vec<Model> = def
            .extends
            .iter()
            .map(|m| ctx.complete_model(m.clone(), span))
            .collect();
        let methods: Vec<(Type, Vec<Type>, Type)> = def
            .methods
            .iter()
            .map(|m| {
                (
                    ctx.complete_type(m.receiver.clone(), m.span),
                    m.params
                        .iter()
                        .map(|(_, t)| ctx.complete_type(t.clone(), m.span))
                        .collect(),
                    ctx.complete_type(m.ret.clone(), m.span),
                )
            })
            .collect();
        drop(ctx);
        let d = &mut table.models[mi];
        d.for_inst.args = for_args;
        d.extends = extends;
        for (m, (recv, ps, ret)) in d.methods.iter_mut().zip(methods) {
            m.receiver = recv;
            for (p, t) in m.params.iter_mut().zip(ps) {
                p.1 = t;
            }
            m.ret = ret;
        }
    }
    // Globals.
    for gi in from.globals..table.globals.len() {
        let g = table.globals[gi].clone();
        let mut scope = Scope::new();
        for tv in &g.tparams {
            scope.tvs.insert(table.tv_name(*tv), *tv);
        }
        for w in &g.wheres {
            if w.named {
                scope.mvs.insert(table.mv_name(w.mv), w.mv);
            }
        }
        let enabled = enabled_of(&g.wheres);
        let mut ctx = BodyCtx::new(table, diags, scope, enabled, None, Type::void());
        let params: Vec<Type> = g
            .params
            .iter()
            .map(|(_, t)| ctx.complete_type(t.clone(), g.span))
            .collect();
        let ret = ctx.complete_type(g.ret.clone(), g.span);
        drop(ctx);
        let d = &mut table.globals[gi];
        for (p, t) in d.params.iter_mut().zip(params) {
            p.1 = t;
        }
        d.ret = ret;
    }
}

/// Checks and lowers into `checked` the bodies of the definitions owned by
/// the source file `only`. Ownership follows each definition's declaration
/// span, so an `enrich` method contributed to another unit's model is
/// checked with its *declaring* unit, and running this once per file
/// checks every body exactly once.
pub(crate) fn check_bodies_filter(
    checked: &mut CheckedProgram,
    diags: &mut Diagnostics,
    only: genus_common::FileId,
) {
    let owned = |span: genus_common::Span| span.file == only;
    let table = &mut checked.table;
    // Class members.
    for ci in 0..table.classes.len() {
        let cid = ClassId(ci as u32);
        if !owned(table.classes[ci].span) {
            continue;
        }
        let def = table.classes[ci].clone();
        let scope = scope_of_class(table, cid);
        let enabled = enabled_of(&def.wheres);
        let this_ty = self_type(table, cid);
        // Field initializers.
        for (fi, f) in def.fields.iter().enumerate() {
            if let Some(init) = &f.init {
                let mut ctx = BodyCtx::new(
                    table,
                    diags,
                    scope.clone(),
                    enabled.clone(),
                    if f.is_static {
                        None
                    } else {
                        Some(this_ty.clone())
                    },
                    Type::void(),
                );
                ctx.set_owner_class(cid);
                if !f.is_static {
                    ctx.declare_param(Symbol::intern("this"), this_ty.clone());
                }
                let h = ctx.check_expr(init);
                let h = ctx.coerce(h, &f.ty, init.span);
                drop(ctx);
                if f.is_static {
                    checked.static_inits.push((cid, fi, Arc::new(h)));
                } else {
                    checked.field_inits.insert((cid.0, fi as u32), Arc::new(h));
                }
            }
        }
        // Constructors.
        for (ki, ctor) in def.ctors.iter().enumerate() {
            let mut ctx = BodyCtx::new(
                table,
                diags,
                scope.clone(),
                enabled.clone(),
                Some(this_ty.clone()),
                Type::void(),
            );
            ctx.set_owner_class(cid);
            ctx.declare_param(Symbol::intern("this"), this_ty.clone());
            for (n, t) in &ctor.params {
                ctx.declare_param(*n, t.clone());
            }
            let block = ctx.check_block(&ctor.body);
            let num_locals = ctx.finish();
            checked.ctor_bodies.insert(
                (cid.0, ki as u32),
                Arc::new(hir::Body { num_locals, block }),
            );
        }
        // Methods.
        for (mi, m) in def.methods.iter().enumerate() {
            let Some(body) = &m.body else { continue };
            if m.is_native {
                continue;
            }
            let mut mscope = scope.clone();
            for tv in &m.tparams {
                mscope.tvs.insert(table.tv_name(*tv), *tv);
            }
            for w in &m.wheres {
                if w.named {
                    mscope.mvs.insert(table.mv_name(w.mv), w.mv);
                }
            }
            let mut en = enabled.clone();
            en.extend(enabled_of(&m.wheres));
            let mut ctx = BodyCtx::new(
                table,
                diags,
                mscope,
                en,
                if m.is_static {
                    None
                } else {
                    Some(this_ty.clone())
                },
                m.ret.clone(),
            );
            ctx.set_owner_class(cid);
            if !m.is_static {
                ctx.declare_param(Symbol::intern("this"), this_ty.clone());
            }
            for (n, t) in &m.params {
                ctx.declare_param(*n, t.clone());
            }
            let block = ctx.check_block(body);
            let num_locals = ctx.finish();
            checked.method_bodies.insert(
                (cid.0, mi as u32),
                Arc::new(hir::Body { num_locals, block }),
            );
        }
    }
    // Model methods.
    for mi in 0..table.models.len() {
        let mid = ModelId(mi as u32);
        let def = table.models[mi].clone();
        let scope = scope_of_model(table, mid);
        let mut enabled = enabled_of(&def.wheres);
        enabled.push((def.for_inst.clone(), self_model(table, mid)));
        for (ki, m) in def.methods.iter().enumerate() {
            if !owned(m.span) {
                continue;
            }
            let mut ctx = BodyCtx::new(
                table,
                diags,
                scope.clone(),
                enabled.clone(),
                if m.is_static {
                    None
                } else {
                    Some(m.receiver.clone())
                },
                m.ret.clone(),
            );
            if !m.is_static {
                ctx.declare_param(Symbol::intern("this"), m.receiver.clone());
            }
            for (n, t) in &m.params {
                ctx.declare_param(*n, t.clone());
            }
            let block = ctx.check_block(&m.body);
            let num_locals = ctx.finish();
            checked.model_bodies.insert(
                (mid.0, ki as u32),
                Arc::new(hir::Body { num_locals, block }),
            );
        }
    }
    // Globals.
    for gi in 0..table.globals.len() {
        if !owned(table.globals[gi].span) {
            continue;
        }
        let g = table.globals[gi].clone();
        let Some(body) = &g.body else { continue };
        if g.is_native {
            continue;
        }
        let mut scope = Scope::new();
        for tv in &g.tparams {
            scope.tvs.insert(table.tv_name(*tv), *tv);
        }
        for w in &g.wheres {
            if w.named {
                scope.mvs.insert(table.mv_name(w.mv), w.mv);
            }
        }
        let enabled = enabled_of(&g.wheres);
        let mut ctx = BodyCtx::new(table, diags, scope, enabled, None, g.ret.clone());
        for (n, t) in &g.params {
            ctx.declare_param(*n, t.clone());
        }
        let block = ctx.check_block(body);
        let num_locals = ctx.finish();
        checked
            .global_bodies
            .insert(gi as u32, Arc::new(hir::Body { num_locals, block }));
    }
}
