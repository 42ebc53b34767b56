//! The declaration table: the collected semantic view of a Genus program.

use crate::ty::{ConstraintInst, Model, MvId, TvId, Type, WhereReq};
use genus_common::{Span, Symbol};
use genus_syntax::ast;
use std::collections::HashMap;

/// Identifies a class or interface in a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ClassId(pub u32);

/// Identifies a constraint in a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConstraintId(pub u32);

/// Identifies a declared model in a [`Table`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ModelId(pub u32);

/// A collected class or interface.
#[derive(Debug, Clone)]
pub struct ClassDef {
    /// Declared name.
    pub name: Symbol,
    /// `true` for interfaces.
    pub is_interface: bool,
    /// `true` for abstract classes.
    pub is_abstract: bool,
    /// Type parameters.
    pub params: Vec<TvId>,
    /// Intrinsic `where` constraints — their witnesses are part of every
    /// instantiated type of this class (§4.5).
    pub wheres: Vec<WhereReq>,
    /// Superclass (`Object` for classes that do not declare one), `None`
    /// only for `Object` itself and for interfaces.
    pub extends: Option<Type>,
    /// Implemented (classes) or extended (interfaces) interfaces.
    pub implements: Vec<Type>,
    /// Fields.
    pub fields: Vec<FieldDef>,
    /// Constructors.
    pub ctors: Vec<CtorDef>,
    /// Methods.
    pub methods: Vec<MethodDef>,
    /// Declaration site.
    pub span: Span,
}

/// A collected field.
#[derive(Debug, Clone)]
pub struct FieldDef {
    /// Field name.
    pub name: Symbol,
    /// Field type (over the class's type parameters).
    pub ty: Type,
    /// Whether static.
    pub is_static: bool,
    /// Optional initializer (checked lazily with the class context).
    pub init: Option<ast::Expr>,
    /// Declaration site.
    pub span: Span,
}

/// A collected constructor.
#[derive(Debug, Clone)]
pub struct CtorDef {
    /// Parameter names and types.
    pub params: Vec<(Symbol, Type)>,
    /// Body (checked in a later phase).
    pub body: ast::Block,
    /// Declaration site.
    pub span: Span,
}

/// A collected method signature (class methods, interface methods, and
/// free-standing top-level methods).
#[derive(Debug, Clone)]
pub struct MethodDef {
    /// Method name.
    pub name: Symbol,
    /// Whether static.
    pub is_static: bool,
    /// Whether abstract (no body).
    pub is_abstract: bool,
    /// Whether implemented natively by the runtime.
    pub is_native: bool,
    /// Method-level type parameters.
    pub tparams: Vec<TvId>,
    /// Method-level `where` constraints (model genericity, §3.2).
    pub wheres: Vec<WhereReq>,
    /// Parameter names and types.
    pub params: Vec<(Symbol, Type)>,
    /// Return type.
    pub ret: Type,
    /// Body, if any (checked in a later phase).
    pub body: Option<ast::Block>,
    /// Declaration site.
    pub span: Span,
}

/// A collected constraint (a predicate over its parameters, §3.1).
#[derive(Debug, Clone)]
pub struct ConstraintDef {
    /// Constraint name.
    pub name: Symbol,
    /// Predicate parameters.
    pub params: Vec<TvId>,
    /// Prerequisite constraints (`extends`).
    pub prereqs: Vec<ConstraintInst>,
    /// Required operations.
    pub ops: Vec<ConstraintOp>,
    /// Per-parameter variance, filled in by [`crate::variance`].
    pub variance: Vec<crate::variance::Variance>,
    /// Declaration site.
    pub span: Span,
}

/// One operation required by a constraint.
#[derive(Debug, Clone)]
pub struct ConstraintOp {
    /// Operation name.
    pub name: Symbol,
    /// Whether `static` (invoked on the type: `T.zero()`).
    pub is_static: bool,
    /// Which constraint parameter is the receiver.
    pub receiver: TvId,
    /// Parameter names and types (over the constraint's parameters).
    pub params: Vec<(Symbol, Type)>,
    /// Return type.
    pub ret: Type,
    /// Declaration site.
    pub span: Span,
}

/// A collected model declaration.
#[derive(Debug, Clone)]
pub struct ModelDef {
    /// Model name.
    pub name: Symbol,
    /// Type parameters (parameterized models, Figure 5).
    pub tparams: Vec<TvId>,
    /// The model's own `where` constraints.
    pub wheres: Vec<WhereReq>,
    /// The constraint instantiation this model witnesses.
    pub for_inst: ConstraintInst,
    /// Inherited models (§5.3) — resolved model expressions.
    pub extends: Vec<Model>,
    /// Method definitions, including enrichments (marked).
    pub methods: Vec<ModelMethod>,
    /// Declaration site.
    pub span: Span,
}

/// A method definition in a model or enrichment. Receiver and parameter
/// types may be proper subtypes of the constrained types — models are
/// multimethods (§5.1).
#[derive(Debug, Clone)]
pub struct ModelMethod {
    /// Operation name.
    pub name: Symbol,
    /// Whether it implements a static constraint operation.
    pub is_static: bool,
    /// Receiver type.
    pub receiver: Type,
    /// Parameter names and types.
    pub params: Vec<(Symbol, Type)>,
    /// Return type.
    pub ret: Type,
    /// Body.
    pub body: ast::Block,
    /// Whether added by an `enrich` declaration.
    pub from_enrich: bool,
    /// Declaration site.
    pub span: Span,
}

/// A `use` declaration, possibly parameterized (§4.4, §4.7).
#[derive(Debug, Clone)]
pub struct UseDef {
    /// Type parameters of the parameterized form.
    pub tparams: Vec<TvId>,
    /// Subgoal constraints (`use [E where Cloneable[E] c] ...`).
    pub wheres: Vec<WhereReq>,
    /// The enabled model.
    pub model: Model,
    /// The constraint it is enabled for.
    pub for_inst: ConstraintInst,
    /// Declaration site.
    pub span: Span,
}

/// The collected program.
#[derive(Debug, Default, Clone)]
pub struct Table {
    /// All classes and interfaces.
    pub classes: Vec<ClassDef>,
    /// All constraints.
    pub constraints: Vec<ConstraintDef>,
    /// All declared models.
    pub models: Vec<ModelDef>,
    /// All `use` declarations.
    pub uses: Vec<UseDef>,
    /// Free-standing top-level methods.
    pub globals: Vec<MethodDef>,

    /// Name lookup for classes/interfaces.
    pub class_by_name: HashMap<Symbol, ClassId>,
    /// Name lookup for constraints.
    pub constraint_by_name: HashMap<Symbol, ConstraintId>,
    /// Name lookup for models.
    pub model_by_name: HashMap<Symbol, ModelId>,

    tv_names: Vec<Symbol>,
    tv_bounds: Vec<Option<Type>>,
    mv_names: Vec<Symbol>,

    /// Memo tables for table-pure queries (subtyping, prerequisite
    /// closures, conformance, resolution). Mutating methods that could
    /// invalidate existing keys clear it; see [`crate::cache`].
    pub cache: crate::cache::QueryCache,
}

impl Table {
    /// Creates an empty table.
    pub fn new() -> Self {
        Table::default()
    }

    /// Allocates a fresh type variable with a display name.
    pub fn fresh_tv(&mut self, name: Symbol) -> TvId {
        let id = TvId(self.tv_names.len() as u32);
        self.tv_names.push(name);
        self.tv_bounds.push(None);
        id
    }

    /// Allocates a fresh type variable with an upper bound (used by
    /// desugared `? extends T` wildcards).
    pub fn fresh_tv_bounded(&mut self, name: Symbol, bound: Option<Type>) -> TvId {
        let id = self.fresh_tv(name);
        self.tv_bounds[id.0 as usize] = bound;
        id
    }

    /// Allocates a fresh model variable with a display name.
    pub fn fresh_mv(&mut self, name: Symbol) -> MvId {
        let id = MvId(self.mv_names.len() as u32);
        self.mv_names.push(name);
        id
    }

    /// Display name of a type variable.
    pub fn tv_name(&self, tv: TvId) -> Symbol {
        self.tv_names[tv.0 as usize]
    }

    /// Upper bound of a type variable, if any.
    pub fn tv_bound(&self, tv: TvId) -> Option<&Type> {
        self.tv_bounds[tv.0 as usize].as_ref()
    }

    /// Sets the upper bound of a type variable.
    pub fn set_tv_bound(&mut self, tv: TvId, bound: Option<Type>) {
        self.tv_bounds[tv.0 as usize] = bound;
    }

    /// Display name of a model variable.
    pub fn mv_name(&self, mv: MvId) -> Symbol {
        self.mv_names[mv.0 as usize]
    }

    /// Number of allocated type variables.
    pub fn tv_count(&self) -> usize {
        self.tv_names.len()
    }

    /// Number of allocated model variables.
    pub fn mv_count(&self) -> usize {
        self.mv_names.len()
    }

    /// Looks up a class by id.
    pub fn class(&self, id: ClassId) -> &ClassDef {
        &self.classes[id.0 as usize]
    }

    /// Looks up a constraint by id.
    pub fn constraint(&self, id: ConstraintId) -> &ConstraintDef {
        &self.constraints[id.0 as usize]
    }

    /// Looks up a model by id.
    pub fn model(&self, id: ModelId) -> &ModelDef {
        &self.models[id.0 as usize]
    }

    /// Registers a class and indexes its name. Returns its id.
    pub fn add_class(&mut self, def: ClassDef) -> ClassId {
        self.cache.clear();
        let id = ClassId(self.classes.len() as u32);
        self.class_by_name.insert(def.name, id);
        self.classes.push(def);
        id
    }

    /// Registers a constraint and indexes its name. Returns its id.
    pub fn add_constraint(&mut self, def: ConstraintDef) -> ConstraintId {
        self.cache.clear();
        let id = ConstraintId(self.constraints.len() as u32);
        self.constraint_by_name.insert(def.name, id);
        self.constraints.push(def);
        id
    }

    /// Registers a model and indexes its name. Returns its id.
    pub fn add_model(&mut self, def: ModelDef) -> ModelId {
        self.cache.clear();
        let id = ModelId(self.models.len() as u32);
        self.model_by_name.insert(def.name, id);
        self.models.push(def);
        id
    }

    /// Finds a class by name.
    pub fn lookup_class(&self, name: Symbol) -> Option<ClassId> {
        self.class_by_name.get(&name).copied()
    }

    /// Finds a constraint by name.
    pub fn lookup_constraint(&self, name: Symbol) -> Option<ConstraintId> {
        self.constraint_by_name.get(&name).copied()
    }

    /// Finds a model by name.
    pub fn lookup_model(&self, name: Symbol) -> Option<ModelId> {
        self.model_by_name.get(&name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_vars_are_distinct() {
        let mut t = Table::new();
        let a = t.fresh_tv(Symbol::intern("T"));
        let b = t.fresh_tv(Symbol::intern("U"));
        assert_ne!(a, b);
        assert_eq!(t.tv_name(a).as_str(), "T");
        assert_eq!(t.tv_name(b).as_str(), "U");
        let m = t.fresh_mv(Symbol::intern("c"));
        assert_eq!(t.mv_name(m).as_str(), "c");
    }

    #[test]
    fn bounded_tv() {
        let mut t = Table::new();
        let a = t.fresh_tv_bounded(Symbol::intern("U"), Some(Type::Null));
        assert_eq!(t.tv_bound(a), Some(&Type::Null));
    }
}
