//! The heterogeneous translation (§7.3): per-tuple function cloning and
//! call devirtualization.
//!
//! A worklist walks every reachable function. At each call site whose
//! type/model-argument tuple is a *closed* term (see [`super::subst`]),
//! the callee is cloned with the tuple substituted through its spec
//! tables and the site is rewritten to [`Op::CallDirect`] — no runtime
//! environment, no dispatch. Clones are enqueued and rewritten in turn,
//! so specialization cascades: `isort[int]`'s body sees its inner
//! `CallModel compareTo` with a closed witness and devirtualizes it all
//! the way down to a primitive built-in.
//!
//! Safety mirrors the dynamic dispatch rules exactly:
//!
//! - a `CallModel` through a **declared model** is only devirtualized
//!   when exactly one candidate matches the name/kind/arity *and* the
//!   static receiver/argument types prove it applicable for every value
//!   that can reach the site; a null-receiver check re-creates the
//!   dynamic path's `NullPointer` trap;
//! - a `CallModel` through a **natural model** becomes a virtual call
//!   (instance receivers — bit-for-bit the dynamic behaviour, plus an
//!   inline-cache site) or a static/primitive call (receiver types);
//! - a `CallVirtual` — from the lowering or from the natural-model rule
//!   above — becomes a direct call by **class-hierarchy analysis** when
//!   its receiver's static type is a ground, non-interface class type
//!   `C[τ̄]`, its method-level arguments are closed, the method resolves
//!   from `C` to a bodied, non-native implementation, and no strict
//!   subclass of `C` declares a concrete instance method with the same
//!   name and arity. The class table is closed — one `VmProgram` is
//!   compiled per checked program, and a class can only be a subtype of
//!   `C` through its superclass chain — so every non-null receiver
//!   resolves to that one target with `C`'s bindings; a null check
//!   re-creates the dynamic path's `NullPointer` trap;
//! - everything else — open witnesses (`Open`-bound model variables,
//!   existential packages), multi-candidate multimethods, over-budget
//!   requests — keeps the dictionary-passing original.

use super::subst::{
    contains_existential, model_closed, mv_to_model, rt_to_type, ty_closed, ty_ground,
};
use crate::bytecode::{
    DirectSpec, FuncId, ModelSpec, Op, PrimSpec, StaticSpec, VirtSpec, VmProgram,
};
use genus_check::CheckedProgram;
use genus_common::Symbol;
use genus_interp::rtti::{self, MEnv, TEnv};
use genus_interp::{ModelValue, RtType};
use genus_types::{ClassId, Model, ModelId, MvId, Subst, TvId, Type};
use std::collections::HashMap;

/// Max specialized clones per original function. Beyond this the site
/// keeps dictionary passing — the budget that bounds code growth under
/// polymorphic recursion (`f[T]` calling `f[Box[T]]`).
const MAX_CLONES_PER_FUNC: usize = 8;
/// Global clone cap across the whole program.
const MAX_CLONES_TOTAL: usize = 256;

/// Identity of an original (pre-specialization) body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    /// `(class, method index)`.
    Method(u32, u32),
    /// Global index.
    Global(u32),
    /// `(model, method index)`.
    ModelMethod(u32, u32),
}

/// Canonical binding tuple: the memo key for one specialization.
#[derive(PartialEq, Eq, Hash)]
struct SpecKey {
    target: Target,
    tys: Vec<(TvId, Type)>,
    models: Vec<(MvId, Model)>,
}

/// Runs specialization in place over the functions `live` flags and the
/// clones it makes for them.
pub fn specialize(code: &mut VmProgram, prog: &CheckedProgram, live: &[bool]) {
    let mut sp = Specializer {
        code,
        prog,
        done: HashMap::new(),
        clones_per: HashMap::new(),
        total_clones: 0,
        queue: Vec::new(),
        reads_env: HashMap::new(),
    };
    sp.queue.extend(
        (0..live.len() as u32)
            .map(FuncId)
            .filter(|f| live[f.0 as usize]),
    );
    let mut i = 0;
    while i < sp.queue.len() {
        let fid = sp.queue[i];
        i += 1;
        sp.rewrite_fn(fid);
    }
}

struct Specializer<'a> {
    code: &'a mut VmProgram,
    prog: &'a CheckedProgram,
    done: HashMap<SpecKey, Option<FuncId>>,
    clones_per: HashMap<Target, usize>,
    total_clones: usize,
    queue: Vec<FuncId>,
    /// Per original function, whether its body reads its type/model
    /// bindings (see [`Specializer::reads_env`]).
    reads_env: HashMap<FuncId, bool>,
}

impl Specializer<'_> {
    fn rewrite_fn(&mut self, fid: FuncId) {
        // Rewrite in place, one op at a time, so spec tables (and other
        // functions, for cloning) stay mutably reachable. A request that
        // clones this very function (`f[T]` calling `f[int]`) copies a
        // partly rewritten body, which is sound: only closed sites are
        // rewritten, and their direct calls mean the same under any
        // substitution.
        for pc in 0..self.code.funcs[fid.0 as usize].code.len() {
            let new = match self.code.funcs[fid.0 as usize].code[pc] {
                Op::CallStatic { dst, spec } => self.rewrite_static(dst, spec),
                Op::CallGlobal { dst, spec } => self.rewrite_global(dst, spec),
                Op::CallModel { dst, spec, .. } => self.rewrite_model(dst, spec),
                Op::CallVirtual {
                    dst, recv, spec, ..
                } => {
                    let s = &self.code.virt_specs[spec as usize];
                    // Most receivers are open: test before copying.
                    if s.recv_ty.as_ref().is_some_and(ty_ground) {
                        let s = s.clone();
                        self.rewrite_virtual(dst, recv, &s)
                    } else {
                        None
                    }
                }
                _ => None,
            };
            if let Some(new) = new {
                self.code.funcs[fid.0 as usize].code[pc] = new;
            }
        }
    }

    // ------------------------------------------------------------------
    // Site rewrites
    // ------------------------------------------------------------------

    /// `CallStatic` with closed type/model arguments: direct call to the
    /// original (non-generic) or a specialized clone. The dynamic path
    /// binds only *method-level* parameters for this op, so that is all
    /// the substitution carries.
    fn rewrite_static(&mut self, dst: u16, spec: u32) -> Option<Op> {
        let s = self.code.static_specs[spec as usize].clone();
        let def = self.prog.table.class(s.class);
        let m = &def.methods[s.method];
        if m.is_native
            || !self
                .code
                .methods
                .contains_key(&(s.class.0, s.method as u32))
        {
            return None;
        }
        if !s.targs.iter().all(ty_closed) || !s.margs.iter().all(model_closed) {
            return None;
        }
        let orig = self.code.methods[&(s.class.0, s.method as u32)];
        let tys = m
            .tparams
            .iter()
            .copied()
            .zip(s.targs.iter().cloned())
            .collect();
        let models = m
            .wheres
            .iter()
            .map(|w| w.mv)
            .zip(s.margs.iter().cloned())
            .collect();
        let callee = self.request(
            Target::Method(s.class.0, s.method as u32),
            orig,
            tys,
            models,
        )?;
        Some(self.direct(dst, callee, None, false, s.args))
    }

    /// `CallGlobal` with closed type/model arguments.
    fn rewrite_global(&mut self, dst: u16, spec: u32) -> Option<Op> {
        let s = self.code.global_specs[spec as usize].clone();
        let g = &self.prog.table.globals[s.index];
        if g.is_native || !self.code.globals.contains_key(&(s.index as u32)) {
            return None;
        }
        if !s.targs.iter().all(ty_closed) || !s.margs.iter().all(model_closed) {
            return None;
        }
        let orig = self.code.globals[&(s.index as u32)];
        let tys = g
            .tparams
            .iter()
            .copied()
            .zip(s.targs.iter().cloned())
            .collect();
        let models = g
            .wheres
            .iter()
            .map(|w| w.mv)
            .zip(s.margs.iter().cloned())
            .collect();
        let callee = self.request(Target::Global(s.index as u32), orig, tys, models)?;
        Some(self.direct(dst, callee, None, false, s.args))
    }

    /// `CallModel` with a closed witness: devirtualize per the model kind.
    fn rewrite_model(&mut self, dst: u16, spec: u32) -> Option<Op> {
        let s = self.code.model_specs[spec as usize].clone();
        if !model_closed(&s.model) {
            self.code.opt_stats.dynamic_fallbacks += 1;
            return None;
        }
        let (tenv, menv) = (TEnv::new(), MEnv::new());
        let new = match rtti::eval_model(self.prog, &tenv, &menv, &s.model) {
            ModelValue::Natural { .. } => self.rewrite_natural(dst, &s),
            ModelValue::Decl { id, targs, margs } => self.rewrite_decl(dst, &s, id, &targs, &margs),
        };
        if new.is_some() {
            self.code.opt_stats.call_model_devirted += 1;
        } else {
            self.code.opt_stats.dynamic_fallbacks += 1;
        }
        new
    }

    /// Natural-model operation: the dynamic path is `prepare_virtual` for
    /// instance receivers and a static-method/primitive lookup for type
    /// receivers. Reproduce it with the cheapest equivalent op.
    fn rewrite_natural(&mut self, dst: u16, s: &ModelSpec) -> Option<Op> {
        let (tenv, menv) = (TEnv::new(), MEnv::new());
        match s.recv {
            Some(recv) => {
                // A statically primitive receiver can never be an object,
                // a string, or null: the dynamic path lands in the
                // primitive built-ins unconditionally.
                if let Some(rt) = &s.recv_ty {
                    if ty_closed(rt) && !contains_existential(rt) {
                        if let RtType::Prim(p) = rtti::eval_type(self.prog, &tenv, &menv, rt) {
                            let idx = self.code.prim_specs.len() as u32;
                            self.code.prim_specs.push(PrimSpec {
                                prim: p,
                                name: s.name,
                                recv: Some(recv),
                                args: s.args.clone(),
                            });
                            return Some(Op::PrimCall { dst, spec: idx });
                        }
                    }
                }
                // Otherwise the dynamic path is exactly a virtual call
                // with no method-level arguments — rewrite to one, which
                // skips the per-call witness evaluation and gains an
                // inline-cache site, or straight to a direct call when
                // class-hierarchy analysis proves the target.
                let v = VirtSpec {
                    name: s.name,
                    arity: s.args.len(),
                    targs: vec![],
                    margs: vec![],
                    args: s.args.clone(),
                    recv_ty: s.recv_ty.clone(),
                };
                if let Some(op) = self.rewrite_virtual(dst, recv, &v) {
                    return Some(op);
                }
                let idx = self.code.virt_specs.len() as u32;
                self.code.virt_specs.push(v);
                let site = self.fresh_site();
                Some(Op::CallVirtual {
                    dst,
                    recv,
                    spec: idx,
                    site,
                })
            }
            None => {
                let srt = s.static_recv.as_ref()?;
                if !ty_closed(srt) || contains_existential(srt) {
                    return None;
                }
                match rtti::eval_type(self.prog, &tenv, &menv, srt) {
                    RtType::Prim(p) => {
                        let idx = self.code.prim_specs.len() as u32;
                        self.code.prim_specs.push(PrimSpec {
                            prim: p,
                            name: s.name,
                            recv: None,
                            args: s.args.clone(),
                        });
                        Some(Op::PrimCall { dst, spec: idx })
                    }
                    RtType::Class {
                        id,
                        args: cargs,
                        models: cmodels,
                    } => {
                        let def = self.prog.table.class(id);
                        let mi = def.methods.iter().position(|m| {
                            m.is_static && m.name == s.name && m.params.len() == s.args.len()
                        })?;
                        let m = &def.methods[mi];
                        if m.is_native {
                            // Native statics ignore the class environment,
                            // so a plain `CallStatic` (which passes empty
                            // class bindings) reproduces the dynamic path.
                            let idx = self.code.static_specs.len() as u32;
                            self.code.static_specs.push(StaticSpec {
                                class: id,
                                method: mi,
                                targs: vec![],
                                margs: vec![],
                                args: s.args.clone(),
                            });
                            return Some(Op::CallStatic { dst, spec: idx });
                        }
                        if !self.code.methods.contains_key(&(id.0, mi as u32)) {
                            return None;
                        }
                        // The dynamic path binds the *class* parameters
                        // from the receiver type; specialize under them.
                        let orig = self.code.methods[&(id.0, mi as u32)];
                        let tys = def
                            .params
                            .iter()
                            .copied()
                            .zip(cargs.iter().map(rt_to_type))
                            .collect();
                        let models = def
                            .wheres
                            .iter()
                            .map(|w| w.mv)
                            .zip(cmodels.iter().map(mv_to_model))
                            .collect();
                        let callee =
                            self.request(Target::Method(id.0, mi as u32), orig, tys, models)?;
                        Some(self.direct(dst, callee, None, false, s.args.clone()))
                    }
                    _ => None,
                }
            }
        }
    }

    /// `CallVirtual` by class-hierarchy analysis (see the module docs for
    /// the four conditions). The dynamic path resolves the target from
    /// the receiver's class and binds the declaring class's parameters
    /// from the receiver's instantiation viewed at that class; with a
    /// ground static type `C[τ̄]` and no override below `C`, both are
    /// the same for every non-null receiver, so the callee is bound once.
    fn rewrite_virtual(&mut self, dst: u16, recv: u16, s: &VirtSpec) -> Option<Op> {
        let rt = s.recv_ty.as_ref()?;
        if !ty_ground(rt) || !s.targs.iter().all(ty_closed) || !s.margs.iter().all(model_closed) {
            return None;
        }
        let (tenv, menv) = (TEnv::new(), MEnv::new());
        let RtType::Class { id, args, models } = rtti::eval_type(self.prog, &tenv, &menv, rt)
        else {
            return None;
        };
        if self.prog.table.class(id).is_interface {
            return None;
        }
        let (cid, mi, cargs, cmodels) =
            rtti::find_virtual(self.prog, id, &args, &models, s.name, s.arity)?;
        let def = self.prog.table.class(cid);
        let m = &def.methods[mi];
        if m.is_native || m.body.is_none() || self.overridden_below(id, s.name, s.arity) {
            return None;
        }
        let orig = *self.code.methods.get(&(cid.0, mi as u32))?;
        let tys = def
            .params
            .iter()
            .copied()
            .zip(cargs.iter().map(rt_to_type))
            .chain(m.tparams.iter().copied().zip(s.targs.iter().cloned()))
            .collect();
        let models = def
            .wheres
            .iter()
            .map(|w| w.mv)
            .zip(cmodels.iter().map(mv_to_model))
            .chain(m.wheres.iter().map(|w| w.mv).zip(s.margs.iter().cloned()))
            .collect();
        let callee = self.request(Target::Method(cid.0, mi as u32), orig, tys, models)?;
        self.code.opt_stats.calls_devirted += 1;
        Some(self.direct(dst, callee, Some(recv), true, s.args.clone()))
    }

    /// Whether a strict subclass of `class` declares a concrete instance
    /// method `name`/`arity` — a possible target other than the one
    /// resolved from `class` itself.
    fn overridden_below(&self, class: ClassId, name: Symbol, arity: usize) -> bool {
        let table = &self.prog.table;
        (0..table.classes.len() as u32).map(ClassId).any(|d| {
            let declares = table.class(d).methods.iter().any(|m| {
                m.name == name
                    && m.params.len() == arity
                    && !m.is_static
                    && (m.body.is_some() || m.is_native)
            });
            declares && d != class && self.is_subclass(d, class)
        })
    }

    /// Whether `class`'s superclass chain reaches `ancestor`.
    fn is_subclass(&self, class: ClassId, ancestor: ClassId) -> bool {
        let mut cur = Some(class);
        while let Some(c) = cur {
            if c == ancestor {
                return true;
            }
            cur = rtti::superclass(self.prog, c);
        }
        false
    }

    /// Declared-model operation (a multimethod, §5.1): provable only when
    /// exactly one candidate matches and the static receiver/argument
    /// types guarantee it applicable for every value reaching the site.
    fn rewrite_decl(
        &mut self,
        dst: u16,
        s: &ModelSpec,
        id: ModelId,
        targs: &[RtType],
        margs: &[ModelValue],
    ) -> Option<Op> {
        let mut cands = Vec::new();
        rtti::model_candidates(self.prog, id, targs, margs, &mut cands);
        let is_static = s.recv.is_none();
        let mut matching = cands.iter().filter(|c| {
            let m = &self.prog.table.model(c.0).methods[c.1];
            m.name == s.name && m.is_static == is_static && m.params.len() == s.args.len()
        });
        // More than one candidate would need the dynamic specificity
        // ordering over runtime types; keep the multimethod dispatch.
        let (mid, mi, tenv, menv) = matching.next()?;
        if matching.next().is_some() {
            return None;
        }
        let (mid, mi) = (*mid, *mi);
        let m = &self.prog.table.model(mid).methods[mi];
        let recv_t = rtti::eval_type(self.prog, tenv, menv, &m.receiver);
        let (empty_t, empty_m) = (TEnv::new(), MEnv::new());
        // Receiver guarantee.
        let null_check = if is_static {
            // Static operations match the receiver *type* exactly.
            let srt = s.static_recv.as_ref()?;
            if !ty_closed(srt) || contains_existential(srt) {
                return None;
            }
            if rtti::eval_type(self.prog, &empty_t, &empty_m, srt) != recv_t {
                return None;
            }
            false
        } else {
            // Instance operations need every possible dynamic receiver
            // type to be a subtype of the candidate's receiver type —
            // guaranteed by soundness when the *static* type already is.
            // Null receivers make no candidate applicable and fall back
            // to a "call on null" trap, which the null check re-creates.
            let rt = s.recv_ty.as_ref()?;
            if !ty_closed(rt) || contains_existential(rt) {
                return None;
            }
            let vrt = rtti::eval_type(self.prog, &empty_t, &empty_m, rt);
            if !rtti::rt_subtype(self.prog, &vrt, &recv_t) {
                return None;
            }
            !matches!(vrt, RtType::Prim(_))
        };
        // Argument guarantees: the dynamic rule accepts any null argument
        // and any value for a primitive-typed parameter; otherwise the
        // static argument type must already prove the subtyping.
        for (i, (_, pt)) in m.params.iter().enumerate() {
            let param_t = rtti::eval_type(self.prog, tenv, menv, pt);
            if matches!(param_t, RtType::Prim(_)) {
                continue;
            }
            let at = s.arg_tys.get(i)?;
            if !ty_closed(at) || contains_existential(at) {
                return None;
            }
            let art = rtti::eval_type(self.prog, &empty_t, &empty_m, at);
            if !rtti::rt_subtype(self.prog, &art, &param_t) {
                return None;
            }
        }
        // Clone the model method under the candidate's environment.
        let orig = *self.code.model_methods.get(&(mid.0, mi as u32))?;
        let tys = tenv.iter().map(|(tv, t)| (*tv, rt_to_type(t))).collect();
        let models = menv.iter().map(|(mv, m)| (*mv, mv_to_model(m))).collect();
        let callee = self.request(Target::ModelMethod(mid.0, mi as u32), orig, tys, models)?;
        Some(self.direct(dst, callee, s.recv, null_check, s.args.clone()))
    }

    // ------------------------------------------------------------------
    // Clone management
    // ------------------------------------------------------------------

    /// Returns the function to call directly for `target` under the given
    /// bindings: the original itself when nothing needs substituting, a
    /// (possibly memoized) specialized clone otherwise, or `None` when
    /// the clone budget declines the request.
    fn request(
        &mut self,
        target: Target,
        orig: FuncId,
        mut tys: Vec<(TvId, Type)>,
        mut models: Vec<(MvId, Model)>,
    ) -> Option<FuncId> {
        if tys.is_empty() && models.is_empty() || !self.reads_env(orig) {
            // Non-generic callee, or one whose body never reads its
            // bindings (`ArrayList.get`): a clone would run exactly like
            // the shared body under an empty environment — call that.
            return Some(orig);
        }
        tys.sort_by_key(|(v, _)| *v);
        models.sort_by_key(|(v, _)| *v);
        let key = SpecKey {
            target,
            tys,
            models,
        };
        if let Some(r) = self.done.get(&key) {
            return *r;
        }
        let per = self.clones_per.entry(target).or_insert(0);
        if *per >= MAX_CLONES_PER_FUNC || self.total_clones >= MAX_CLONES_TOTAL {
            self.code.opt_stats.budget_fallbacks += 1;
            self.done.insert(key, None);
            return None;
        }
        *per += 1;
        self.total_clones += 1;
        let mut subst = Subst::new();
        for (v, t) in &key.tys {
            subst.tys.insert(*v, t.clone());
        }
        for (v, m) in &key.models {
            subst.models.insert(*v, m.clone());
        }
        let fid = self.clone_func(orig, &subst);
        self.code.opt_stats.funcs_specialized += 1;
        // Register before the clone's own body is rewritten (it happens
        // later, off the queue) so recursive requests memo-hit instead of
        // cloning forever.
        self.done.insert(key, Some(fid));
        self.queue.push(fid);
        Some(fid)
    }

    /// Whether `f`'s body can observe its type/model bindings: some term
    /// it evaluates is open, or a specialized clone could rewrite one of
    /// its sites (a receiver type or model-dispatch type that turns
    /// ground under substitution). When neither holds, a clone equals
    /// the original run with an empty environment.
    fn reads_env(&mut self, f: FuncId) -> bool {
        if let Some(&r) = self.reads_env.get(&f) {
            return r;
        }
        let c = &*self.code;
        let open = |t: &Type| !ty_closed(t);
        let open_m = |m: &Model| !model_closed(m);
        let r = c.funcs[f.0 as usize].code.iter().any(|op| match *op {
            Op::NewArray { elem: ty, .. }
            | Op::InstanceOf { ty, .. }
            | Op::Cast { ty, .. }
            | Op::DefaultValue { ty, .. } => open(&c.types[ty as usize]),
            Op::Pack { spec, .. } => {
                let p = &c.pack_specs[spec as usize];
                p.types.iter().any(open) || p.models.iter().any(open_m)
            }
            Op::Open { .. } => true,
            Op::CallVirtual { spec, .. } => {
                let v = &c.virt_specs[spec as usize];
                v.targs.iter().any(open)
                    || v.margs.iter().any(open_m)
                    || v.recv_ty.as_ref().is_some_and(open)
            }
            Op::CallStatic { spec, .. } => {
                let v = &c.static_specs[spec as usize];
                v.targs.iter().any(open) || v.margs.iter().any(open_m)
            }
            Op::CallGlobal { spec, .. } => {
                let v = &c.global_specs[spec as usize];
                v.targs.iter().any(open) || v.margs.iter().any(open_m)
            }
            Op::CallModel { spec, .. } => {
                let v = &c.model_specs[spec as usize];
                open_m(&v.model)
                    || v.static_recv.as_ref().is_some_and(open)
                    || v.recv_ty.as_ref().is_some_and(open)
                    || v.arg_tys.iter().any(open)
            }
            Op::New { spec, .. } => {
                let v = &c.new_specs[spec as usize];
                v.targs.iter().any(open) || v.models.iter().any(open_m)
            }
            _ => false,
        });
        self.reads_env.insert(f, r);
        r
    }

    /// Clones `orig` with `s` applied to every type/model term its code
    /// references, appending fresh spec-table entries (tables only grow,
    /// so existing indices stay valid). Virtual sites in the clone get
    /// fresh inline-cache ids — clone-local caches stay monomorphic.
    fn clone_func(&mut self, orig: FuncId, s: &Subst) -> FuncId {
        let mut f = self.code.funcs[orig.0 as usize].clone();
        f.name = format!("{} <spec>", f.name);
        for op in &mut f.code {
            match op {
                Op::NewArray { elem: ty, .. }
                | Op::InstanceOf { ty, .. }
                | Op::Cast { ty, .. }
                | Op::DefaultValue { ty, .. } => {
                    let t = s.apply(&self.code.types[*ty as usize]);
                    *ty = self.code.types.len() as u32;
                    self.code.types.push(t);
                }
                Op::Pack { spec, .. } => {
                    let mut p = self.code.pack_specs[*spec as usize].clone();
                    p.types = p.types.iter().map(|t| s.apply(t)).collect();
                    p.models = p.models.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.pack_specs.len() as u32;
                    self.code.pack_specs.push(p);
                }
                Op::CallVirtual { spec, site, .. } => {
                    let mut v = self.code.virt_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.margs = v.margs.iter().map(|m| s.apply_model(m)).collect();
                    v.recv_ty = v.recv_ty.as_ref().map(|t| s.apply(t));
                    *spec = self.code.virt_specs.len() as u32;
                    self.code.virt_specs.push(v);
                    *site = self.fresh_site();
                }
                Op::CallStatic { spec, .. } => {
                    let mut v = self.code.static_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.margs = v.margs.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.static_specs.len() as u32;
                    self.code.static_specs.push(v);
                }
                Op::CallGlobal { spec, .. } => {
                    let mut v = self.code.global_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.margs = v.margs.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.global_specs.len() as u32;
                    self.code.global_specs.push(v);
                }
                Op::CallModel { spec, site, .. } => {
                    let mut v = self.code.model_specs[*spec as usize].clone();
                    v.model = s.apply_model(&v.model);
                    v.static_recv = v.static_recv.as_ref().map(|t| s.apply(t));
                    v.recv_ty = v.recv_ty.as_ref().map(|t| s.apply(t));
                    v.arg_tys = v.arg_tys.iter().map(|t| s.apply(t)).collect();
                    *spec = self.code.model_specs.len() as u32;
                    self.code.model_specs.push(v);
                    *site = self.fresh_model_site();
                }
                Op::New { spec, .. } => {
                    let mut v = self.code.new_specs[*spec as usize].clone();
                    v.targs = v.targs.iter().map(|t| s.apply(t)).collect();
                    v.models = v.models.iter().map(|m| s.apply_model(m)).collect();
                    *spec = self.code.new_specs.len() as u32;
                    self.code.new_specs.push(v);
                }
                // `Open` binds fresh variables at run time (its spec holds
                // ids, not terms) and everything else carries no types.
                _ => {}
            }
        }
        let fid = FuncId(self.code.funcs.len() as u32);
        self.code.funcs.push(f);
        fid
    }

    fn direct(
        &mut self,
        dst: u16,
        func: FuncId,
        recv: Option<u16>,
        null_check: bool,
        args: Vec<u16>,
    ) -> Op {
        let spec = self.code.direct_specs.len() as u32;
        self.code.direct_specs.push(DirectSpec {
            func,
            recv,
            null_check,
            args,
        });
        self.code.opt_stats.calls_directed += 1;
        Op::CallDirect { dst, spec }
    }

    fn fresh_site(&mut self) -> u32 {
        let s = self.code.num_sites as u32;
        self.code.num_sites += 1;
        s
    }

    fn fresh_model_site(&mut self) -> u32 {
        let s = self.code.num_model_sites as u32;
        self.code.num_model_sites += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use crate::bytecode::{Op, VmProgram};
    use crate::opt::compile_specialized;
    use crate::{compile_optimized, Vm};
    use genus_check::check_sources_report;
    use std::sync::Arc;

    /// One function per class-hierarchy-analysis case; the name says
    /// whether O2 may make its one virtual call direct.
    const SRC: &str = "
        interface Named { String label(); }
        class Animal implements Named {
          String name;
          Animal(String name) { this.name = name; }
          String sound() { return \"...\"; }
          String describe() { return name + \" says \" + sound(); }
          String label() { return name; }
          boolean equals(Animal o) { return name.equals(o.name); }
        }
        class Dog extends Animal {
          Dog(String name) { this.name = name; }
          String sound() { return \"woof\"; }
        }
        class Puppy extends Dog {
          Puppy(String name) { this.name = name; }
        }
        class Box[T] {
          T v;
          Box(T v) { this.v = v; }
          T get() { return v; }
          T[] fresh() { return new T[1]; }
        }
        String directNoOverrideBelow(Dog d) { return d.sound(); }
        String directInherited(Puppy p) { return p.describe(); }
        int directClosedArgs(Box[int] b) { return b.get(); }
        int directClone(Box[int] b) { return b.fresh().length; }
        String dynamicOverrideBelow(Animal a) { return a.sound(); }
        String dynamicInterface(Named n) { return n.label(); }
        boolean dynamicExistential(Box[?] b) { return b.get() == null; }
        // Specialized at `Animal`, the natural model's `hashCode` is a
        // virtual call whose one target is `Object`'s native method.
        int dynamicNative[T](T x) where Hashable[T] { return x.hashCode(); }
        T dynamicOpenArgs[T](Box[T] b) { return b.get(); }
        int main() {
          Dog d = new Puppy(\"rex\");
          String s = directNoOverrideBelow(d) + directInherited(new Puppy(\"bit\"))
            + dynamicOverrideBelow(d) + dynamicInterface(d);
          Box[int] b = new Box[int](40);
          return directClosedArgs(b) + directClone(b) + dynamicOpenArgs[int](b) - 39 + s.length()
            + dynamicNative[Animal](d) * 0;
        }";

    /// `global name`'s `CallDirect`, `CallVirtual` and `Inline` counts.
    fn ops(code: &VmProgram, name: &str) -> (usize, usize, usize) {
        let f = code
            .funcs
            .iter()
            .find(|f| f.name == format!("global {name}"))
            .unwrap_or_else(|| panic!("no function `{name}`"));
        let count = |pred: fn(&Op) -> bool| f.code.iter().filter(|op| pred(op)).count();
        (
            count(|op| matches!(op, Op::CallDirect { .. })),
            count(|op| matches!(op, Op::CallVirtual { .. })),
            count(|op| matches!(op, Op::Inline { .. })),
        )
    }

    fn calls(code: &VmProgram, name: &str) -> (usize, usize) {
        let (direct, virt, _) = ops(code, name);
        (direct, virt)
    }

    /// The name of the function `global name`'s direct call targets.
    fn direct_callee(code: &VmProgram, name: &str) -> String {
        let f = code
            .funcs
            .iter()
            .find(|f| f.name == format!("global {name}"))
            .unwrap_or_else(|| panic!("no function `{name}`"));
        let spec = f
            .code
            .iter()
            .find_map(|op| match op {
                Op::CallDirect { spec, .. } => Some(*spec),
                _ => None,
            })
            .expect("a direct call");
        let callee = code.direct_specs[spec as usize].func;
        code.funcs[callee.0 as usize].name.clone()
    }

    #[test]
    fn cha_rewrites_exactly_the_closed_single_target_sites() {
        let mut report = check_sources_report(&[("t.genus", SRC)]);
        let prog = report.program.take().expect("test program must check");
        // The specializer's own output: the inliner later replaces some
        // of these direct calls with the callee's body.
        let code = compile_specialized(&prog);
        for name in [
            "directNoOverrideBelow",
            "directInherited",
            "directClosedArgs",
            "directClone",
        ] {
            assert_eq!(calls(&code, name), (1, 0), "{name} must become direct");
        }
        // `get` never reads its bindings, so it needs no clone; `fresh`
        // allocates a `T[]` and is cloned at `int`.
        assert_eq!(direct_callee(&code, "directClosedArgs"), "Box::get");
        assert_eq!(direct_callee(&code, "directClone"), "Box::fresh <spec>");
        for name in [
            "dynamicOverrideBelow",
            "dynamicInterface",
            "dynamicExistential",
            // The generic original has no virtual call; its clone at
            // `Animal` does.
            "dynamicNative <spec>",
            "dynamicOpenArgs",
        ] {
            assert_eq!(calls(&code, name), (0, 1), "{name} must stay dynamic");
        }
        assert!(code.opt_stats.calls_devirted >= 3);
        // O0 keeps every site dynamic and computes the same answer.
        let o0 = compile_optimized(&prog, 0);
        assert_eq!(o0.opt_stats.calls_devirted, 0);
        assert_eq!(calls(&o0, "directNoOverrideBelow"), (0, 1));
        let run = |code: VmProgram| {
            let mut vm = Vm::with_code(&prog, Arc::new(code));
            let v = vm.run_main().expect("runs");
            vm.render(&v)
        };
        assert_eq!(run(code), run(o0));
    }

    /// What the O2 inliner makes of the same program: the direct calls to
    /// one-field or one-constant leaves become their bodies, calls to
    /// bodies that concatenate or allocate stay framed, and dynamic
    /// sites are untouched.
    #[test]
    fn inliner_splices_exactly_the_leaf_targets() {
        let mut report = check_sources_report(&[("t.genus", SRC)]);
        let prog = report.program.take().expect("test program must check");
        let code = compile_optimized(&prog, 2);
        // `Dog.sound` returns a constant and `Box.get` a field.
        for name in ["directNoOverrideBelow", "directClosedArgs"] {
            assert_eq!(ops(&code, name), (0, 0, 1), "{name} must be inlined");
        }
        // `describe` concatenates and calls; `fresh` allocates a `T[]`.
        for name in ["directInherited", "directClone"] {
            assert_eq!(ops(&code, name), (1, 0, 0), "{name} must stay a call");
        }
        for name in [
            "dynamicOverrideBelow",
            "dynamicInterface",
            "dynamicNative <spec>",
            "dynamicOpenArgs",
        ] {
            assert_eq!(ops(&code, name), (0, 1, 0), "{name} must stay dynamic");
        }
        // `dynamicExistential` is never called, so O2 leaves it alone.
        assert!(code.opt_stats.funcs_unreached >= 1);
        assert!(code.opt_stats.calls_inlined >= 2);
        let run = |code: VmProgram| {
            let mut vm = Vm::with_code(&prog, Arc::new(code));
            let v = vm.run_main().expect("runs");
            vm.render(&v)
        };
        assert_eq!(run(code), run(compile_optimized(&prog, 0)));
    }

    /// A generic function calling itself at a closed instantiation clones
    /// its own complete body while that body is being rewritten.
    #[test]
    fn self_instantiating_generic_clones_its_whole_body() {
        let src = "int f[T](int n) { T[] a = new T[1];
                     if (n > 0) { return f[int](n - 1) + a.length; } return 0; }
                   int main() { return f[double](3); }";
        let mut report = check_sources_report(&[("t.genus", src)]);
        let prog = report.program.take().expect("test program must check");
        let mut vm = Vm::with_code(&prog, Arc::new(compile_optimized(&prog, 2)));
        let v = vm.run_main().expect("runs");
        assert_eq!(vm.render(&v), "3");
    }
}
