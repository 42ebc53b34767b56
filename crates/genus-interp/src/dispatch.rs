//! Run-time dispatch caching, one copy for every engine.
//!
//! A virtual call and a model-multimethod call (§5.1) each resolve to a
//! target through [`crate::rtti`]'s rules. [`Dispatch`] decides when
//! those rules run: it holds the per-class method index, the
//! `(class, name, arity)` virtual-target memo, the monomorphic inline
//! caches, the multimethod memo with its per-`CallModel`-site caches,
//! and the hit/miss counters. The AST interpreter and the VM (with
//! Tier 2, which calls the VM's call preparation) each own one and ask it
//! for targets; an engine keeps only what differs, running the body or
//! building the frame.
//!
//! [`caches_enabled`] is the one switch between the cached paths and the
//! uncached reference paths ([`rtti::find_virtual`], a linear
//! static-method scan, an unmemoized multimethod selection). With the
//! caches off no counter moves. Every table lives as long as the engine:
//! the checked program is immutable for its lifetime.

use crate::rtti::{self, ClassIndexes, ModelTarget, VirtTarget};
use genus_check::CheckedProgram;
use genus_common::{FastMap, Symbol};
use genus_heap::value::{ErrorKind, ModelValue, RtType, RuntimeError, Value};
use genus_heap::Heap;
use genus_types::{caches_enabled, ClassId, ModelId, PrimTy};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Hit/miss counters of an engine's dispatch caches, snapshot via
/// [`Dispatch::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DispatchStats {
    /// Per-call-site inline cache hits (receiver class matched last time).
    pub ic_hits: u64,
    /// Per-call-site inline cache misses.
    pub ic_misses: u64,
    /// Virtual-target memo hits.
    pub virt_hits: u64,
    /// Virtual-target memo misses (full hierarchy walks).
    pub virt_misses: u64,
    /// Multimethod dispatch hits (a `CallModel` site's cache or the memo).
    pub model_hits: u64,
    /// Multimethod dispatch memo misses (full candidate scans).
    pub model_misses: u64,
}

/// Where a virtual call's monomorphic inline cache lives.
#[derive(Debug, Clone, Copy)]
pub enum Site {
    /// A bytecode `CallVirtual` site: a dense slot index.
    Slot(u32),
    /// An AST call site, keyed by the address of its HIR node.
    Node(usize),
}

/// The method a virtual call runs: the defining class, the method index
/// within it, and that class's type and model arguments as seen from the
/// receiver.
pub type Resolved = (ClassId, usize, Vec<RtType>, Vec<ModelValue>);

/// What a static constraint operation on a natural model runs.
#[derive(Debug)]
pub enum StaticTarget {
    /// A primitive type's built-in operation.
    Prim(PrimTy),
    /// A class's static method, with the class's type and model arguments.
    Method(Resolved),
}

/// `(dynamic class, name, arity)` to the resolved target (`None`
/// memoizes a miss).
type VirtMemo = FastMap<(ClassId, Symbol, usize), Option<Rc<VirtTarget>>>;

/// An inline-cache entry: the last receiver class and its target.
type IcEntry = (ClassId, Option<Rc<VirtTarget>>);

/// Key of the multimethod memo: the model instance, the operation, and
/// the dynamic receiver/argument types the applicability and specificity
/// rules (§5.1) depend on. `RtType::Null` stands for null values, whose
/// applicability is also type-determined.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct ModelDispatchKey {
    id: ModelId,
    targs: Vec<RtType>,
    margs: Vec<ModelValue>,
    name: Symbol,
    is_static: bool,
    /// Dynamic receiver type (or the static receiver type).
    recv: Option<RtType>,
    args: Vec<RtType>,
}

/// A multimethod result: the chosen candidate, or `None` when none applies.
type ModelResult = Option<Rc<ModelTarget>>;

/// One engine's dispatch caches and counters.
#[derive(Default)]
pub struct Dispatch {
    /// Lazily built per-class `(name, arity) → method index` maps.
    class_index: ClassIndexes,
    /// The virtual-target memo.
    virt: RefCell<VirtMemo>,
    /// Inline caches of [`Site::Slot`] sites, indexed by slot.
    slots: RefCell<Vec<Option<IcEntry>>>,
    /// Inline caches of [`Site::Node`] sites, keyed by node address.
    nodes: RefCell<FastMap<usize, IcEntry>>,
    /// Multimethod dispatch results (§5.1).
    model: RefCell<FastMap<ModelDispatchKey, ModelResult>>,
    /// Per-`CallModel`-site caches, indexed by the bytecode's site ids:
    /// the last call's key and result.
    model_slots: RefCell<Vec<Option<(ModelDispatchKey, ModelResult)>>>,
    stats: Cell<DispatchStats>,
}

impl Dispatch {
    /// Tables for code with `sites` numbered `CallVirtual` sites and
    /// `model_sites` numbered `CallModel` sites (the VM's bytecode). The
    /// AST engine, whose sites are [`Site::Node`]s, uses
    /// [`Dispatch::default`].
    #[must_use]
    pub fn with_sites(sites: usize, model_sites: usize) -> Dispatch {
        Dispatch {
            slots: RefCell::new(vec![None; sites]),
            model_slots: RefCell::new(vec![None; model_sites]),
            ..Dispatch::default()
        }
    }

    /// Snapshot of the hit/miss counters.
    #[must_use]
    pub fn stats(&self) -> DispatchStats {
        self.stats.get()
    }

    fn count(&self, bump: impl FnOnce(&mut DispatchStats)) {
        let mut s = self.stats.get();
        bump(&mut s);
        self.stats.set(s);
    }

    /// The method a virtual call `name`/`arity` runs on a receiver of
    /// class `id` instantiated with `args`/`models`, through `site`'s
    /// inline cache (when given) and the per-class memo.
    ///
    /// # Errors
    ///
    /// `NoSuchMethodError` when the class has no such method.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn virtual_target(
        &self,
        prog: &CheckedProgram,
        site: Option<Site>,
        id: ClassId,
        args: &[RtType],
        models: &[ModelValue],
        name: Symbol,
        arity: usize,
    ) -> Result<Resolved, RuntimeError> {
        let found = if caches_enabled() {
            let target = match self.ic_hit(site, id) {
                Some(t) => t,
                None => self.ic_miss(prog, site, id, args, models, name, arity),
            };
            target.map(|t| match &t.fixed {
                Some((a, m)) => (t.cid, t.mi, a.clone(), m.clone()),
                None => rtti::replay_target(prog, &t, id, args, models),
            })
        } else {
            rtti::find_virtual(prog, id, args, models, name, arity)
        };
        found.ok_or_else(|| {
            RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!(
                    "no method `{name}`/{arity} on class `{}`",
                    prog.table.class(id).name
                ),
            )
        })
    }

    /// `site`'s target when its last receiver class was `id`: one slot
    /// index (one map probe for a [`Site::Node`]) and a class comparison.
    #[inline]
    fn ic_hit(&self, site: Option<Site>, id: ClassId) -> Option<Option<Rc<VirtTarget>>> {
        let hit = match site? {
            Site::Slot(s) => match self.slots.borrow().get(s as usize) {
                Some(Some((cls, t))) if *cls == id => Some(t.clone()),
                _ => None,
            },
            Site::Node(n) => match self.nodes.borrow().get(&n) {
                Some((cls, t)) if *cls == id => Some(t.clone()),
                _ => None,
            },
        };
        if hit.is_some() {
            self.count(|s| s.ic_hits += 1);
        }
        hit
    }

    /// The per-class memo's target, walking the hierarchy on a memo miss;
    /// `site`, when given, missed its inline cache and keeps the target.
    #[allow(clippy::too_many_arguments)]
    fn ic_miss(
        &self,
        prog: &CheckedProgram,
        site: Option<Site>,
        id: ClassId,
        args: &[RtType],
        models: &[ModelValue],
        name: Symbol,
        arity: usize,
    ) -> Option<Rc<VirtTarget>> {
        if site.is_some() {
            self.count(|s| s.ic_misses += 1);
        }
        let key = (id, name, arity);
        let memo = self.virt.borrow().get(&key).cloned();
        let t = match memo {
            Some(t) => {
                self.count(|s| s.virt_hits += 1);
                t
            }
            None => {
                self.count(|s| s.virt_misses += 1);
                let t =
                    rtti::resolve_virtual(prog, &self.class_index, id, args, models, name, arity);
                self.virt.borrow_mut().insert(key, t.clone());
                t
            }
        };
        match site {
            Some(Site::Slot(s)) => self.slots.borrow_mut()[s as usize] = Some((id, t.clone())),
            Some(Site::Node(n)) => {
                self.nodes.borrow_mut().insert(n, (id, t.clone()));
            }
            None => {}
        }
        t
    }

    /// What a natural model's static operation `name`/`arity` on the
    /// receiver type `recv` (`T.zero()`) runs.
    ///
    /// # Errors
    ///
    /// `NoSuchMethodError` when the type has no such static method.
    pub fn static_target(
        &self,
        prog: &CheckedProgram,
        recv: Option<RtType>,
        name: Symbol,
        arity: usize,
    ) -> Result<StaticTarget, RuntimeError> {
        let (id, args, models) = match recv {
            Some(RtType::Prim(p)) => return Ok(StaticTarget::Prim(p)),
            Some(RtType::Class { id, args, models }) => (id, args, models),
            Some(other) => {
                return Err(RuntimeError::new(
                    ErrorKind::NoSuchMethod,
                    format!("no static `{name}` on {other:?}"),
                ))
            }
            None => {
                return Err(RuntimeError::new(
                    ErrorKind::Other,
                    "static model call without receiver type",
                ))
            }
        };
        let def = prog.table.class(id);
        let mi = if caches_enabled() {
            self.class_index.get(prog, id).static_method(name, arity)
        } else {
            def.methods
                .iter()
                .position(|m| m.is_static && m.name == name && m.params.len() == arity)
        };
        match mi {
            Some(mi) => Ok(StaticTarget::Method((id, mi, args, models))),
            None => Err(RuntimeError::new(
                ErrorKind::NoSuchMethod,
                format!("no static `{name}` on `{}`", def.name),
            )),
        }
    }

    /// The most specific candidate (§5.1) for operation `name` of the
    /// declared model `id[targs; margs]` on the dynamic receiver and
    /// argument values, or `None` when no candidate applies. `recv` is
    /// `None` for a static operation, whose receiver type is
    /// `static_recv`. `site` names a bytecode `CallModel` site whose
    /// cache is probed first; a site hit and a memo hit both count as
    /// `model_hits`.
    #[allow(clippy::too_many_arguments)]
    pub fn model_target(
        &self,
        prog: &CheckedProgram,
        heap: &Heap,
        site: Option<u32>,
        id: ModelId,
        targs: &[RtType],
        margs: &[ModelValue],
        name: Symbol,
        recv: Option<&Value>,
        static_recv: Option<&RtType>,
        args: &[Value],
    ) -> ModelResult {
        let select = || {
            rtti::select_model_target(prog, heap, id, targs, margs, name, recv, static_recv, args)
        };
        if !caches_enabled() {
            return select();
        }
        // A site hit compares the last key against the live values, so it
        // builds no key: no `targs`/`margs` clones, no reification.
        if let Some(s) = site {
            if let Some(Some((k, target))) = self.model_slots.borrow().get(s as usize) {
                if k.id == id
                    && k.args.len() == args.len()
                    && match (recv, static_recv, &k.recv) {
                        (Some(r), _, Some(rt)) => rtti::value_matches_rt(prog, heap, r, rt),
                        (None, Some(srt), Some(rt)) => srt == rt,
                        (None, None, None) => true,
                        _ => false,
                    }
                    && (k.args.iter().zip(args))
                        .all(|(rt, a)| rtti::value_matches_rt(prog, heap, a, rt))
                    && k.targs == targs
                    && k.margs == margs
                {
                    self.count(|s| s.model_hits += 1);
                    return target.clone();
                }
            }
        }
        let key = ModelDispatchKey {
            id,
            targs: targs.to_vec(),
            margs: margs.to_vec(),
            name,
            is_static: recv.is_none(),
            recv: recv
                .map(|r| rtti::value_rt_type(prog, heap, r))
                .or_else(|| static_recv.cloned()),
            args: args
                .iter()
                .map(|a| rtti::value_rt_type(prog, heap, a))
                .collect(),
        };
        let memo = self.model.borrow().get(&key).cloned();
        let hit = memo.is_some();
        let target = match memo {
            Some(t) => {
                self.count(|s| s.model_hits += 1);
                t
            }
            None => {
                self.count(|s| s.model_misses += 1);
                select()
            }
        };
        if let Some(s) = site {
            self.model_slots.borrow_mut()[s as usize] = Some((key.clone(), target.clone()));
        }
        if !hit {
            self.model.borrow_mut().insert(key, target.clone());
        }
        target
    }
}
