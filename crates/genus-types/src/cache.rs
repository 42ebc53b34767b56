//! Query caches hung off [`Table`](crate::table::Table).
//!
//! The checker's hot queries — subtype tests, constraint prerequisite
//! closures, structural-conformance checks, and default model resolution
//! — are pure functions of the declaration table (plus, for resolution,
//! the set of in-scope `use` declarations). `QueryCache` memoizes them
//! behind interior mutability so read-only query code (`&Table`) can
//! populate the caches.
//!
//! Invalidation: callers that mutate the table in ways existing keys
//! could observe (registering declarations, rewriting signatures in
//! place) must call [`QueryCache::clear`]. Allocating *fresh* type/model
//! variables is safe without clearing — previously cached keys cannot
//! mention ids that did not exist yet. After the checker's
//! signature-completion pass the table is never mutated again, so the
//! caches live untouched for the rest of checking and interpretation.
//!
//! The `no-cache` cargo feature (or [`set_caches_enabled`] at runtime)
//! turns every cache into a pass-through so benches can A/B the caching
//! layer and tests can compare cached against uncached results.

use crate::ty::{ConstraintInst, Type};
use genus_common::FastMap;
use std::any::Any;
use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

thread_local! {
    /// Per-thread switch. Defaults to enabled unless the `no-cache`
    /// feature is active; flips at runtime via [`set_caches_enabled`].
    /// Thread-local so parallel tests toggling it cannot interfere.
    static CACHES_DISABLED: Cell<bool> = const { Cell::new(cfg!(feature = "no-cache")) };
}

/// Whether the query caches are active on the current thread.
pub fn caches_enabled() -> bool {
    !CACHES_DISABLED.with(Cell::get)
}

/// Enables or disables all query caches on the current thread (A/B
/// benching and differential tests). Disabling does not drop
/// already-stored entries; it only bypasses them.
pub fn set_caches_enabled(on: bool) {
    CACHES_DISABLED.with(|c| c.set(!on));
}

/// Hit/miss counters for every cache, snapshot via [`QueryCache::stats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub subtype_hits: u64,
    pub subtype_misses: u64,
    pub prereq_hits: u64,
    pub prereq_misses: u64,
    pub conforms_hits: u64,
    pub conforms_misses: u64,
    pub resolve_hits: u64,
    pub resolve_misses: u64,
}

impl CacheStats {
    /// Total hits across all caches.
    pub fn hits(&self) -> u64 {
        self.subtype_hits + self.prereq_hits + self.conforms_hits + self.resolve_hits
    }

    /// Total misses across all caches.
    pub fn misses(&self) -> u64 {
        self.subtype_misses + self.prereq_misses + self.conforms_misses + self.resolve_misses
    }

    /// The delta accumulated since an earlier snapshot `base`: per-run
    /// numbers for `--stats` and serve responses without zeroing shared
    /// counters out from under concurrent runs.
    #[must_use]
    pub fn since(&self, base: &CacheStats) -> CacheStats {
        CacheStats {
            subtype_hits: self.subtype_hits.saturating_sub(base.subtype_hits),
            subtype_misses: self.subtype_misses.saturating_sub(base.subtype_misses),
            prereq_hits: self.prereq_hits.saturating_sub(base.prereq_hits),
            prereq_misses: self.prereq_misses.saturating_sub(base.prereq_misses),
            conforms_hits: self.conforms_hits.saturating_sub(base.conforms_hits),
            conforms_misses: self.conforms_misses.saturating_sub(base.conforms_misses),
            resolve_hits: self.resolve_hits.saturating_sub(base.resolve_hits),
            resolve_misses: self.resolve_misses.saturating_sub(base.resolve_misses),
        }
    }
}

fn hash_pair(sub: &Type, sup: &Type) -> u64 {
    let mut h = DefaultHasher::new();
    sub.hash(&mut h);
    sup.hash(&mut h);
    h.finish()
}

/// One hash bucket of structurally keyed subtype verdicts.
type SubtypeBucket = Vec<(Type, Type, bool)>;

/// Memo tables for table-pure queries. See the module docs for the
/// soundness/invalidation story.
#[derive(Default)]
pub struct QueryCache {
    /// `(sub, sup) → bool`, bucketed by hash so lookups need no key
    /// clone (collisions resolved by structural comparison).
    subtype: Mutex<FastMap<u64, SubtypeBucket>>,
    /// Constraint prerequisite closures (computed by the checker).
    prereq: Mutex<FastMap<ConstraintInst, Arc<Vec<ConstraintInst>>>>,
    /// Structural conformance (`natural::conforms`) results.
    conforms: Mutex<FastMap<ConstraintInst, bool>>,
    /// Opaque slot for the checker's resolution memo: the value type
    /// involves checker-crate types, so it is stored type-erased here
    /// and downcast by `genus-check`. `Send` so a checked program (and
    /// its table) can move onto the interpreter thread; the `Mutex`
    /// additionally makes the whole cache `Sync` so one checked program
    /// can serve concurrent runs (the serve worker pool).
    resolve_slot: Mutex<Option<Box<dyn Any + Send>>>,

    subtype_hits: AtomicU64,
    subtype_misses: AtomicU64,
    prereq_hits: AtomicU64,
    prereq_misses: AtomicU64,
    conforms_hits: AtomicU64,
    conforms_misses: AtomicU64,
    resolve_hits: AtomicU64,
    resolve_misses: AtomicU64,
}

/// Compile-time proof that a checked program's table can be shared across
/// serve workers.
const _: fn() = || {
    fn assert_sync<T: Sync + Send>() {}
    assert_sync::<QueryCache>();
};

impl std::fmt::Debug for QueryCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryCache")
            .field(
                "subtype_entries",
                &self
                    .subtype
                    .lock()
                    .unwrap()
                    .values()
                    .map(Vec::len)
                    .sum::<usize>(),
            )
            .field("prereq_entries", &self.prereq.lock().unwrap().len())
            .field("conforms_entries", &self.conforms.lock().unwrap().len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// A clone starts empty, counters included: entries are derived data,
/// and a table is cloned to be extended, which clears them anyway.
impl Clone for QueryCache {
    fn clone(&self) -> Self {
        QueryCache::default()
    }
}

impl QueryCache {
    /// Drops every entry (including the checker's resolution memo).
    /// Counters survive so benches can observe lifetime totals.
    pub fn clear(&self) {
        self.subtype.lock().unwrap().clear();
        self.prereq.lock().unwrap().clear();
        self.conforms.lock().unwrap().clear();
        *self.resolve_slot.lock().unwrap() = None;
    }

    /// Zeroes every hit/miss counter, leaving cached entries in place.
    /// Used by per-request stats reporting (`--stats`, serve responses):
    /// snapshot-before/`since` gives a delta, `reset_counters` gives a
    /// hard zero when one runner owns the program exclusively.
    pub fn reset_counters(&self) {
        self.subtype_hits.store(0, Ordering::Relaxed);
        self.subtype_misses.store(0, Ordering::Relaxed);
        self.prereq_hits.store(0, Ordering::Relaxed);
        self.prereq_misses.store(0, Ordering::Relaxed);
        self.conforms_hits.store(0, Ordering::Relaxed);
        self.conforms_misses.store(0, Ordering::Relaxed);
        self.resolve_hits.store(0, Ordering::Relaxed);
        self.resolve_misses.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            subtype_hits: self.subtype_hits.load(Ordering::Relaxed),
            subtype_misses: self.subtype_misses.load(Ordering::Relaxed),
            prereq_hits: self.prereq_hits.load(Ordering::Relaxed),
            prereq_misses: self.prereq_misses.load(Ordering::Relaxed),
            conforms_hits: self.conforms_hits.load(Ordering::Relaxed),
            conforms_misses: self.conforms_misses.load(Ordering::Relaxed),
            resolve_hits: self.resolve_hits.load(Ordering::Relaxed),
            resolve_misses: self.resolve_misses.load(Ordering::Relaxed),
        }
    }

    /// Cached subtype verdict, if present.
    pub fn subtype_get(&self, sub: &Type, sup: &Type) -> Option<bool> {
        if !caches_enabled() {
            return None;
        }
        let key = hash_pair(sub, sup);
        let map = self.subtype.lock().unwrap();
        let found = map
            .get(&key)
            .and_then(|bucket| bucket.iter().find(|(s, p, _)| s == sub && p == sup))
            .map(|&(_, _, r)| r);
        match found {
            Some(r) => {
                self.subtype_hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.subtype_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a subtype verdict.
    pub fn subtype_put(&self, sub: &Type, sup: &Type, result: bool) {
        if !caches_enabled() {
            return;
        }
        let key = hash_pair(sub, sup);
        self.subtype.lock().unwrap().entry(key).or_default().push((
            sub.clone(),
            sup.clone(),
            result,
        ));
    }

    /// Cached prerequisite closure for a constraint instantiation.
    pub fn prereq_get(&self, inst: &ConstraintInst) -> Option<Arc<Vec<ConstraintInst>>> {
        if !caches_enabled() {
            return None;
        }
        match self.prereq.lock().unwrap().get(inst) {
            Some(rc) => {
                self.prereq_hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(rc))
            }
            None => {
                self.prereq_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a prerequisite closure.
    pub fn prereq_put(&self, inst: &ConstraintInst, closure: Arc<Vec<ConstraintInst>>) {
        if !caches_enabled() {
            return;
        }
        self.prereq.lock().unwrap().insert(inst.clone(), closure);
    }

    /// Cached structural-conformance verdict.
    pub fn conforms_get(&self, inst: &ConstraintInst) -> Option<bool> {
        if !caches_enabled() {
            return None;
        }
        match self.conforms.lock().unwrap().get(inst).copied() {
            Some(r) => {
                self.conforms_hits.fetch_add(1, Ordering::Relaxed);
                Some(r)
            }
            None => {
                self.conforms_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores a structural-conformance verdict.
    pub fn conforms_put(&self, inst: &ConstraintInst, result: bool) {
        if !caches_enabled() {
            return;
        }
        self.conforms.lock().unwrap().insert(inst.clone(), result);
    }

    /// Grants scoped access to the type-erased resolution-memo slot.
    /// The closure must not re-enter `with_resolve_slot` (the slot is
    /// held locked for the duration of the call).
    pub fn with_resolve_slot<R>(&self, f: impl FnOnce(&mut Option<Box<dyn Any + Send>>) -> R) -> R {
        f(&mut self.resolve_slot.lock().unwrap())
    }

    /// Bumps the resolution-memo hit counter (owned by `genus-check`).
    pub fn note_resolve_hit(&self) {
        self.resolve_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Bumps the resolution-memo miss counter.
    pub fn note_resolve_miss(&self) {
        self.resolve_misses.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ty::PrimTy;

    fn int() -> Type {
        Type::Prim(PrimTy::Int)
    }

    fn long() -> Type {
        Type::Prim(PrimTy::Long)
    }

    #[test]
    fn subtype_roundtrip_and_stats() {
        // These tests exercise cache mechanics directly, so force the
        // caches on even when built with `--features no-cache`.
        set_caches_enabled(true);
        let c = QueryCache::default();
        assert_eq!(c.subtype_get(&int(), &long()), None);
        c.subtype_put(&int(), &long(), true);
        assert_eq!(c.subtype_get(&int(), &long()), Some(true));
        assert_eq!(c.subtype_get(&long(), &int()), None);
        let s = c.stats();
        assert_eq!(s.subtype_hits, 1);
        assert_eq!(s.subtype_misses, 2);
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        // These tests exercise cache mechanics directly, so force the
        // caches on even when built with `--features no-cache`.
        set_caches_enabled(true);
        let c = QueryCache::default();
        c.subtype_put(&int(), &int(), true);
        assert_eq!(c.subtype_get(&int(), &int()), Some(true));
        c.clear();
        assert_eq!(c.subtype_get(&int(), &int()), None);
        assert_eq!(c.stats().subtype_hits, 1);
    }

    #[test]
    fn disabling_bypasses_lookups() {
        // These tests exercise cache mechanics directly, so force the
        // caches on even when built with `--features no-cache`.
        set_caches_enabled(true);
        let c = QueryCache::default();
        c.subtype_put(&int(), &int(), true);
        set_caches_enabled(false);
        assert_eq!(c.subtype_get(&int(), &int()), None);
        set_caches_enabled(true);
        assert_eq!(c.subtype_get(&int(), &int()), Some(true));
    }

    #[test]
    fn per_run_counter_deltas_and_reset() {
        set_caches_enabled(true);
        let c = QueryCache::default();
        c.subtype_put(&int(), &int(), true);
        assert_eq!(c.subtype_get(&int(), &int()), Some(true));
        let base = c.stats();
        assert_eq!(c.subtype_get(&int(), &int()), Some(true));
        assert_eq!(c.subtype_get(&int(), &long()), None);
        let delta = c.stats().since(&base);
        assert_eq!(delta.subtype_hits, 1);
        assert_eq!(delta.subtype_misses, 1);
        // Reset zeroes counters but keeps entries cached.
        c.reset_counters();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.subtype_get(&int(), &int()), Some(true));
        assert_eq!(c.stats().subtype_hits, 1);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        set_caches_enabled(true);
        let c = std::sync::Arc::new(QueryCache::default());
        c.subtype_put(&int(), &long(), true);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    set_caches_enabled(true);
                    assert_eq!(c.subtype_get(&int(), &long()), Some(true));
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.stats().subtype_hits, 4);
    }

    #[test]
    fn resolve_slot_stores_any() {
        let c = QueryCache::default();
        c.with_resolve_slot(|slot| *slot = Some(Box::new(41u32)));
        let v = c.with_resolve_slot(|slot| {
            let m = slot.as_mut().unwrap().downcast_mut::<u32>().unwrap();
            *m += 1;
            *m
        });
        assert_eq!(v, 42);
    }
}
