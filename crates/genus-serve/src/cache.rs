//! The content-hash-keyed shared program cache: sharded, LRU-bounded,
//! optionally backed by on-disk bytecode.
//!
//! Each distinct `(source, stdlib, opt_level)` triple is compiled **once**
//! per server while it stays resident, no matter how many requests race
//! on it: the map slot is an `Arc<OnceLock<…>>`, so the first thread to
//! claim a fresh slot runs the compiler while every other thread blocks
//! on `get_or_init` and then shares the same `Arc`'d program. The checked
//! AST is `Sync` (the type query caches are lock-based), and the VM
//! bytecode holds only `Send + Sync` data, so one cached entry serves any
//! number of workers concurrently — the paper's per-instantiation model
//! resolution keeps a checked program self-contained, which is what makes
//! this sound.
//!
//! Four scaling properties on top of the original single-mutex design:
//!
//! - **Sharded locking.** The map is split across [`SHARDS`] independent
//!   mutexes selected by key hash, so concurrent workers resolving
//!   different programs do not serialize on one lock. Keys are FNV-1a
//!   content hashes with a collision chain that compares the full source,
//!   so hash collisions cost a probe, never a wrong program.
//! - **Bounded memory.** Each shard holds at most `capacity / SHARDS`
//!   entries; inserting beyond that evicts the shard's least-recently
//!   touched entry (a counted eviction). Eviction only removes the map's
//!   *reference* — requests already running the program hold their own
//!   `Arc` and finish safely; a later request for an evicted key simply
//!   recompiles (or reloads from disk).
//! - **Persistent bytecode.** With a [`DiskCache`] attached, a cache miss
//!   first tries the artifact directory — a verified load skips the type
//!   check entirely (the dominant compile cost) — and a fresh compile is
//!   written back, so a restarted server answers its first request for a
//!   known program from disk. Disk-loaded entries carry a bodies-blanked
//!   AST sufficient for the VM and Tier 2 engines; an AST-engine request
//!   against one triggers a lazy full compile (see
//!   [`CachedProgram::ast_prog`]).
//! - **One shared, pre-checked stdlib.** A miss does not re-check the
//!   stdlib: [`compile`] extends the process-wide [`CheckedBase`] (the
//!   prelude and stdlib, parsed and checked once, built on the pool when
//!   the server starts) with the request alone — its declarations are
//!   collected, completed and checked after the base's, and only its
//!   bodies are checked. Entries share the stdlib's HIR bodies by `Arc`,
//!   so an entry owns its request's bodies and a copy of the declaration
//!   table, not a copy of the stdlib's bodies. The reuse rule is sound
//!   because Genus checks a library independently of its clients (§4):
//!   a request can change a stdlib verdict only through the whole-program
//!   parts of model resolution — a `use`, an `enrich`, a model whose
//!   constraint reaches a prelude or stdlib constraint — or by
//!   overloading a stdlib global. Such requests, and any request with a
//!   diagnostic, take the full check ([`CheckPath::FullCheck`]), so
//!   results and rendered diagnostics are those of `genus run` either
//!   way. The `base_extends` and `full_checks` counters split the misses
//!   between the two paths.

use crate::persist::DiskCache;
use genus_check::{CheckedBase, CheckedProgram};
use genus_common::{FastMap, FnvHasher};
use genus_vm::{compile_optimized, compile_tier, TierProgram, VmProgram};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of independent lock shards (power of two; key hash selects).
pub const SHARDS: usize = 8;

/// Default entry bound: generous for a server's working set, small enough
/// that a hostile stream of distinct programs cannot grow memory without
/// bound.
pub const DEFAULT_CAPACITY: usize = 1024;

/// A compiled-and-checked program shared by every request with the same
/// source. The bytecode is compiled lazily on the first VM-engine request
/// (AST-only traffic never pays for it), and the closure-compiled Tier 2
/// form lazily on the first jit-engine request or hotness promotion —
/// each behind its own `OnceLock`, so racing requests agree on exactly
/// one compile per tier. Disk-loaded entries arrive with the bytecode
/// pre-set and a bodies-blanked AST; [`CachedProgram::ast_prog`] supplies
/// the full AST on demand.
pub struct CachedProgram {
    /// The checked AST (also carries the type tables and query caches).
    /// For disk-loaded entries the declaration table is complete but the
    /// method bodies are blank — everything the VM and Tier 2 engines
    /// consult, nothing the AST interpreter needs. Engines that walk
    /// bodies must go through [`CachedProgram::ast_prog`].
    pub prog: CheckedProgram,
    /// The entry's optimization level (fixed per cache key).
    pub opt_level: u8,
    /// The key's source text (kept for the disk tier and the lazy full
    /// compile of disk-loaded entries).
    source: String,
    /// Whether the stdlib is compiled in.
    stdlib: bool,
    /// Whether this entry was restored from the artifact directory
    /// (bodies blanked) rather than compiled in-process.
    from_disk: bool,
    /// Runs of this entry so far — the hotness signal driving
    /// `engine: "auto"` tier promotion.
    invocations: AtomicU64,
    vm_code: OnceLock<Arc<VmProgram>>,
    tier_code: OnceLock<Arc<TierProgram>>,
    /// Lazy full compile backing [`CachedProgram::ast_prog`] on
    /// disk-loaded entries (never touched otherwise).
    full: OnceLock<Result<CheckedProgram, String>>,
}

impl std::fmt::Debug for CachedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedProgram")
            .field("opt_level", &self.opt_level)
            .field("from_disk", &self.from_disk)
            .field("invocations", &self.invocations())
            .field("vm_compiled", &self.vm_code.get().is_some())
            .field("tier_compiled", &self.tier_code.get().is_some())
            .finish_non_exhaustive()
    }
}

impl CachedProgram {
    /// The shared bytecode, compiling it on first use.
    pub fn vm_code(&self) -> Arc<VmProgram> {
        Arc::clone(
            self.vm_code
                .get_or_init(|| Arc::new(compile_optimized(&self.prog, self.opt_level))),
        )
    }

    /// The shared Tier 2 closure program, compiling it (and the bytecode
    /// underneath, if this entry never ran on the VM) on first use. Under
    /// racing submissions exactly one thread tier-compiles; the rest
    /// block on the `OnceLock` and share the result.
    pub fn tier_code(&self) -> Arc<TierProgram> {
        Arc::clone(
            self.tier_code
                .get_or_init(|| Arc::new(compile_tier(&self.vm_code()))),
        )
    }

    /// Whether the Tier 2 form has been compiled (without triggering it).
    pub fn tier_compiled(&self) -> bool {
        self.tier_code.get().is_some()
    }

    /// Whether this entry came from the artifact directory. Such entries
    /// have blank HIR bodies, so the `auto` ladder starts them at the VM
    /// rung instead of the AST interpreter.
    pub fn is_disk_loaded(&self) -> bool {
        self.from_disk
    }

    /// The full checked AST, for engines that walk HIR bodies. In-process
    /// entries return their own program; disk-loaded entries run one lazy
    /// full compile (exactly once, shared by racing requests) — the price
    /// of an explicit `engine: "ast"` request against a persisted
    /// program.
    ///
    /// # Errors
    ///
    /// Rendered diagnostics if the lazy compile fails (possible only if
    /// the artifact's source no longer checks, e.g. across a language
    /// change that did not bump the artifact format).
    pub fn ast_prog(&self) -> Result<&CheckedProgram, String> {
        if !self.from_disk {
            return Ok(&self.prog);
        }
        self.full
            .get_or_init(|| compile(&self.source, self.stdlib).0)
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Counts one run of this entry and returns the new total.
    pub fn bump_invocations(&self) -> u64 {
        self.invocations.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Runs of this entry so far.
    pub fn invocations(&self) -> u64 {
        self.invocations.load(Ordering::Relaxed)
    }
}

/// Full cache key. The source text is kept so hash collisions are
/// resolved by comparison, never by trust.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    source: String,
    stdlib: bool,
    opt_level: u8,
}

fn content_hash(key: &Key) -> u64 {
    let mut h = FnvHasher::default();
    key.hash(&mut h);
    h.finish()
}

type Slot = Arc<OnceLock<Result<Arc<CachedProgram>, String>>>;

/// One resident cache entry: the key (for collision probing), the compile
/// slot, and a last-touch stamp for LRU eviction.
struct Entry {
    key: Key,
    slot: Slot,
    last_touch: u64,
}

/// One lock shard's map: hash → collision chain of entries.
#[derive(Default)]
struct Shard {
    chains: FastMap<u64, Vec<Entry>>,
    len: usize,
}

impl Shard {
    /// Evicts the least-recently touched entry (there is always at least
    /// one: this runs right after an insert pushed the shard over cap).
    fn evict_lru(&mut self) {
        let victim = self
            .chains
            .iter()
            .flat_map(|(h, chain)| chain.iter().map(move |e| (*h, e.key.clone(), e.last_touch)))
            .min_by_key(|(_, _, touch)| *touch);
        if let Some((hash, key, _)) = victim {
            let chain = self.chains.get_mut(&hash).expect("victim chain exists");
            chain.retain(|e| e.key != key);
            if chain.is_empty() {
                self.chains.remove(&hash);
            }
            self.len -= 1;
        }
    }
}

/// Counter snapshot for the program cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Requests that found their slot already in the map.
    pub hits: u64,
    /// Requests that inserted a fresh slot (exactly one per distinct
    /// *resident* key, no matter how many submissions race; an evicted
    /// key misses again).
    pub misses: u64,
    /// Compilations actually executed in-process
    /// (`base_extends + full_checks`).
    pub compiles: u64,
    /// Compilations answered by extending the shared checked stdlib base.
    pub base_extends: u64,
    /// Compilations answered by the full check (the request could change
    /// a stdlib verdict, or has diagnostics).
    pub full_checks: u64,
    /// Entries whose Tier 2 closure form has been compiled — at most one
    /// tier compile per entry, no matter how many submissions race.
    pub tier_compiles: u64,
    /// Entries evicted by the LRU bound.
    pub evictions: u64,
    /// Misses answered by a verified on-disk artifact (no type check, no
    /// bytecode compile).
    pub disk_hits: u64,
    /// Fresh compiles persisted to the artifact directory.
    pub disk_writes: u64,
}

/// The shared program cache. Cheap to clone the `Arc` around; all methods
/// take `&self`.
pub struct ProgramCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry bound (total capacity split across shards).
    per_shard_cap: usize,
    disk: Option<DiskCache>,
    /// Global LRU clock: bumped on every touch, stamped into entries.
    touch: AtomicU64,
    /// Resident entries across all shards (O(1) `len`).
    entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    compiles: AtomicU64,
    base_extends: AtomicU64,
    full_checks: AtomicU64,
    evictions: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
}

impl Default for ProgramCache {
    fn default() -> Self {
        ProgramCache::with_config(DEFAULT_CAPACITY, None)
    }
}

impl ProgramCache {
    /// An empty cache with the default capacity and no disk tier.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// An empty cache bounded to roughly `capacity` entries (split across
    /// [`SHARDS`] shards, at least one per shard), optionally backed by
    /// an artifact directory.
    pub fn with_config(capacity: usize, disk: Option<DiskCache>) -> ProgramCache {
        ProgramCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_cap: capacity.div_ceil(SHARDS).max(1),
            disk,
            touch: AtomicU64::new(0),
            entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            base_extends: AtomicU64::new(0),
            full_checks: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
        }
    }

    /// The artifact directory backing this cache, if one is attached.
    pub fn disk(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Returns the compiled program for `(source, stdlib, opt_level)`,
    /// compiling it if the key is not resident, and whether the slot was
    /// already present (`true` = cache hit). When several threads race on
    /// a fresh key, exactly one compiles (or disk-loads); the rest block
    /// until the result is ready and then share it.
    ///
    /// # Errors
    ///
    /// The inner `Result` carries rendered compile diagnostics (shared
    /// verbatim by every request for the failing source).
    pub fn get_or_compile(
        &self,
        source: &str,
        stdlib: bool,
        opt_level: u8,
    ) -> (Result<Arc<CachedProgram>, String>, bool) {
        let key = Key {
            source: source.to_string(),
            stdlib,
            opt_level,
        };
        let hash = content_hash(&key);
        let stamp = self.touch.fetch_add(1, Ordering::Relaxed);
        let (slot, hit) = {
            let mut shard = self.shards[hash as usize & (SHARDS - 1)].lock().unwrap();
            let existing = shard
                .chains
                .get_mut(&hash)
                .and_then(|chain| chain.iter_mut().find(|e| e.key == key));
            match existing {
                Some(entry) => {
                    entry.last_touch = stamp;
                    (Arc::clone(&entry.slot), true)
                }
                None => {
                    let slot: Slot = Arc::new(OnceLock::new());
                    shard.chains.entry(hash).or_default().push(Entry {
                        key,
                        slot: Arc::clone(&slot),
                        last_touch: stamp,
                    });
                    shard.len += 1;
                    self.entries.fetch_add(1, Ordering::Relaxed);
                    if shard.len > self.per_shard_cap {
                        // The newest entry carries the freshest stamp, so
                        // the LRU scan never evicts what was just
                        // inserted. In-flight requests for the victim
                        // hold their own Arc and finish safely.
                        shard.evict_lru();
                        self.entries.fetch_sub(1, Ordering::Relaxed);
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    (slot, false)
                }
            }
        };
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        let result = slot
            .get_or_init(|| self.populate(source, stdlib, opt_level))
            .clone();
        (result, hit)
    }

    /// Fills a fresh slot: disk first (verified artifact → no type
    /// check), else a full compile, written back to disk so the next
    /// process boots warm.
    fn populate(
        &self,
        source: &str,
        stdlib: bool,
        opt_level: u8,
    ) -> Result<Arc<CachedProgram>, String> {
        if let Some(disk) = &self.disk {
            if let Some((prog, code)) = disk.load(source, stdlib, opt_level) {
                self.disk_hits.fetch_add(1, Ordering::Relaxed);
                let vm_code = OnceLock::new();
                let _ = vm_code.set(Arc::new(code));
                return Ok(Arc::new(CachedProgram {
                    prog,
                    opt_level,
                    source: source.to_string(),
                    stdlib,
                    from_disk: true,
                    invocations: AtomicU64::new(0),
                    vm_code,
                    tier_code: OnceLock::new(),
                    full: OnceLock::new(),
                }));
            }
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let (result, path) = compile(source, stdlib);
        match path {
            CheckPath::BaseExtend => &self.base_extends,
            CheckPath::FullCheck => &self.full_checks,
        }
        .fetch_add(1, Ordering::Relaxed);
        let cached = result.map(|prog| {
            Arc::new(CachedProgram {
                prog,
                opt_level,
                source: source.to_string(),
                stdlib,
                from_disk: false,
                invocations: AtomicU64::new(0),
                vm_code: OnceLock::new(),
                tier_code: OnceLock::new(),
                full: OnceLock::new(),
            })
        })?;
        if let Some(disk) = &self.disk {
            // Persisting costs one eager bytecode compile (cheap next to
            // the type check we are saving the next process).
            let code = cached.vm_code();
            if disk.store(source, stdlib, opt_level, &cached.prog, &code) {
                self.disk_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(cached)
    }

    /// Counter snapshot. `tier_compiles` is derived by inspecting the
    /// entries (the `OnceLock` *is* the count — there is no separate
    /// counter to drift from it).
    pub fn stats(&self) -> ProgramCacheStats {
        let tier_compiles = self
            .shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .chains
                    .values()
                    .flatten()
                    .filter_map(|e| e.slot.get())
                    .filter_map(|r| r.as_ref().ok())
                    .filter(|cached| cached.tier_compiled())
                    .count() as u64
            })
            .sum();
        ProgramCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            base_extends: self.base_extends.load(Ordering::Relaxed),
            full_checks: self.full_checks.load(Ordering::Relaxed),
            tier_compiles,
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
        }
    }

    /// Number of resident cached programs — O(1), a counter maintained
    /// under the shard locks, not a walk.
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The unit name a request's source is checked under.
pub const REQUEST_NAME: &str = "request.genus";

/// Which checker answered a cache miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckPath {
    /// The request was checked against the shared [`CheckedBase`].
    BaseExtend,
    /// The request took the full check of prelude, stdlib and request.
    FullCheck,
}

/// One checked compile of a request (prelude + optional stdlib + the
/// request source), and the path that produced it. The shared
/// [`CheckedBase`] answers when its reuse rule allows; otherwise — the
/// request could change a stdlib verdict, or has any diagnostic — the
/// full check runs, so serve results and diagnostics match `genus run`
/// byte for byte either way.
///
/// # Errors
///
/// The rendered error diagnostics of the full check.
pub fn compile(source: &str, stdlib: bool) -> (Result<CheckedProgram, String>, CheckPath) {
    if let Some(prog) = CheckedBase::get(stdlib).extend(REQUEST_NAME, source) {
        return (Ok(prog), CheckPath::BaseExtend);
    }
    let mut pairs: Vec<(&str, &str)> = Vec::new();
    if stdlib {
        pairs.extend_from_slice(genus_stdlib::sources());
    }
    pairs.push((REQUEST_NAME, source));
    let mut report = genus_check::check_sources_report(&pairs);
    let result = if report.has_errors() {
        Err(report.render_errors_short())
    } else {
        Ok(report.program.take().expect("no errors implies a program"))
    };
    (result, CheckPath::FullCheck)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_keys_get_distinct_entries() {
        let cache = ProgramCache::new();
        let src = "int main() { return 1; }";
        let (a, hit_a) = cache.get_or_compile(src, false, 2);
        assert!(a.is_ok() && !hit_a);
        let (_, hit_b) = cache.get_or_compile(src, false, 2);
        assert!(hit_b);
        // A different opt level is a different entry.
        let (_, hit_c) = cache.get_or_compile(src, false, 0);
        assert!(!hit_c);
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.compiles), (1, 2, 2));
    }

    #[test]
    fn compile_errors_are_cached_too() {
        let cache = ProgramCache::new();
        let (r1, _) = cache.get_or_compile("int main() { return nope; }", false, 2);
        let e1 = r1.unwrap_err();
        let (r2, hit) = cache.get_or_compile("int main() { return nope; }", false, 2);
        assert!(hit, "failing sources hit their cached diagnostics");
        assert_eq!(e1, r2.unwrap_err());
        assert_eq!(cache.stats().compiles, 1);
    }

    #[test]
    fn vm_code_is_compiled_once_and_shared() {
        let cache = ProgramCache::new();
        let (r, _) = cache.get_or_compile("int main() { return 2; }", false, 2);
        let cached = r.unwrap();
        let a = cached.vm_code();
        let b = cached.vm_code();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn tier_code_is_compiled_once_and_counted() {
        let cache = ProgramCache::new();
        let (r, _) = cache.get_or_compile("int main() { return 3; }", false, 2);
        let cached = r.unwrap();
        assert_eq!(cache.stats().tier_compiles, 0);
        let a = cached.tier_code();
        let b = cached.tier_code();
        assert!(Arc::ptr_eq(&a, &b), "tier program is shared");
        assert!(
            Arc::ptr_eq(a.code(), &cached.vm_code()),
            "tier is built over the entry's own bytecode"
        );
        assert_eq!(cache.stats().tier_compiles, 1);
    }

    fn run_vm(cached: &CachedProgram) -> String {
        let mut vm = genus_vm::Vm::with_code(&cached.prog, cached.vm_code());
        let v = vm.run_main().expect("runs");
        vm.render(&v)
    }

    #[test]
    fn lru_eviction_is_bounded_counted_and_safe() {
        // Capacity 8 over 8 shards: one entry per shard.
        let cache = ProgramCache::with_config(8, None);
        let first_src = "int main() { return 1000; }".to_string();
        let (first, _) = cache.get_or_compile(&first_src, false, 0);
        let first = first.unwrap();
        for i in 0..32 {
            let src = format!("int main() {{ return {i}; }}");
            let (r, _) = cache.get_or_compile(&src, false, 0);
            assert_eq!(run_vm(&r.unwrap()), i.to_string());
        }
        assert!(cache.len() <= SHARDS, "bounded: {} entries", cache.len());
        let s = cache.stats();
        assert!(s.evictions > 0, "churn past the cap must evict");
        assert_eq!(s.evictions, s.misses - cache.len() as u64);
        // The evicted-but-held entry still runs: eviction drops the map
        // reference, never the program.
        assert_eq!(run_vm(&first), "1000");
        // Re-requesting it is a fresh miss that recompiles correctly.
        let (again, hit) = cache.get_or_compile(&first_src, false, 0);
        assert!(!hit, "evicted keys miss again");
        assert_eq!(run_vm(&again.unwrap()), "1000");
    }

    #[test]
    fn racing_requests_share_exactly_one_compile() {
        let cache = Arc::new(ProgramCache::new());
        let src = "int main() { return 7 * 6; }";
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || cache.get_or_compile(src, false, 2).0.unwrap())
            })
            .collect();
        let progs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for p in &progs[1..] {
            assert!(Arc::ptr_eq(&progs[0], p), "all racers share one entry");
        }
        assert_eq!(cache.stats().compiles, 1);
    }

    #[test]
    fn racing_evictions_never_return_the_wrong_program() {
        // A keyspace much larger than a tiny cache, hammered from several
        // threads: every result must match its own source, even as
        // entries are evicted and recompiled underneath the racers.
        let cache = Arc::new(ProgramCache::with_config(4, None));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..40 {
                        let want = (t * 31 + i) % 12;
                        let src = format!("int main() {{ return {want}; }}");
                        let (r, _) = cache.get_or_compile(&src, false, 0);
                        assert_eq!(run_vm(&r.unwrap()), want.to_string());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = cache.stats();
        assert!(s.evictions > 0);
        assert!(cache.len() <= SHARDS);
        assert_eq!(s.hits + s.misses, 160);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = std::env::temp_dir().join(format!("genus-cache-disk-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let src = "int main() { return 5 * 5; }";
        {
            let cache =
                ProgramCache::with_config(64, Some(DiskCache::open(&dir).expect("open disk")));
            let (r, _) = cache.get_or_compile(src, false, 2);
            assert_eq!(run_vm(&r.unwrap()), "25");
            let s = cache.stats();
            assert_eq!((s.compiles, s.disk_hits, s.disk_writes), (1, 0, 1));
        }
        // A fresh cache over the same directory: no compile at all.
        let cache = ProgramCache::with_config(64, Some(DiskCache::open(&dir).expect("open disk")));
        let (r, hit) = cache.get_or_compile(src, false, 2);
        let cached = r.unwrap();
        assert!(!hit, "fresh process: the in-memory map misses");
        assert!(cached.is_disk_loaded());
        assert_eq!(run_vm(&cached), "25");
        let s = cache.stats();
        assert_eq!((s.compiles, s.disk_hits), (0, 1));
        // The AST fallback full-compiles lazily and agrees.
        let full = cached.ast_prog().expect("lazy full compile");
        let mut interp = genus_interp::Interp::new(full);
        let v = interp.run_main().expect("runs");
        assert_eq!(interp.render(&v), "25");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
