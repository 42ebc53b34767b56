//! The content-hash-keyed shared program cache: LRU-bounded,
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
//! Three properties on top of exactly one compile:
//!
//! - **One map, one lock.** The entries live in one map behind one
//!   mutex, keyed by an FNV-1a content hash with a collision chain that
//!   compares the full key, so hash collisions cost a probe, never a
//!   wrong program. The lock is held only to find or insert a slot;
//!   compiles and runs happen outside it. A hit borrows the request's
//!   source; only an insert copies it.
//! - **Bounded memory.** The cache holds at most its capacity; inserting
//!   beyond it evicts the least-recently touched entry of the whole
//!   cache (a counted eviction). Eviction only removes the map's
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
//! - **One shared, pre-checked stdlib.** A miss ([`compile`]) is a cold
//!   check in a fresh [`CompileSession`] seeded the way `genus run` seeds
//!   its own, which extends the process-wide [`genus_check::CheckedBase`]
//!   (built on the pool when the server starts) with the request alone:
//!   entries share the stdlib's HIR bodies by `Arc` and own only their
//!   request's bodies and a copy of the declaration table. A request that
//!   could change a stdlib verdict (a `use`, an `enrich`, a model reaching
//!   a stdlib constraint, an overload of a stdlib global) makes the session
//!   build the whole prefix instead; results and rendered diagnostics are
//!   those of `genus run` either way. The `base_extends` and `full_checks`
//!   counters split the misses between the two.

use crate::persist::DiskCache;
use genus_check::{CheckReport, CheckedProgram};
use genus_common::{FastMap, FnvHasher};
use genus_vm::exec::{CompileSession, CompiledCode};
use genus_vm::{TierProgram, VmProgram};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Default entry bound: generous for a server's working set, small enough
/// that a hostile stream of distinct programs cannot grow memory without
/// bound.
pub const DEFAULT_CAPACITY: usize = 1024;

/// A compiled-and-checked program shared by every request with the same
/// source. Its [`CompiledCode`] compiles the bytecode lazily on the first
/// VM-engine request (AST-only traffic never pays for it), and the
/// closure-compiled Tier 2 form lazily on the first jit-engine request or
/// hotness promotion, so racing requests agree on exactly one compile
/// per form. Disk-loaded entries arrive with the bytecode pre-set and a
/// bodies-blanked AST; [`CachedProgram::ast_prog`] supplies the full AST
/// on demand.
pub struct CachedProgram {
    /// The checked AST (also carries the type tables and query caches).
    /// For disk-loaded entries the declaration table is complete but the
    /// method bodies are blank — everything the VM and Tier 2 engines
    /// consult, nothing the AST interpreter needs. Engines that walk
    /// bodies must go through [`CachedProgram::ast_prog`].
    pub prog: CheckedProgram,
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
    /// The bytecode and Tier-2 closures, at the entry's opt level (fixed
    /// per cache key).
    code: CompiledCode,
    /// Lazy full compile backing [`CachedProgram::ast_prog`] on
    /// disk-loaded entries (never touched otherwise).
    full: OnceLock<Result<CheckedProgram, String>>,
}

impl std::fmt::Debug for CachedProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedProgram")
            .field("from_disk", &self.from_disk)
            .field("invocations", &self.invocations())
            .field("code", &self.code)
            .finish_non_exhaustive()
    }
}

impl CachedProgram {
    /// The shared bytecode, compiling it on first use.
    pub fn vm_code(&self) -> Arc<VmProgram> {
        Arc::clone(self.code.bytecode(&self.prog))
    }

    /// The shared Tier 2 closure program, compiling it (and the bytecode
    /// underneath, if this entry never ran on the VM) on first use. Under
    /// racing submissions exactly one thread tier-compiles; the rest
    /// wait and share the result.
    pub fn tier_code(&self) -> Arc<TierProgram> {
        Arc::clone(self.code.tier(&self.prog))
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
            .get_or_init(|| compile(&self.source, self.stdlib).0.into_program())
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

/// The FNV-1a hash of a cache key: the request source, whether the
/// stdlib is compiled in, and the optimization level.
fn content_hash(source: &str, stdlib: bool, opt_level: u8) -> u64 {
    let mut h = FnvHasher::default();
    source.hash(&mut h);
    stdlib.hash(&mut h);
    opt_level.hash(&mut h);
    h.finish()
}

type Slot = Arc<OnceLock<Result<Arc<CachedProgram>, String>>>;

/// One resident cache entry: the full key (the source text is kept so
/// hash collisions are resolved by comparison, never by trust), the
/// compile slot, and a last-touch stamp for LRU eviction.
struct Entry {
    source: String,
    stdlib: bool,
    opt_level: u8,
    slot: Slot,
    last_touch: u64,
}

impl Entry {
    fn is(&self, source: &str, stdlib: bool, opt_level: u8) -> bool {
        self.stdlib == stdlib && self.opt_level == opt_level && self.source == source
    }
}

/// The map behind the cache's lock: hash → collision chain of entries.
#[derive(Default)]
struct Entries {
    chains: FastMap<u64, Vec<Entry>>,
    len: usize,
    /// LRU clock: bumped on every touch, stamped into entries.
    clock: u64,
}

impl Entries {
    /// Evicts the least-recently touched entry (there is always at least
    /// one: this runs right after an insert pushed the map over cap).
    fn evict_lru(&mut self) {
        let victim = self
            .chains
            .iter()
            .flat_map(|(h, chain)| {
                chain
                    .iter()
                    .enumerate()
                    .map(move |(i, e)| (e.last_touch, *h, i))
            })
            .min();
        if let Some((_, hash, i)) = victim {
            let chain = self.chains.get_mut(&hash).expect("victim chain exists");
            chain.swap_remove(i);
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
    /// Compilations whose check extended the shared checked stdlib base.
    pub base_extends: u64,
    /// Compilations whose check built the whole prefix (the request could
    /// change a stdlib verdict, or does not parse).
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
    entries: Mutex<Entries>,
    /// Bound on resident entries.
    capacity: usize,
    disk: Option<DiskCache>,
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

    /// An empty cache bounded to `capacity` entries (at least one),
    /// optionally backed by an artifact directory.
    pub fn with_config(capacity: usize, disk: Option<DiskCache>) -> ProgramCache {
        ProgramCache {
            entries: Mutex::new(Entries::default()),
            capacity: capacity.max(1),
            disk,
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

    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.entries
            .lock()
            .expect("no code panics while holding the cache lock")
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
        let hash = content_hash(source, stdlib, opt_level);
        let (slot, hit) = {
            let mut entries = self.entries();
            entries.clock += 1;
            let stamp = entries.clock;
            let existing = entries
                .chains
                .get_mut(&hash)
                .and_then(|chain| chain.iter_mut().find(|e| e.is(source, stdlib, opt_level)));
            match existing {
                Some(entry) => {
                    entry.last_touch = stamp;
                    (Arc::clone(&entry.slot), true)
                }
                None => {
                    let slot: Slot = Arc::new(OnceLock::new());
                    entries.chains.entry(hash).or_default().push(Entry {
                        source: source.to_string(),
                        stdlib,
                        opt_level,
                        slot: Arc::clone(&slot),
                        last_touch: stamp,
                    });
                    entries.len += 1;
                    if entries.len > self.capacity {
                        // The newest entry carries the freshest stamp, so
                        // the LRU scan never evicts what was just
                        // inserted. In-flight requests for the victim
                        // hold their own Arc and finish safely.
                        entries.evict_lru();
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
                return Ok(Arc::new(CachedProgram {
                    prog,
                    source: source.to_string(),
                    stdlib,
                    from_disk: true,
                    invocations: AtomicU64::new(0),
                    code: CompiledCode::with_bytecode(opt_level, Arc::new(code)),
                    full: OnceLock::new(),
                }));
            }
        }
        self.compiles.fetch_add(1, Ordering::Relaxed);
        let (report, extended) = compile(source, stdlib);
        if extended {
            &self.base_extends
        } else {
            &self.full_checks
        }
        .fetch_add(1, Ordering::Relaxed);
        let cached = Arc::new(CachedProgram {
            prog: report.into_program()?,
            source: source.to_string(),
            stdlib,
            from_disk: false,
            invocations: AtomicU64::new(0),
            code: CompiledCode::new(opt_level),
            full: OnceLock::new(),
        });
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
    /// entries (each entry's code holder *is* the count — there is no
    /// separate counter to drift from it).
    pub fn stats(&self) -> ProgramCacheStats {
        let tier_compiles = self
            .entries()
            .chains
            .values()
            .flatten()
            .filter_map(|e| e.slot.get())
            .filter_map(|r| r.as_ref().ok())
            .filter(|cached| cached.code.tier_compiled())
            .count() as u64;
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

    /// Number of resident cached programs.
    pub fn len(&self) -> usize {
        self.entries().len
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The unit name a request's source is checked under.
pub const REQUEST_NAME: &str = "request.genus";

/// One checked compile of a request (prelude + optional stdlib + the
/// request source) in a fresh session seeded the way `genus run` seeds its
/// own, so serve results and diagnostics match `genus run` byte for byte;
/// and whether its check extended the shared checked base.
pub fn compile(source: &str, stdlib: bool) -> (CheckReport, bool) {
    let mut session = CompileSession::seeded(stdlib);
    session.update_source(REQUEST_NAME, source);
    session.check();
    let extended = session.stats().prefix_extended > 0;
    (session.into_report(), extended)
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
        let cache = ProgramCache::with_config(8, None);
        let first_src = "int main() { return 1000; }".to_string();
        let (first, _) = cache.get_or_compile(&first_src, false, 0);
        let first = first.unwrap();
        for i in 0..32 {
            let src = format!("int main() {{ return {i}; }}");
            let (r, _) = cache.get_or_compile(&src, false, 0);
            assert_eq!(run_vm(&r.unwrap()), i.to_string());
        }
        assert_eq!(cache.len(), 8, "full to capacity");
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
    fn capacity_holds_exactly_n_and_evicts_the_least_recently_touched() {
        // The four sources' content hashes agree in their low three bits,
        // so a cache split by hash would keep them in one partition.
        let src = |n: u32| format!("int main() {{ return {n}; }}");
        let hit = |cache: &ProgramCache, n| cache.get_or_compile(&src(n), false, 0).1;
        let cache = ProgramCache::with_config(3, None);
        for n in [0, 8, 15] {
            assert!(!hit(&cache, n));
        }
        assert_eq!(cache.len(), 3, "capacity 3 holds 3 programs");
        assert!(hit(&cache, 0), "touching 0 makes 8 the oldest");
        assert!(!hit(&cache, 20));
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().evictions, 1);
        for n in [0, 15, 20] {
            assert!(hit(&cache, n), "{n} stays resident");
        }
        assert!(!hit(&cache, 8), "the least recently touched entry went");
        // Capacity 1 holds one program, whatever the sources' hashes.
        let one = ProgramCache::with_config(1, None);
        for n in [1, 2] {
            assert!(!hit(&one, n));
        }
        assert_eq!(one.len(), 1);
        assert!(hit(&one, 2) && !hit(&one, 1));
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
        assert_eq!(cache.len(), 4, "full to capacity");
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
        assert_eq!(interp.state.render(&v), "25");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
