//! Incremental compilation sessions: a demand-driven, content-hash-keyed
//! query pipeline from parse to checked program.
//!
//! A [`Session`] holds named compilation units (the prelude, optionally the
//! stdlib, and user sources). [`Session::update_source`] replaces a unit's
//! text; [`Session::check`] re-derives a full [`CheckReport`]-equivalent
//! result while reusing as much prior work as fingerprints prove safe:
//!
//! * **Parses** are memoized per `(file, content fingerprint)` in a
//!   [`ParseCache`], so only edited files re-parse and reverts are free.
//! * The **semantic prefix** (collection, variance, termination, signature
//!   completion, multimethod conformance, hierarchy well-formedness) is keyed
//!   by the *interface* fingerprints of every unit. A body-only edit keeps
//!   every interface fingerprint, so the prefix [`Table`] survives; the edited
//!   unit's bodies and spans are patched into it positionally
//!   (`patch_unit`). An interface edit rebuilds it, after the first
//!   check by extending a snapshot of the leading always-visible units'
//!   prefix with the other units (`extend_prefix` in the crate root, the
//!   reuse rule the checked stdlib base also applies), and by a full
//!   build only when that rule declines.
//! * **Per-unit verdicts** (lowered HIR bodies plus diagnostics) are keyed by
//!   `(content fingerprint, deps fingerprint)`, where the deps fingerprint
//!   folds the global environment fingerprint (models and `use` declarations
//!   anywhere can change default-model resolution, §4.4 of the paper) with
//!   the interface fingerprints of the unit's *visible set* — the transitive
//!   closure of its imports, or every unit for legacy importless units.
//!   Evicted or rebuilt-over verdicts are restored from a bounded LRU when a
//!   definition fingerprint proves the new table presents bit-identical
//!   definitions (same ids, same types) to the cached HIR.
//!
//! Reuse never changes observable output: one-shot checking
//! ([`crate::check_sources_report`]) is literally a cold session, and the
//! `incremental_agrees` property test in the workspace root asserts that a
//! warm re-check after random edits produces byte-identical diagnostics.

use crate::hir::{Body, Expr};
use crate::{
    check_bodies_filter, imports, new_checked_shell, prelude, CheckReport, CheckedProgram,
};
use genus_common::{Diagnostic, Diagnostics, FastMap, FileId, Severity, SourceMap, Span};
use genus_syntax::ast;
use genus_syntax::{combine_fps, Fp, ParseCache, ParsedUnit};
use genus_types::{ClassId, Table};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Counters describing how much work a session reused versus redid.
///
/// All counters are cumulative over the session's lifetime; callers that
/// want per-check deltas snapshot before and after a [`Session::check`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SessionStats {
    /// Number of `check()` calls.
    pub checks: u64,
    /// Number of units at the last check.
    pub units: u64,
    /// Parses served from the memo cache.
    pub parse_reused: u64,
    /// Parses that actually ran.
    pub parse_new: u64,
    /// Times the semantic prefix (collect → wf) was rebuilt: every new
    /// table, whether built from scratch or extended from the base
    /// snapshot.
    pub prefix_rebuilt: u64,
    /// Rebuilds that extended the snapshot of the leading always-visible
    /// units' prefix instead of building every unit's (a subset of
    /// `prefix_rebuilt`).
    pub prefix_extended: u64,
    /// Units whose bodies/spans were patched into a reused prefix table.
    pub units_patched: u64,
    /// Units whose live verdict (HIR + diagnostics) was reused unchanged.
    pub units_reused: u64,
    /// Units restored from the verdict LRU (e.g. after an edit was reverted).
    pub units_restored: u64,
    /// Units that were fully re-checked.
    pub units_rechecked: u64,
    /// Verdicts evicted from the LRU to respect its capacity bound.
    pub verdict_evictions: u64,
}

impl SessionStats {
    /// Units whose check verdict was reused in any form (live or restored).
    pub fn units_not_rechecked(&self) -> u64 {
        self.units_reused + self.units_restored
    }
}

/// The outcome of one [`Session::check`]: normalized diagnostics plus the
/// session's cumulative reuse statistics.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Every diagnostic, in normalized order (same as [`CheckReport`]).
    pub diags: Vec<Diagnostic>,
    /// Cumulative reuse counters.
    pub stats: SessionStats,
}

impl SessionReport {
    /// Whether any error-severity diagnostic was reported.
    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(|d| d.severity == Severity::Error)
    }
}

/// One named compilation unit of a session.
#[derive(Debug)]
struct Unit {
    /// Diagnostic file name, e.g. `main.genus` or `<prelude>`.
    name: String,
    /// Importable module name (the file stem).
    module: String,
    /// The unit's file in the session's source map (index == unit index).
    file: FileId,
    /// Modules this unit depends on even without `import` declarations in
    /// its text (used for the stdlib, whose sources predate modules).
    implicit_deps: Vec<String>,
    /// Whether every unit sees this one without importing it (prelude,
    /// stdlib).
    always_visible: bool,
    /// Current parse, refreshed by `check()`.
    parsed: Option<Arc<ParsedUnit>>,
}

/// Key of a per-unit verdict: `(file, content fp, deps fp)`.
type VKey = (u32, Fp, Fp);

/// A unit's checked artifacts: the HIR bodies it contributed to the program
/// (shared with the live program, not copied).
#[derive(Debug, Default, Clone)]
struct Fragment {
    method_bodies: Vec<((u32, u32), Arc<Body>)>,
    ctor_bodies: Vec<((u32, u32), Arc<Body>)>,
    global_bodies: Vec<(u32, Arc<Body>)>,
    model_bodies: Vec<((u32, u32), Arc<Body>)>,
    field_inits: Vec<((u32, u32), Arc<Expr>)>,
    static_inits: Vec<(ClassId, usize, Arc<Expr>)>,
}

/// A memoized per-unit check verdict.
#[derive(Debug, Clone)]
struct Verdict {
    /// Diagnostics this unit's check produced (body + import checks).
    diags: Vec<Diagnostic>,
    /// Content fingerprints of every file the diagnostics' spans point into,
    /// at record time. Reuse requires these files to be byte-identical now,
    /// so cached spans are never stale.
    diag_files: Vec<(u32, Fp)>,
    /// Combined definition fingerprint of the visible units at record time.
    /// Restoring into a rebuilt table requires an exact match: the HIR embeds
    /// class/model/type-variable ids, which must be bit-identical.
    def_fp: Fp,
    /// The unit's checked bodies.
    frag: Fragment,
}

/// Semantic state carried between checks: the live table and bodies, plus
/// the fingerprints that justify reusing them.
#[derive(Debug)]
struct Sem {
    /// The master program: prefix table plus accumulated unit fragments.
    checked: CheckedProgram,
    /// Fingerprint of all unit interfaces; a mismatch forces a rebuild.
    prefix_key: Fp,
    /// Diagnostics the prefix phases produced.
    prefix_diags: Vec<Diagnostic>,
    /// File-content snapshot guarding `prefix_diags` spans.
    prefix_diag_files: Vec<(u32, Fp)>,
    /// Per-unit content fingerprint the table's ASTs/spans currently reflect.
    unit_contents: Vec<Fp>,
    /// Per-unit definition fingerprints over the current table.
    def_fps: Vec<Fp>,
    /// Per-unit live verdict key (what the master fragments contain).
    live_keys: Vec<Option<VKey>>,
    /// Per-unit diagnostics of the live verdict.
    unit_diags: Vec<Vec<Diagnostic>>,
    /// Per-unit diagnostic file-content snapshots of the live verdict.
    unit_diag_files: Vec<Vec<(u32, Fp)>>,
}

/// The semantic prefix of a session's leading always-visible units (the
/// prelude, plus the stdlib under [`Session::with_stdlib`]), taken at the
/// first prefix rebuild after a check and extended by every later rebuild
/// the reuse rule allows.
#[derive(Debug)]
struct BaseSnapshot {
    /// Content fingerprints of the base units it was built from.
    contents: Vec<Fp>,
    /// Their prefix table; `None` when building it reported a diagnostic,
    /// and every rebuild is then a full one.
    table: Option<Table>,
    /// The base units' definition fingerprints over `table`.
    def_fps: Vec<Fp>,
}

/// Bound on retained verdicts (least recently inserted or restored goes
/// first).
const VERDICT_CAPACITY: usize = 128;

/// Process-wide memoized prelude parse (the prelude is a compile-time
/// constant and is always unit 0 / file 0 of every session).
fn prelude_parse() -> &'static Arc<ParsedUnit> {
    static PARSE: OnceLock<Arc<ParsedUnit>> = OnceLock::new();
    PARSE.get_or_init(|| {
        let mut sm = SourceMap::new();
        let f = sm.add_file(prelude::PRELUDE_NAME, prelude::PRELUDE);
        Arc::new(genus_syntax::parse_unit(&sm, f, prelude::PRELUDE_NAME))
    })
}

/// The stdlib's parse trees, memoized process-wide.
///
/// Parsed against a scratch [`SourceMap`] that mirrors the layout of every
/// stdlib-seeded session — prelude at file 0, stdlib units at 1..=N in
/// [`genus_stdlib::sources`] order — so the spans inside the memoized trees
/// are valid in any session that registers the stdlib first.
pub fn stdlib_parses() -> &'static [(&'static str, Arc<ParsedUnit>)] {
    static PARSES: OnceLock<Vec<(&'static str, Arc<ParsedUnit>)>> = OnceLock::new();
    PARSES.get_or_init(|| {
        let mut sm = SourceMap::new();
        sm.add_file(prelude::PRELUDE_NAME, prelude::PRELUDE);
        genus_stdlib::sources()
            .iter()
            .map(|(name, src)| {
                let file = sm.add_file(*name, *src);
                (*name, Arc::new(genus_syntax::parse_unit(&sm, file, name)))
            })
            .collect()
    })
}

/// The file stem used as a unit's importable module name:
/// `"lib/pair.genus"` → `"pair"`.
fn module_of(name: &str) -> String {
    let base = name.rsplit(['/', '\\']).next().unwrap_or(name);
    match base.rsplit_once('.') {
        Some((stem, _)) if !stem.is_empty() => stem.to_string(),
        _ => base.to_string(),
    }
}

/// An incremental compile session over named units.
///
/// ```
/// use genus_check::Session;
///
/// let mut s = Session::new();
/// s.update_source("main.genus", "int main() { return 1; }");
/// let r1 = s.check();
/// assert!(!r1.has_errors());
/// s.update_source("main.genus", "int main() { return 2; }");
/// let r2 = s.check();
/// assert!(!r2.has_errors());
/// // The prelude's parse and verdict were reused across the edit.
/// assert!(r2.stats.units_not_rechecked() > 0);
/// ```
#[derive(Debug)]
pub struct Session {
    sm: SourceMap,
    units: Vec<Unit>,
    parse_cache: ParseCache,
    sem: Option<Sem>,
    base: Option<BaseSnapshot>,
    verdicts: FastMap<VKey, Verdict>,
    verdict_order: Vec<VKey>,
    stats: SessionStats,
    last_diags: Vec<Diagnostic>,
    generation: u64,
    checked_once: bool,
}

impl Default for Session {
    fn default() -> Self {
        Session::new()
    }
}

impl Session {
    /// Creates a session containing only the prelude.
    pub fn new() -> Self {
        let mut sm = SourceMap::new();
        let file = sm.add_file(prelude::PRELUDE_NAME, prelude::PRELUDE);
        debug_assert_eq!(file.0, 0);
        let mut parse_cache = ParseCache::new();
        parse_cache.insert(file, prelude_parse().clone());
        Session {
            sm,
            units: vec![Unit {
                name: prelude::PRELUDE_NAME.to_string(),
                module: prelude::PRELUDE_NAME.to_string(),
                file,
                implicit_deps: Vec::new(),
                always_visible: true,
                parsed: None,
            }],
            parse_cache,
            sem: None,
            base: None,
            verdicts: FastMap::default(),
            verdict_order: Vec::new(),
            stats: SessionStats::default(),
            last_diags: Vec::new(),
            generation: 0,
            checked_once: false,
        }
    }

    /// Creates a session pre-loaded with the standard library as
    /// always-visible units, their parses seeded from [`stdlib_parses`].
    pub fn with_stdlib() -> Self {
        let mut s = Session::new();
        for (name, src) in genus_stdlib::sources() {
            s.add_unit(name, src, &[], true);
        }
        for (name, parsed) in stdlib_parses() {
            s.seed_parse(name, Arc::clone(parsed));
        }
        s
    }

    /// Adds or replaces the source text of the unit named `name`.
    ///
    /// New units are appended; the module name is the file stem.
    pub fn update_source(&mut self, name: &str, src: &str) {
        if let Some(u) = self.units.iter_mut().find(|u| u.name == name) {
            self.sm.update_file(u.file, src);
            u.parsed = None;
            return;
        }
        self.add_unit(name, src, &[], false);
    }

    /// Adds a unit with session-level module metadata: `implicit_deps` are
    /// module names the unit depends on without writing `import`, and
    /// `always_visible` units (prelude, stdlib) are visible to every unit.
    pub fn add_unit(
        &mut self,
        name: &str,
        src: &str,
        implicit_deps: &[&str],
        always_visible: bool,
    ) {
        let file = self.sm.add_file(name, src);
        debug_assert_eq!(file.0 as usize, self.units.len());
        self.units.push(Unit {
            name: name.to_string(),
            module: module_of(name),
            file,
            implicit_deps: implicit_deps.iter().map(|s| s.to_string()).collect(),
            always_visible,
            parsed: None,
        });
    }

    /// Seeds the parse cache for the unit named `name` with an externally
    /// memoized parse (must match the unit's current text and file id).
    pub fn seed_parse(&mut self, name: &str, parse: Arc<ParsedUnit>) {
        if let Some(u) = self.units.iter().find(|u| u.name == name) {
            self.parse_cache.insert(u.file, parse);
        }
    }

    /// The session's source map (for rendering diagnostics).
    pub fn sm(&self) -> &SourceMap {
        &self.sm
    }

    /// The names of all units, in unit order.
    pub fn unit_names(&self) -> Vec<&str> {
        self.units.iter().map(|u| u.name.as_str()).collect()
    }

    /// Cumulative reuse statistics.
    pub fn stats(&self) -> SessionStats {
        let mut s = self.stats;
        let (hits, misses) = self.parse_cache.stats();
        s.parse_reused = hits;
        s.parse_new = misses;
        s
    }

    /// A counter that changes whenever a check may have changed the checked
    /// program (table identity or any body). Engines can key compiled-code
    /// caches by this.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The diagnostics of the last check, in normalized order.
    pub fn last_diags(&self) -> &[Diagnostic] {
        &self.last_diags
    }

    /// The checked program of the last check, when it had no errors.
    pub fn program(&self) -> Option<&CheckedProgram> {
        if !self.checked_once
            || self
                .last_diags
                .iter()
                .any(|d| d.severity == Severity::Error)
        {
            return None;
        }
        self.sem.as_ref().map(|s| &s.checked)
    }

    /// Re-derives diagnostics (and the checked program) for the current
    /// sources, reusing memoized work where fingerprints allow.
    pub fn check(&mut self) -> SessionReport {
        self.stats.checks += 1;
        self.stats.units = self.units.len() as u64;
        self.checked_once = true;

        // ---- Parse every unit through the memo cache. ----
        for i in 0..self.units.len() {
            let (file, name) = (self.units[i].file, self.units[i].name.clone());
            let parsed = self.parse_cache.get_or_parse(&self.sm, file, &name);
            self.units[i].parsed = Some(parsed);
        }
        let parsed: Vec<Arc<ParsedUnit>> = self
            .units
            .iter()
            .map(|u| u.parsed.clone().expect("parsed above"))
            .collect();

        // Parse errors stop the pipeline, exactly like the historical
        // one-shot path: report only parse diagnostics.
        if parsed
            .iter()
            .flat_map(|p| p.diags.iter())
            .any(|d| d.severity == Severity::Error)
        {
            let mut sink = Diagnostics::new();
            for p in &parsed {
                for d in &p.diags {
                    sink.push(d.clone());
                }
            }
            self.last_diags = sink.take();
            self.generation += 1;
            return self.report();
        }

        // ---- Prefix: reuse, patch, or rebuild the semantic table. ----
        let content_fps: Vec<Fp> = parsed.iter().map(|p| p.content_fp).collect();
        let prefix_key = {
            let mut fps = vec![self.units.len() as Fp];
            for (u, p) in self.units.iter().zip(&parsed) {
                fps.push(genus_syntax::content_fp(&u.module, ""));
                fps.push(p.interface_fp);
            }
            combine_fps(fps)
        };

        let mut reuse_prefix = match &self.sem {
            Some(sem) if sem.prefix_key == prefix_key => {
                // Prefix diagnostics carry spans; every file they point into
                // must be byte-identical or the spans would be stale.
                sem.prefix_diag_files
                    .iter()
                    .all(|(f, fp)| content_fps.get(*f as usize) == Some(fp))
            }
            _ => false,
        };

        if reuse_prefix {
            // Patch edited units' bodies and spans into the live table.
            let sem = self.sem.as_mut().expect("reuse implies state");
            for i in 0..self.units.len() {
                if sem.unit_contents[i] == content_fps[i] {
                    continue;
                }
                if patch_unit(
                    &mut sem.checked.table,
                    &parsed[i].program,
                    self.units[i].file,
                ) {
                    sem.unit_contents[i] = content_fps[i];
                    sem.def_fps[i] = def_fp(&sem.checked.table, self.units[i].file, i);
                    self.stats.units_patched += 1;
                    self.generation += 1;
                } else {
                    // Structure mismatch despite equal interface fingerprints
                    // (hash collision or span pathology): rebuild.
                    reuse_prefix = false;
                    break;
                }
            }
        }

        if !reuse_prefix {
            let programs: Vec<&ast::Program> = parsed.iter().map(|p| p.program.as_ref()).collect();
            // A cold check builds every unit's prefix; a rebuild after a
            // check extends the base snapshot unless the rule declines.
            let extended = match self.sem {
                Some(_) => self.extend_base(&programs, &content_fps),
                None => None,
            };
            let (table, prefix_diags, mut def_fps) = match extended {
                Some((table, base_def_fps)) => {
                    self.stats.prefix_extended += 1;
                    (table, Vec::new(), base_def_fps)
                }
                None => {
                    let mut diags = Diagnostics::new();
                    let table = crate::build_prefix(&programs, &mut diags);
                    (table, diags.take(), Vec::new())
                }
            };
            let prefix_diag_files = diag_file_snapshot(&prefix_diags, &content_fps);
            for (i, u) in self.units.iter().enumerate().skip(def_fps.len()) {
                def_fps.push(def_fp(&table, u.file, i));
            }
            let n = self.units.len();
            self.sem = Some(Sem {
                checked: new_checked_shell(table),
                prefix_key,
                prefix_diags,
                prefix_diag_files,
                unit_contents: content_fps.clone(),
                def_fps,
                live_keys: vec![None; n],
                unit_diags: vec![Vec::new(); n],
                unit_diag_files: vec![Vec::new(); n],
            });
            self.stats.prefix_rebuilt += 1;
            self.generation += 1;
        }

        // ---- Visibility and dependency fingerprints. ----
        let visible_sets: Vec<Vec<usize>> = (0..self.units.len())
            .map(|i| self.visible_set(i, &parsed, false))
            .collect();
        let strict_files: Vec<HashSet<u32>> = (0..self.units.len())
            .map(|i| {
                self.visible_set(i, &parsed, true)
                    .iter()
                    .map(|&j| self.units[j].file.0)
                    .collect()
            })
            .collect();
        let env_all = combine_fps(parsed.iter().map(|p| p.env_fp));
        let deps_fps: Vec<Fp> = visible_sets
            .iter()
            .map(|vis| {
                let mut fps = vec![env_all];
                for &j in vis {
                    fps.push(j as Fp);
                    fps.push(parsed[j].interface_fp);
                }
                combine_fps(fps)
            })
            .collect();

        // ---- Per-unit verdicts: reuse, restore, or re-check. ----
        for i in 0..self.units.len() {
            let key: VKey = (self.units[i].file.0, content_fps[i], deps_fps[i]);
            let sem = self.sem.as_mut().expect("state built above");

            if sem.live_keys[i] == Some(key) && snapshot_ok(&sem.unit_diag_files[i], &content_fps) {
                self.stats.units_reused += 1;
                continue;
            }

            let cur_def_fp = combine_def_fps(&sem.def_fps, &visible_sets[i]);
            if let Some(v) = self.verdicts.get(&key) {
                if v.def_fp == cur_def_fp && snapshot_ok(&v.diag_files, &content_fps) {
                    let v = v.clone();
                    remove_fragment(&mut sem.checked, self.units[i].file);
                    splice_fragment(&mut sem.checked, &v.frag);
                    sem.live_keys[i] = Some(key);
                    sem.unit_diags[i] = v.diags;
                    sem.unit_diag_files[i] = v.diag_files;
                    // Most recently used goes to the back, so a verdict
                    // restored on every signature edit never ages out.
                    if let Some(at) = self.verdict_order.iter().position(|k| *k == key) {
                        self.verdict_order.remove(at);
                        self.verdict_order.push(key);
                    }
                    self.stats.units_restored += 1;
                    self.generation += 1;
                    continue;
                }
            }

            // Full re-check of this unit only.
            remove_fragment(&mut sem.checked, self.units[i].file);
            let mut diags = Diagnostics::new();
            let unit_meta: Vec<(String, FileId, bool)> = self
                .units
                .iter()
                .map(|u| (u.module.clone(), u.file, !u.always_visible))
                .collect();
            imports::check_unit_imports(
                &sem.checked.table,
                &parsed[i].program,
                self.units[i].file,
                i,
                &unit_meta,
                &strict_files[i],
                &mut diags,
            );
            check_bodies_filter(&mut sem.checked, &mut diags, Some(self.units[i].file));
            let unit_diags = diags.take();
            let diag_files = diag_file_snapshot(&unit_diags, &content_fps);
            let frag = extract_fragment(&sem.checked, self.units[i].file);
            sem.live_keys[i] = Some(key);
            sem.unit_diags[i] = unit_diags.clone();
            sem.unit_diag_files[i] = diag_files.clone();
            self.insert_verdict(
                key,
                Verdict {
                    diags: unit_diags,
                    diag_files,
                    def_fp: cur_def_fp,
                    frag,
                },
            );
            self.stats.units_rechecked += 1;
            self.generation += 1;
        }

        // Static initializers must run in declaration order regardless of
        // which units were re-checked in which order.
        let sem = self.sem.as_mut().expect("state built above");
        sem.checked
            .static_inits
            .sort_by_key(|(cid, fi, _)| (cid.0, *fi));

        // ---- Assemble the normalized report. ----
        let mut sink = Diagnostics::new();
        for p in &parsed {
            for d in &p.diags {
                sink.push(d.clone());
            }
        }
        for d in &sem.prefix_diags {
            sink.push(d.clone());
        }
        for ds in &sem.unit_diags {
            for d in ds {
                sink.push(d.clone());
            }
        }
        self.last_diags = sink.take();
        self.report()
    }

    /// Consumes the session into the historical one-shot [`CheckReport`].
    pub fn into_report(mut self) -> CheckReport {
        if !self.checked_once {
            self.check();
        }
        let has_errors = self
            .last_diags
            .iter()
            .any(|d| d.severity == Severity::Error);
        let program = if has_errors {
            None
        } else {
            self.sem.map(|s| s.checked)
        };
        CheckReport {
            sm: self.sm,
            diags: self.last_diags,
            program,
        }
    }

    /// The prefix of every unit as the base snapshot extended by the units
    /// after it, with the base units' definition fingerprints; `None` when
    /// the reuse rule declines. (Re)takes the snapshot when the leading
    /// always-visible units changed since it was taken.
    fn extend_base(
        &mut self,
        programs: &[&ast::Program],
        content_fps: &[Fp],
    ) -> Option<(Table, Vec<Fp>)> {
        let n = self.units.iter().take_while(|u| u.always_visible).count();
        if self.base.as_ref().map(|b| b.contents.as_slice()) != Some(&content_fps[..n]) {
            let mut diags = Diagnostics::new();
            let table = crate::build_prefix(&programs[..n], &mut diags);
            self.base = Some(BaseSnapshot {
                contents: content_fps[..n].to_vec(),
                def_fps: (0..n)
                    .map(|i| def_fp(&table, self.units[i].file, i))
                    .collect(),
                table: diags.is_empty().then_some(table),
            });
        }
        let base = self.base.as_ref().expect("snapshot taken above");
        let table = crate::extend_prefix(base.table.as_ref()?, &programs[n..])?;
        Some((table, base.def_fps.clone()))
    }

    fn report(&self) -> SessionReport {
        SessionReport {
            diags: self.last_diags.clone(),
            stats: self.stats(),
        }
    }

    fn insert_verdict(&mut self, key: VKey, v: Verdict) {
        if !self.verdicts.contains_key(&key) {
            if self.verdict_order.len() >= VERDICT_CAPACITY {
                let oldest = self.verdict_order.remove(0);
                self.verdicts.remove(&oldest);
                self.stats.verdict_evictions += 1;
            }
            self.verdict_order.push(key);
        }
        self.verdicts.insert(key, v);
    }

    /// The set of unit indices visible to unit `i` (always includes `i`).
    ///
    /// A unit with explicit `import`s or implicit deps sees the prelude and
    /// other always-visible units, itself, and the transitive closure of its
    /// imports. Open units (legacy user units with no imports) see every
    /// unit.
    ///
    /// Two variants serve two consumers:
    ///
    /// * `strict` (E0802 enforcement): an imported open unit contributes
    ///   only itself — importing a legacy module grants that module, not
    ///   the whole program.
    /// * non-strict (invalidation): reaching an open unit widens the set to
    ///   *every* unit. An open unit's own signatures may mention types from
    ///   anywhere (it sees everything), so values flowing from it into `i`
    ///   can carry any unit's types; the dependency fingerprint must cover
    ///   them all to stay sound.
    fn visible_set(&self, i: usize, parsed: &[Arc<ParsedUnit>], strict: bool) -> Vec<usize> {
        let all = || (0..self.units.len()).collect::<Vec<_>>();
        let is_open = |j: usize| {
            !self.units[j].always_visible
                && parsed[j].program.imports.is_empty()
                && self.units[j].implicit_deps.is_empty()
        };
        if is_open(i) {
            return all();
        }
        let by_module = |m: &str| self.units.iter().position(|u| u.module == m);
        let mut seen: HashSet<usize> = HashSet::new();
        let mut work: Vec<usize> = vec![i];
        for (j, u) in self.units.iter().enumerate() {
            if u.always_visible {
                work.push(j);
            }
        }
        while let Some(j) = work.pop() {
            if !seen.insert(j) {
                continue;
            }
            if is_open(j) {
                if strict {
                    continue;
                }
                return all();
            }
            for imp in &parsed[j].program.imports {
                if let Some(k) = by_module(imp.name.as_str()) {
                    work.push(k);
                }
            }
            for dep in &self.units[j].implicit_deps {
                if let Some(k) = by_module(dep) {
                    work.push(k);
                }
            }
        }
        let mut v: Vec<usize> = seen.into_iter().collect();
        v.sort_unstable();
        v
    }
}

/// Collects `(file, content fp)` for every file a diagnostic list's spans
/// point into (primary spans and notes; dummy spans skipped).
fn diag_file_snapshot(diags: &[Diagnostic], content_fps: &[Fp]) -> Vec<(u32, Fp)> {
    let mut files: Vec<u32> = Vec::new();
    let mut push = |sp: Span| {
        if !sp.is_dummy() && (sp.file.0 as usize) < content_fps.len() {
            files.push(sp.file.0);
        }
    };
    for d in diags {
        push(d.span);
        for (sp, _) in &d.notes {
            push(*sp);
        }
    }
    files.sort_unstable();
    files.dedup();
    files
        .into_iter()
        .map(|f| (f, content_fps[f as usize]))
        .collect()
}

/// Whether every file in a snapshot still has the recorded content.
fn snapshot_ok(snapshot: &[(u32, Fp)], content_fps: &[Fp]) -> bool {
    snapshot
        .iter()
        .all(|(f, fp)| content_fps.get(*f as usize) == Some(fp))
}

fn combine_def_fps(def_fps: &[Fp], visible: &[usize]) -> Fp {
    let fps: Vec<Fp> = visible
        .iter()
        .flat_map(|&j| [j as Fp, def_fps[j]])
        .collect();
    combine_fps(fps)
}

// ---------------------------------------------------------------------
// Definition fingerprints
// ---------------------------------------------------------------------

/// Fingerprint of the definitions a file contributes to the table, with
/// bodies stripped and spans zeroed: the exact data (including numeric ids)
/// a *different* unit's body check can observe. Cached HIR may be restored
/// into a rebuilt table only when the definition fingerprints of every
/// visible unit match, because HIR embeds `ClassId`/`ModelId`/`TvId`/global
/// indices.
fn def_fp(table: &Table, file: FileId, unit_idx: usize) -> Fp {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = write!(s, "unit {unit_idx};");
    let empty_block = || ast::Block {
        stmts: Vec::new(),
        span: Span::dummy(),
    };
    for (ci, c) in table.classes.iter().enumerate() {
        if c.span.file != file {
            continue;
        }
        let mut c = c.clone();
        c.span = Span::dummy();
        for f in &mut c.fields {
            f.span = Span::dummy();
            f.init = None;
        }
        for k in &mut c.ctors {
            k.span = Span::dummy();
            k.body = empty_block();
        }
        for m in &mut c.methods {
            m.span = Span::dummy();
            m.body = None;
        }
        let _ = write!(s, "class {ci} {c:?};");
    }
    for (ki, k) in table.constraints.iter().enumerate() {
        if k.span.file != file {
            continue;
        }
        let mut k = k.clone();
        k.span = Span::dummy();
        for op in &mut k.ops {
            op.span = Span::dummy();
        }
        let _ = write!(s, "constraint {ki} {k:?};");
    }
    for (mi, m) in table.models.iter().enumerate() {
        // A model's shape is owned by its declaring file, but individual
        // methods may come from `enrich` declarations in other files; each
        // method belongs to the fingerprint of its *declaring* file, keyed
        // by its index (restored model bodies are keyed `(model, index)`).
        if m.span.file == file {
            let mut hdr = m.clone();
            hdr.span = Span::dummy();
            hdr.methods.clear();
            let _ = write!(s, "model {mi} {hdr:?};");
        }
        for (ki, mm) in m.methods.iter().enumerate() {
            if mm.span.file != file {
                continue;
            }
            let mut mm = mm.clone();
            mm.span = Span::dummy();
            mm.body = empty_block();
            let _ = write!(s, "modelmethod {mi} {ki} {mm:?};");
        }
    }
    for (ui, u) in table.uses.iter().enumerate() {
        if u.span.file != file {
            continue;
        }
        let mut u = u.clone();
        u.span = Span::dummy();
        let _ = write!(s, "use {ui} {u:?};");
    }
    for (gi, g) in table.globals.iter().enumerate() {
        if g.span.file != file {
            continue;
        }
        let mut g = g.clone();
        g.span = Span::dummy();
        g.body = None;
        let _ = write!(s, "global {gi} {g:?};");
    }
    genus_syntax::content_fp("<defs>", &s)
}

// ---------------------------------------------------------------------
// Fragment bookkeeping
// ---------------------------------------------------------------------

/// Indices of the definitions a file owns, per span ownership.
struct Owned {
    classes: HashSet<u32>,
    model_methods: HashSet<(u32, u32)>,
    globals: HashSet<u32>,
}

fn owned_defs(table: &Table, file: FileId) -> Owned {
    let classes = table
        .classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.span.file == file)
        .map(|(i, _)| i as u32)
        .collect();
    let mut model_methods = HashSet::new();
    for (mi, m) in table.models.iter().enumerate() {
        for (ki, mm) in m.methods.iter().enumerate() {
            if mm.span.file == file {
                model_methods.insert((mi as u32, ki as u32));
            }
        }
    }
    let globals = table
        .globals
        .iter()
        .enumerate()
        .filter(|(_, g)| g.span.file == file)
        .map(|(i, _)| i as u32)
        .collect();
    Owned {
        classes,
        model_methods,
        globals,
    }
}

/// Removes every body the file contributed from the master program.
fn remove_fragment(checked: &mut CheckedProgram, file: FileId) {
    let owned = owned_defs(&checked.table, file);
    checked
        .method_bodies
        .retain(|(ci, _), _| !owned.classes.contains(ci));
    checked
        .ctor_bodies
        .retain(|(ci, _), _| !owned.classes.contains(ci));
    checked
        .field_inits
        .retain(|(ci, _), _| !owned.classes.contains(ci));
    checked
        .model_bodies
        .retain(|k, _| !owned.model_methods.contains(k));
    checked
        .global_bodies
        .retain(|gi, _| !owned.globals.contains(gi));
    checked
        .static_inits
        .retain(|(cid, _, _)| !owned.classes.contains(&cid.0));
}

/// Copies every body the file contributed out of the master program.
fn extract_fragment(checked: &CheckedProgram, file: FileId) -> Fragment {
    let owned = owned_defs(&checked.table, file);
    Fragment {
        method_bodies: checked
            .method_bodies
            .iter()
            .filter(|((ci, _), _)| owned.classes.contains(ci))
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        ctor_bodies: checked
            .ctor_bodies
            .iter()
            .filter(|((ci, _), _)| owned.classes.contains(ci))
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        global_bodies: checked
            .global_bodies
            .iter()
            .filter(|(gi, _)| owned.globals.contains(gi))
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        model_bodies: checked
            .model_bodies
            .iter()
            .filter(|(k, _)| owned.model_methods.contains(k))
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        field_inits: checked
            .field_inits
            .iter()
            .filter(|((ci, _), _)| owned.classes.contains(ci))
            .map(|(k, v)| (*k, v.clone()))
            .collect(),
        static_inits: checked
            .static_inits
            .iter()
            .filter(|(cid, _, _)| owned.classes.contains(&cid.0))
            .cloned()
            .collect(),
    }
}

/// Splices a cached fragment into the master program.
fn splice_fragment(checked: &mut CheckedProgram, frag: &Fragment) {
    for (k, v) in &frag.method_bodies {
        checked.method_bodies.insert(*k, v.clone());
    }
    for (k, v) in &frag.ctor_bodies {
        checked.ctor_bodies.insert(*k, v.clone());
    }
    for (k, v) in &frag.global_bodies {
        checked.global_bodies.insert(*k, v.clone());
    }
    for (k, v) in &frag.model_bodies {
        checked.model_bodies.insert(*k, v.clone());
    }
    for (k, v) in &frag.field_inits {
        checked.field_inits.insert(*k, v.clone());
    }
    for e in &frag.static_inits {
        checked.static_inits.push(e.clone());
    }
}

// ---------------------------------------------------------------------
// Table patching (body-only edits under an unchanged interface)
// ---------------------------------------------------------------------

/// Replaces the bodies and spans of every definition `file` owns in `table`
/// with those of a fresh parse of the same interface. Returns `false` (table
/// untouched beyond possibly some spans) when the program's shape does not
/// match the table's — the caller must then rebuild from scratch.
fn patch_unit(table: &mut Table, prog: &ast::Program, file: FileId) -> bool {
    let cls: Vec<usize> = table
        .classes
        .iter()
        .enumerate()
        .filter(|(_, c)| c.span.file == file)
        .map(|(i, _)| i)
        .collect();
    let cons: Vec<usize> = table
        .constraints
        .iter()
        .enumerate()
        .filter(|(_, c)| c.span.file == file)
        .map(|(i, _)| i)
        .collect();
    let mods: Vec<usize> = table
        .models
        .iter()
        .enumerate()
        .filter(|(_, m)| m.span.file == file)
        .map(|(i, _)| i)
        .collect();
    let uses: Vec<usize> = table
        .uses
        .iter()
        .enumerate()
        .filter(|(_, u)| u.span.file == file)
        .map(|(i, _)| i)
        .collect();
    let globs: Vec<usize> = table
        .globals
        .iter()
        .enumerate()
        .filter(|(_, g)| g.span.file == file)
        .map(|(i, _)| i)
        .collect();
    let (mut ic, mut ik, mut im, mut iu, mut ig) = (0, 0, 0, 0, 0);
    // Enrich methods are interleaved into other files' models; walk each
    // model's file-owned enrich methods with a per-model cursor.
    let mut enrich_cursor: FastMap<u32, usize> = FastMap::default();

    for decl in &prog.decls {
        match decl {
            ast::Decl::Class(d) => {
                let Some(&ci) = cls.get(ic) else { return false };
                ic += 1;
                let def = &mut table.classes[ci];
                if def.name != d.name
                    || def.fields.len() != d.fields.len()
                    || def.ctors.len() != d.ctors.len()
                    || def.methods.len() != d.methods.len()
                {
                    return false;
                }
                def.span = d.span;
                for (f, fd) in def.fields.iter_mut().zip(&d.fields) {
                    f.span = fd.span;
                    f.init = fd.init.clone();
                }
                for (k, kd) in def.ctors.iter_mut().zip(&d.ctors) {
                    k.span = kd.span;
                    k.body = kd.body.clone();
                }
                for (m, md) in def.methods.iter_mut().zip(&d.methods) {
                    m.span = md.span;
                    m.body = md.body.clone();
                }
            }
            ast::Decl::Interface(d) => {
                let Some(&ci) = cls.get(ic) else { return false };
                ic += 1;
                let def = &mut table.classes[ci];
                if def.name != d.name || def.methods.len() != d.methods.len() {
                    return false;
                }
                def.span = d.span;
                for (m, md) in def.methods.iter_mut().zip(&d.methods) {
                    m.span = md.span;
                    m.body = md.body.clone();
                }
            }
            ast::Decl::Constraint(d) => {
                let Some(&ki) = cons.get(ik) else {
                    return false;
                };
                ik += 1;
                let def = &mut table.constraints[ki];
                if def.name != d.name || def.ops.len() != d.methods.len() {
                    return false;
                }
                def.span = d.span;
                for (op, sig) in def.ops.iter_mut().zip(&d.methods) {
                    op.span = sig.span;
                }
            }
            ast::Decl::Model(d) => {
                let Some(&mi) = mods.get(im) else {
                    return false;
                };
                im += 1;
                let def = &mut table.models[mi];
                if def.name != d.name {
                    return false;
                }
                def.span = d.span;
                let mut own = def.methods.iter_mut().filter(|m| !m.from_enrich);
                for md in &d.methods {
                    let Some(m) = own.next() else { return false };
                    m.span = md.span;
                    m.body = md.body.clone();
                }
                if own.next().is_some() {
                    return false;
                }
            }
            ast::Decl::Enrich(d) => {
                let Some(&mi) = table.model_by_name.get(&d.target) else {
                    return false;
                };
                let def = &mut table.models[mi.0 as usize];
                let cursor = enrich_cursor.entry(mi.0).or_insert(0);
                for md in &d.methods {
                    let mut found = None;
                    for (ki, m) in def.methods.iter_mut().enumerate().skip(*cursor) {
                        if m.from_enrich && m.span.file == file {
                            found = Some((ki, m));
                            break;
                        }
                    }
                    let Some((ki, m)) = found else { return false };
                    *cursor = ki + 1;
                    m.span = md.span;
                    m.body = md.body.clone();
                }
            }
            ast::Decl::Use(d) => {
                let Some(&ui) = uses.get(iu) else {
                    return false;
                };
                iu += 1;
                table.uses[ui].span = d.span;
            }
            ast::Decl::Method(d) => {
                let Some(&gi) = globs.get(ig) else {
                    return false;
                };
                ig += 1;
                let def = &mut table.globals[gi];
                if def.name != d.name {
                    return false;
                }
                def.span = d.span;
                def.body = d.body.clone();
            }
        }
    }
    ic == cls.len() && ik == cons.len() && im == mods.len() && iu == uses.len() && ig == globs.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn codes(r: &SessionReport) -> Vec<&'static str> {
        r.diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn body_edit_patches_prefix_and_reuses_siblings() {
        let mut s = Session::new();
        s.update_source("util.genus", "int helper() { return 1; }");
        s.update_source("main.genus", "int main() { return helper(); }");
        let r1 = s.check();
        assert!(!r1.has_errors());
        assert_eq!(r1.stats.prefix_rebuilt, 1);
        assert_eq!(r1.stats.units_rechecked, 3); // prelude + 2 units

        // A body-only edit keeps every interface fingerprint.
        s.update_source("util.genus", "int helper() { return 2; }");
        let r2 = s.check();
        assert!(!r2.has_errors());
        assert_eq!(r2.stats.prefix_rebuilt, 1, "prefix must be reused");
        assert_eq!(r2.stats.units_patched, 1);
        // Prelude and main reuse their live verdicts; util re-checks.
        assert_eq!(r2.stats.units_reused, 2);
        assert_eq!(r2.stats.units_rechecked, 4);
    }

    #[test]
    fn revert_restores_verdict_from_lru() {
        let mut s = Session::new();
        s.update_source("main.genus", "int main() { return 1; }");
        s.check();
        s.update_source("main.genus", "int main() { return 2; }");
        s.check();
        let before = s.stats();
        s.update_source("main.genus", "int main() { return 1; }");
        let r = s.check();
        assert!(!r.has_errors());
        assert_eq!(r.stats.units_restored, before.units_restored + 1);
        assert_eq!(r.stats.units_rechecked, before.units_rechecked);
    }

    #[test]
    fn a_verdict_restored_each_edit_is_never_evicted() {
        let mut s = Session::new();
        s.update_source("a.genus", "int a() { return 1; }");
        s.update_source("b.genus", "int main() { return 0; }");
        s.check();
        for i in 0..200 {
            // A fresh `b` verdict every round, and `a` flips to a variant
            // and back, so its original verdict is restored each round.
            s.update_source("b.genus", &format!("int main() {{ return {i}; }}"));
            s.update_source("a.genus", "int a() { return 2; }");
            s.check();
            let before = s.stats();
            s.update_source("a.genus", "int a() { return 1; }");
            let r = s.check();
            assert_eq!(r.stats.units_rechecked, before.units_rechecked, "round {i}");
            assert_eq!(r.stats.units_restored, before.units_restored + 1);
        }
        assert!(s.stats().verdict_evictions > 0, "the bound was reached");
    }

    #[test]
    fn interface_edit_rebuilds_prefix_but_restores_unchanged_units() {
        let mut s = Session::new();
        s.update_source("a.genus", "class A { A() { } int id() { return 7; } }");
        s.update_source("main.genus", "int main() { A a = new A(); return 0; }");
        let r1 = s.check();
        assert!(!r1.has_errors());
        // Changing an instance member's signature rewrites `a`'s interface
        // (prefix rebuild) but not the global environment, so units that
        // cannot see `A`'s members keep their verdicts.
        s.update_source("a.genus", "class A { A() { } long id() { return 7; } }");
        let r2 = s.check();
        assert!(!r2.has_errors());
        assert_eq!(r2.stats.prefix_rebuilt, 2);
        // `main` is an open unit (sees everything) and re-checks; the
        // prelude's verdict is restored from the LRU against the rebuilt
        // table, proven safe by its definition fingerprints.
        assert!(r2.stats.units_restored >= 1, "{:?}", r2.stats);
    }

    #[test]
    fn diagnostics_are_stable_across_incremental_recheck() {
        let src_bad = "int main() { return \"no\"; }";
        let mut s = Session::new();
        s.update_source("main.genus", "int main() { return 0; }");
        s.check();
        s.update_source("main.genus", src_bad);
        let warm = s.check();
        let cold = crate::check_sources_report(&[("main.genus", src_bad)]);
        let warm_view: Vec<_> = warm
            .diags
            .iter()
            .map(|d| (d.code, d.span, d.message.clone()))
            .collect();
        let cold_view: Vec<_> = cold
            .diags
            .iter()
            .map(|d| (d.code, d.span, d.message.clone()))
            .collect();
        assert_eq!(warm_view, cold_view);
    }

    #[test]
    fn unknown_import_is_e0801() {
        let mut s = Session::new();
        s.update_source(
            "main.genus",
            "import nonexistent;\nint main() { return 0; }",
        );
        let r = s.check();
        assert_eq!(codes(&r), vec!["E0801"]);
    }

    #[test]
    fn duplicate_and_self_imports_are_e0803() {
        let mut s = Session::new();
        s.update_source("util.genus", "int helper() { return 1; }");
        s.update_source(
            "main.genus",
            "import util;\nimport util;\nimport main;\nint main() { return helper(); }",
        );
        let r = s.check();
        assert_eq!(codes(&r), vec!["E0803", "E0803"]);
    }

    #[test]
    fn closed_unit_cannot_reference_unimported_module() {
        let mut s = Session::new();
        s.update_source("geometry.genus", "class Circle { Circle() { } }");
        s.update_source("util.genus", "int helper() { return 1; }");
        s.update_source(
            "main.genus",
            "import util;\nint main() { Circle c = new Circle(); return helper(); }",
        );
        let r = s.check();
        assert!(codes(&r).contains(&"E0802"), "{:?}", codes(&r));

        // Importing geometry fixes it.
        s.update_source(
            "main.genus",
            "import util;\nimport geometry;\nint main() { Circle c = new Circle(); return helper(); }",
        );
        let r = s.check();
        assert!(!r.has_errors(), "{:?}", codes(&r));
    }

    #[test]
    fn import_closure_is_transitive() {
        let mut s = Session::new();
        s.update_source("base.genus", "class Base { Base() { } }");
        s.update_source(
            "mid.genus",
            "import base;\nclass Mid extends Base { Mid() { } }",
        );
        s.update_source(
            "main.genus",
            "import mid;\nint main() { Base b = new Mid(); return 0; }",
        );
        let r = s.check();
        assert!(!r.has_errors(), "{:?}", codes(&r));
    }

    #[test]
    fn editing_imported_unit_invalidates_dependents_not_siblings() {
        let mut s = Session::new();
        s.update_source("base.genus", "class B { B() { } int m() { return 1; } }");
        s.update_source(
            "dep.genus",
            "import base;\nint dep() { B b = new B(); return b.m(); }",
        );
        // `leaf` mimics a stdlib unit: closed (not legacy-open) and always
        // visible. If it were a plain importless unit, importing it would
        // soundly widen `sib`'s invalidation set to the whole program,
        // because open units' signatures may mention types from anywhere.
        s.add_unit("leaf.genus", "class L { L() { } }", &[], true);
        s.update_source(
            "sib.genus",
            "import leaf;\nint sib() { L l = new L(); return 2; }",
        );
        let r1 = s.check();
        assert!(!r1.has_errors(), "{:?}", codes(&r1));

        // An instance-member signature edit to `base` rebuilds the prefix
        // and re-checks its dependent `dep` — but `sib`, whose visible set
        // does not contain `base`, is restored without re-checking.
        s.update_source("base.genus", "class B { B() { } long m() { return 1; } }");
        let r2 = s.check();
        assert!(r2.has_errors(), "long->int narrowing in dep must now error");
        assert!(r2.stats.prefix_rebuilt > r1.stats.prefix_rebuilt);
        let rechecked = r2.stats.units_rechecked - r1.stats.units_rechecked;
        let restored = r2.stats.units_restored - r1.stats.units_restored;
        // base + dep re-check; prelude + leaf + sib restore.
        assert_eq!(rechecked, 2, "{:?}", r2.stats);
        assert_eq!(restored, 3, "{:?}", r2.stats);
    }

    #[test]
    fn parse_error_reports_only_parse_diags() {
        let mut s = Session::new();
        s.update_source("main.genus", "int main( { return 0; }");
        let r = s.check();
        assert!(r.has_errors());
        assert!(
            r.diags
                .iter()
                .all(|d| d.code.starts_with("E00") || d.code.starts_with("E01")),
            "{:?}",
            codes(&r)
        );
        // Recovering from the parse error works.
        s.update_source("main.genus", "int main() { return 0; }");
        let r = s.check();
        assert!(!r.has_errors());
    }

    /// A user unit with a generic class, a constraint and a model.
    const RANK: &str = "constraint Rank[T] { int rank(); }\n\
        class Box[E] { E item; Box(E item) { this.item = item; } }\n\
        model BoxRank[E] for Rank[Box[E]] { int rank() { return 1; } }\n";

    /// A stdlib session over two user units, checked once.
    fn checked_stdlib_session() -> Session {
        let mut s = Session::with_stdlib();
        s.update_source("rank.genus", RANK);
        s.update_source("main.genus", "int main() { return 0; }");
        let r = s.check();
        assert!(!r.has_errors(), "{:?}", codes(&r));
        s
    }

    #[test]
    fn the_extended_table_has_the_ids_of_a_full_build() {
        let mut s = checked_stdlib_session();
        s.update_source("main.genus", "long main() { return 0; }");
        assert!(!s.check().has_errors());
        assert_eq!(s.stats().prefix_extended, 1);
        let programs: Vec<&ast::Program> = s
            .units
            .iter()
            .map(|u| u.parsed.as_ref().expect("parsed").program.as_ref())
            .collect();
        let mut diags = Diagnostics::new();
        let full = crate::build_prefix(&programs, &mut diags);
        assert!(diags.is_empty());
        let ext = &s.program().expect("checks").table;
        let names = |t: &Table| {
            (
                t.classes.iter().map(|c| c.name).collect::<Vec<_>>(),
                t.constraints.iter().map(|c| c.name).collect::<Vec<_>>(),
                t.models.iter().map(|m| m.name).collect::<Vec<_>>(),
                t.globals.iter().map(|g| g.name).collect::<Vec<_>>(),
            )
        };
        assert_eq!(names(ext), names(&full));
        assert_eq!(ext.class_by_name, full.class_by_name);
        assert_eq!(ext.constraint_by_name, full.constraint_by_name);
        assert_eq!(ext.model_by_name, full.model_by_name);
    }

    #[test]
    fn only_a_rebuild_after_a_check_extends_and_base_edits_resnapshot() {
        let mut s = checked_stdlib_session();
        assert_eq!(s.stats().prefix_extended, 0, "a cold check never extends");
        assert!(s.base.is_none(), "a cold check takes no snapshot");

        s.update_source("main.genus", "long main() { return 0; }");
        s.check();
        let first = s
            .base
            .as_ref()
            .expect("taken at the first rebuild")
            .contents
            .clone();
        assert_eq!(first.len(), 1 + genus_stdlib::sources().len());

        // An interface edit of a stdlib unit changes the snapshot's key:
        // the next rebuild takes a new snapshot and extends it.
        let (name, src) = genus_stdlib::sources()[0];
        let edited = format!("{src}\nclass Extra {{ Extra() {{ }} }}\n");
        s.update_source(name, &edited);
        let warm = s.check();
        assert_eq!(warm.stats.prefix_extended, 2);
        let second = &s.base.as_ref().expect("retaken").contents;
        assert_ne!(*second, first);
        assert_eq!(
            second[1],
            s.units[1].parsed.as_ref().expect("parsed").content_fp
        );

        let mut cold = Session::with_stdlib();
        cold.update_source(name, &edited);
        cold.update_source("rank.genus", RANK);
        cold.update_source("main.genus", "long main() { return 0; }");
        let cold = cold.check();
        assert_eq!(cold.stats.prefix_extended, 0);
        assert_eq!(warm.diags, cold.diags);
    }

    #[test]
    fn one_shot_report_equals_session_report() {
        let src = "class P { int x; P(int x) { this.x = x; } } int main() { return new P(3).x; }";
        let cold = crate::check_sources_report(&[("main.genus", src)]);
        assert!(!cold.has_errors());
        assert!(cold.program.is_some());
    }
}
