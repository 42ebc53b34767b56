//! Coverage-guided differential fuzzer for the Genus implementation.
//!
//! The loop is classic grey-box fuzzing, specialized to a language
//! implementation with four execution engines:
//!
//! 1. an input is either **generated** from scratch — well-typed by
//!    construction ([`gen`]) — or **mutated** from a corpus entry
//!    ([`mutate`](mod@mutate));
//! 2. it runs through the full **oracle suite** ([`oracle`]): warm/
//!    scratch incremental parity, the four-way engine differential,
//!    GC-stress byte parity, and the bytecode serialization round trip;
//! 3. the VM-O2 leg executes under an AFL-style **edge-coverage map**
//!    (the `coverage` feature of `genus-vm`); inputs that light up new
//!    edges join the **corpus** ([`corpus`]) and become mutation bases;
//! 4. any divergence is **minimized** ([`minimize`](mod@minimize))
//!    while re-checking the same oracle at every step, then written out
//!    as a standalone `.genus` repro.
//!
//! Everything is driven by one [`SplitMix64`] seed: with a fixed seed,
//! case budget, and starting corpus, two runs produce identical corpora,
//! identical edge counts, and identical reports. The `--seconds` budget
//! is a wall-clock *cap* layered on top (for CI), not a work driver, so
//! hitting the case budget first — the normal case — keeps determinism.
//!
//! ```no_run
//! use genus_fuzz::{fuzz, FuzzConfig};
//!
//! let report = fuzz(FuzzConfig {
//!     seed: 1,
//!     cases: 200,
//!     ..FuzzConfig::default()
//! })
//! .unwrap();
//! assert!(report.crashes.is_empty(), "{}", report.summary());
//! ```

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod mutate;
pub mod oracle;
pub mod pipeline;

pub use corpus::Corpus;
pub use gen::{generate, generate_with_inheritance};
pub use genus_common::{EdgeMap, EdgeSet, SplitMix64};
pub use minimize::minimize;
pub use mutate::mutate;
pub use oracle::{Divergence, Harness, Verdict};

use std::io;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Test-hook predicate over source text: inputs matching it are treated
/// as divergences (see [`FuzzConfig::planted`]).
pub type PlantedPredicate = Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// Everything that parameterizes one fuzz run.
#[derive(Clone)]
pub struct FuzzConfig {
    /// Master PRNG seed; fully determines the run (given the corpus).
    pub seed: u64,
    /// Deterministic case budget — the actual work driver.
    pub cases: u64,
    /// Optional wall-clock cap checked between cases (CI safety net).
    pub seconds: Option<u64>,
    /// Directory of persistent corpus entries (in-memory when `None`).
    pub corpus_dir: Option<PathBuf>,
    /// Where minimized divergence repros are written (kept only in the
    /// report when `None`).
    pub crash_dir: Option<PathBuf>,
    /// Per-leg fuel budget; cases where any engine runs out are skipped.
    pub fuel: u64,
    /// Whether to minimize divergent cases before reporting.
    pub minimize: bool,
    /// Test hook: an artificial "bug" predicate over the source text.
    /// Inputs matching it are treated as engine divergences, exercising
    /// the whole catch → minimize → report path without a real bug.
    pub planted: Option<PlantedPredicate>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 1,
            cases: 400,
            seconds: None,
            corpus_dir: None,
            crash_dir: None,
            fuel: 100_000,
            minimize: true,
            planted: None,
        }
    }
}

/// One reported divergence, with its minimized repro.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Which oracle fired.
    pub oracle: String,
    /// The oracle's description of the disagreement.
    pub detail: String,
    /// The input as the fuzzer found it.
    pub source: String,
    /// The minimized repro (equal to `source` when minimization is off).
    pub minimized: String,
    /// Where the repro was written, when a crash dir was configured.
    pub path: Option<PathBuf>,
}

/// Aggregate statistics of one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases executed (not counting the seed-corpus replay).
    pub cases: u64,
    /// Cases that came from the generator.
    pub generated: u64,
    /// Cases that came from the mutators.
    pub mutated: u64,
    /// Mutants the checker rejected (generated cases never are).
    pub compile_rejects: u64,
    /// Cases skipped because an engine hit the fuel meter.
    pub resource_skips: u64,
    /// Corpus entries present before the run.
    pub seed_corpus: usize,
    /// Edges covered by replaying the starting corpus.
    pub seed_edges: usize,
    /// Total distinct edges covered by the end of the run.
    pub total_edges: usize,
    /// `total_edges - seed_edges`: coverage the run itself discovered.
    pub new_edges: usize,
    /// Corpus entries present after the run.
    pub corpus_len: usize,
    /// Every divergence found, minimized.
    pub crashes: Vec<CrashReport>,
}

impl FuzzReport {
    /// One-line human summary (the CLI prints this).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "fuzz: {} cases ({} generated, {} mutated), {} compile-rejects, {} fuel-skips, \
             edges {} -> {} (+{} new), corpus {} -> {}, {} divergence(s)",
            self.cases,
            self.generated,
            self.mutated,
            self.compile_rejects,
            self.resource_skips,
            self.seed_edges,
            self.total_edges,
            self.new_edges,
            self.seed_corpus,
            self.corpus_len,
            self.crashes.len()
        )
    }
}

/// Runs the fuzzer on a big-stack thread (the AST leg needs one) and
/// returns the report. IO errors are corpus/crash-dir filesystem
/// problems; divergences are *not* errors — they're in the report.
pub fn fuzz(cfg: FuzzConfig) -> io::Result<FuzzReport> {
    pipeline::with_big_stack(move || fuzz_on_this_thread(&cfg))
}

/// Runs one source through the full oracle suite (on a big-stack
/// thread) — the replay entry point for checked-in crash repros.
pub fn replay(src: &str, fuel: u64) -> Verdict {
    pipeline::with_big_stack(|| oracle::Harness::new(fuel, None).run_case(src))
}

/// The fuzz loop proper. Requires a big native stack (see
/// [`pipeline::with_big_stack`]); prefer [`fuzz`] unless already on one.
pub fn fuzz_on_this_thread(cfg: &FuzzConfig) -> io::Result<FuzzReport> {
    let started = Instant::now();
    let mut rng = SplitMix64::new(cfg.seed);
    let cov = Rc::new(EdgeMap::new());
    let mut harness = Harness::new(cfg.fuel, Some(Rc::clone(&cov)));
    let mut seen = EdgeSet::new();
    let mut corpus = match &cfg.corpus_dir {
        Some(d) => Corpus::open(d)?,
        None => Corpus::in_memory(),
    };
    let mut report = FuzzReport {
        seed_corpus: corpus.len(),
        ..FuzzReport::default()
    };

    // Replay the starting corpus: charges the edge set (so `new_edges`
    // measures only what this run discovers) and re-checks every
    // persisted entry against the oracles.
    for i in 0..corpus.len() {
        let src = corpus.get(i).to_string();
        match harness.run_case(&src) {
            Verdict::Pass => {
                seen.absorb(&cov);
            }
            Verdict::Divergence(d) => {
                record_crash(cfg, &mut harness, &src, d, &mut report)?;
            }
            _ => {}
        }
    }
    report.seed_edges = seen.edges();

    while report.cases < cfg.cases {
        if let Some(s) = cfg.seconds {
            if started.elapsed() >= Duration::from_secs(s) {
                break;
            }
        }
        report.cases += 1;
        let src = if corpus.is_empty() || rng.chance(2, 5) {
            report.generated += 1;
            generate_with_inheritance(rng.next_u64())
        } else {
            report.mutated += 1;
            let base = corpus.pick(&mut rng).to_string();
            let other = if corpus.len() > 1 {
                Some(corpus.pick(&mut rng).to_string())
            } else {
                None
            };
            mutate(&base, other.as_deref(), &mut rng)
        };

        if let Some(planted) = &cfg.planted {
            if planted(&src) {
                let d = Divergence {
                    oracle: "planted",
                    detail: "planted-bug predicate matched".to_string(),
                };
                record_crash(cfg, &mut harness, &src, d, &mut report)?;
                continue;
            }
        }

        match harness.run_case(&src) {
            Verdict::CompileReject(_) => report.compile_rejects += 1,
            Verdict::ResourceSkip => report.resource_skips += 1,
            Verdict::Pass => {
                if seen.absorb(&cov) > 0 {
                    corpus.insert(&src)?;
                }
            }
            Verdict::Divergence(d) => {
                record_crash(cfg, &mut harness, &src, d, &mut report)?;
            }
        }
    }

    report.total_edges = seen.edges();
    report.new_edges = report.total_edges - report.seed_edges;
    report.corpus_len = corpus.len();
    Ok(report)
}

/// Minimizes a divergent input (re-checking the same oracle at every
/// step) and records it in the report and, when configured, on disk.
fn record_crash(
    cfg: &FuzzConfig,
    harness: &mut Harness,
    src: &str,
    d: Divergence,
    report: &mut FuzzReport,
) -> io::Result<()> {
    let oracle_name = d.oracle;
    let minimized = if cfg.minimize {
        minimize(src, &mut |cand: &str| {
            if oracle_name == "planted" {
                // A planted bug is textual; still require the repro to
                // compile so the minimized case stays a valid program.
                let compiles = pipeline::compile(cand).program.is_some();
                compiles && cfg.planted.as_ref().is_some_and(|p| p(cand))
            } else {
                matches!(
                    harness.run_case(cand),
                    Verdict::Divergence(d2) if d2.oracle == oracle_name
                )
            }
        })
    } else {
        src.to_string()
    };
    let path = match &cfg.crash_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)?;
            let id = corpus::content_id(&minimized);
            let p = dir.join(format!("crash-{id:016x}.genus"));
            let body = format!(
                "// genus-fuzz divergence: {}\n// {}\n{}",
                d.oracle, d.detail, minimized
            );
            std::fs::write(&p, body)?;
            Some(p)
        }
        None => None,
    };
    report.crashes.push(CrashReport {
        oracle: d.oracle.to_string(),
        detail: d.detail,
        source: src.to_string(),
        minimized,
        path,
    });
    Ok(())
}
