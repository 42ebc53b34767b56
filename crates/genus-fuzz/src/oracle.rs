//! The oracle suite: every check one fuzz input is subjected to.
//!
//! A [`Harness`] owns the long-lived warm checker session and the
//! optional coverage map, and [`Harness::run_case`] runs one source
//! through all of the oracles:
//!
//! 1. **Incremental parity** — a warm [`genus_check::Session`] that has
//!    seen every previous case re-checks this source; its diagnostics
//!    must equal a scratch compile's, byte for byte (spans included).
//! 2. **Four-way engine differential** — AST interpreter, VM at O0, VM
//!    at O2, and the Tier 2 closure engine must agree on the rendered
//!    result (or the structured `(code, span)` trap), and on printed
//!    output; the VM and Tier 2 run the *same* bytecode, so their fuel
//!    use must match exactly.
//! 3. **GC-stress parity** — re-running the O2 bytecode on a heap that
//!    collects before every allocation must not change the outcome, the
//!    output, or the exact allocated-byte count.
//! 4. **Serialization round-trip** — the O2 bytecode written through
//!    [`genus_vm::write_program`] and read back must decode, and the
//!    decoded program must behave identically (exact fuel included).
//! 5. **Warm-program parity** — the warm session's checked program,
//!    compiled and run, must match the scratch program's run.
//! 6. **Base parity** — when the shared checked stdlib base accepts the
//!    source ([`genus_check::CheckedBase::extend`]), the scratch check
//!    must report no diagnostics, and the extended program must run
//!    identically to the scratch program (exact fuel included).
//!
//! Cases where *any* engine trips the fuel meter are reported as
//! [`Verdict::ResourceSkip`] rather than compared: fuel is counted in
//! engine-specific units (AST statements vs VM opcodes), so a budget
//! that stops one engine mid-program stops another somewhere else.

use crate::pipeline::{self, Leg, UNIT_NAME};
use genus_check::{CheckedBase, Session};
use genus_common::{EdgeMap, Severity};
use genus_interp::Limits;
use genus_vm::{compile_optimized, compile_tier};
use std::rc::Rc;
use std::sync::Arc;

/// One confirmed oracle failure.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which oracle fired: `engine`, `gc-stress`, `roundtrip`,
    /// `incremental`, `base`, or `planted` (test harness).
    pub oracle: &'static str,
    /// Human-readable description of the disagreement.
    pub detail: String,
}

/// The outcome of running one input through the oracle suite.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The checker rejected the input (mutants only, for a correct
    /// generator); carries the leading error codes.
    CompileReject(String),
    /// Some engine hit the fuel meter; parity not comparable.
    ResourceSkip,
    /// Every oracle agreed.
    Pass,
    /// An oracle disagreed.
    Divergence(Divergence),
}

fn clip(s: &str) -> String {
    if s.chars().count() > 160 {
        let mut out: String = s.chars().take(160).collect();
        out.push('…');
        out
    } else {
        s.to_string()
    }
}

/// The comparable outcome of a leg, rendered for a divergence report.
fn key_str(l: &Leg) -> String {
    match l.outcome_key() {
        Ok(v) => format!("Ok({})", clip(v)),
        Err((code, span)) => format!("Err({code} @ {span:?})"),
    }
}

/// Compares two legs on outcome and output (and fuel when both run the
/// same bytecode).
fn compare(
    oracle: &'static str,
    la: &str,
    a: &Leg,
    lb: &str,
    b: &Leg,
    fuel: bool,
) -> Option<Divergence> {
    if a.outcome_key() != b.outcome_key() {
        return Some(Divergence {
            oracle,
            detail: format!("{la} vs {lb}: outcome {} != {}", key_str(a), key_str(b)),
        });
    }
    if a.output != b.output {
        return Some(Divergence {
            oracle,
            detail: format!(
                "{la} vs {lb}: output {:?} != {:?}",
                clip(&a.output),
                clip(&b.output)
            ),
        });
    }
    if fuel && a.stats.fuel_used != b.stats.fuel_used {
        return Some(Divergence {
            oracle,
            detail: format!(
                "{la} vs {lb}: fuel {} != {}",
                a.stats.fuel_used, b.stats.fuel_used
            ),
        });
    }
    None
}

/// See the module docs.
pub struct Harness {
    warm: Session,
    fuel: u64,
    cov: Option<Rc<EdgeMap>>,
}

impl Harness {
    /// A harness with a fresh warm session. `cov`, when given, receives
    /// the edge trace of each case's VM-O2 leg.
    #[must_use]
    pub fn new(fuel: u64, cov: Option<Rc<EdgeMap>>) -> Harness {
        Harness {
            warm: pipeline::stdlib_session(),
            fuel,
            cov,
        }
    }

    fn limits(&self) -> Limits {
        Limits {
            fuel: Some(self.fuel),
            memory: None,
            deadline_ms: None,
        }
    }

    /// Runs every oracle against `src`. See the module docs.
    pub fn run_case(&mut self, src: &str) -> Verdict {
        // Oracle 1 (diagnostics half): warm vs scratch check.
        let scratch = pipeline::compile(src);
        let extended = CheckedBase::get(true).extend(UNIT_NAME, src);
        if extended.is_some() && !scratch.diags.is_empty() {
            return Verdict::Divergence(Divergence {
                oracle: "base",
                detail: format!(
                    "the stdlib base accepted a source the scratch check reports {} diagnostic(s) for",
                    scratch.diags.len()
                ),
            });
        }
        self.warm.update_source(UNIT_NAME, src);
        self.warm.check();
        if self.warm.last_diags() != &scratch.diags[..] {
            return Verdict::Divergence(Divergence {
                oracle: "incremental",
                detail: format!(
                    "warm session diagnostics differ from scratch ({} vs {})",
                    self.warm.last_diags().len(),
                    scratch.diags.len()
                ),
            });
        }
        let Some(prog) = scratch.program else {
            let codes: Vec<&str> = scratch
                .diags
                .iter()
                .filter(|d| d.severity == Severity::Error)
                .take(3)
                .map(|d| d.code)
                .collect();
            return Verdict::CompileReject(codes.join(","));
        };
        let limits = self.limits();

        // Oracle 2: four-way engine differential.
        let ast = pipeline::run_ast(&prog, limits);
        let code0 = Arc::new(compile_optimized(&prog, 0));
        let vm0 = pipeline::run_vm(&prog, &code0, limits, false, None);
        let code2 = Arc::new(compile_optimized(&prog, 2));
        let vm2 = pipeline::run_vm(&prog, &code2, limits, false, self.cov.as_ref());
        let tier = compile_tier(&code2);
        let jit = pipeline::run_tier(&prog, &tier, limits);
        if [&ast, &vm0, &vm2, &jit].iter().any(|l| l.fuel_limited()) {
            return Verdict::ResourceSkip;
        }
        for (label, leg) in [("vm-o0", &vm0), ("vm-o2", &vm2), ("tier2", &jit)] {
            if let Some(d) = compare("engine", "ast", &ast, label, leg, false) {
                return Verdict::Divergence(d);
            }
        }
        // Same bytecode ⇒ exact fuel parity between the VM and Tier 2.
        if let Some(d) = compare("engine", "vm-o2", &vm2, "tier2", &jit, true) {
            return Verdict::Divergence(d);
        }

        // Oracle 3: GC-stress byte parity on the O2 bytecode.
        let stress = pipeline::run_vm(&prog, &code2, limits, true, None);
        if let Some(d) = compare("gc-stress", "vm-o2", &vm2, "vm-o2-stress", &stress, true) {
            return Verdict::Divergence(d);
        }
        if vm2.stats.mem_used != stress.stats.mem_used {
            return Verdict::Divergence(Divergence {
                oracle: "gc-stress",
                detail: format!(
                    "allocated bytes differ under stress: {} != {}",
                    vm2.stats.mem_used, stress.stats.mem_used
                ),
            });
        }

        // Oracle 4: serialize → deserialize → re-run parity.
        match pipeline::roundtrip(&code2, &prog) {
            Err(e) => {
                return Verdict::Divergence(Divergence {
                    oracle: "roundtrip",
                    detail: format!("bytecode failed to decode: {e}"),
                })
            }
            Ok(rt) => {
                let rerun = pipeline::run_vm(&prog, &Arc::new(rt), limits, false, None);
                if let Some(d) = compare("roundtrip", "vm-o2", &vm2, "vm-o2-rt", &rerun, true) {
                    return Verdict::Divergence(d);
                }
            }
        }

        // Oracle 1 (program half): the warm session's program must run
        // identically to the scratch program.
        let warm_prog = self
            .warm
            .program()
            .expect("warm session agreed there are no errors");
        let warm_code = Arc::new(compile_optimized(warm_prog, 2));
        let warm_run = pipeline::run_vm(warm_prog, &warm_code, limits, false, None);
        if let Some(d) = compare("incremental", "vm-o2", &vm2, "vm-o2-warm", &warm_run, true) {
            return Verdict::Divergence(d);
        }

        // Oracle 6: the base-extended program must run identically too.
        if let Some(ext) = &extended {
            let ext_code = Arc::new(compile_optimized(ext, 2));
            let ext_run = pipeline::run_vm(ext, &ext_code, limits, false, None);
            if let Some(d) = compare("base", "vm-o2", &vm2, "vm-o2-base", &ext_run, true) {
                return Verdict::Divergence(d);
            }
        }

        Verdict::Pass
    }
}
