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
//!    result (or the trap's stable code), and on printed
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
//! 6. **Base parity** — the scratch compile extends the shared checked
//!    stdlib base when the reuse rule allows. On every case, ill-typed
//!    ones included, the unshared full build
//!    ([`genus_check::check_unshared`]) must report the same diagnostics
//!    and declare the same names under the same ids; when it accepts the
//!    source, its program must run on VM-O2 like the scratch program
//!    (exact fuel included).
//! 7. **Lowered-base parity** — the warm and the scratch program carry
//!    a base stamp; lowering each through the process-wide cache of
//!    lowered bases must give the bytes a cold lowering gives.
//!
//! Cases where *any* engine trips the fuel meter are reported as
//! [`Verdict::ResourceSkip`] rather than compared: fuel is counted in
//! engine-specific units (AST statements vs VM opcodes), so a budget
//! that stops one engine mid-program stops another somewhere else.

use crate::pipeline::{self, Leg, UNIT_NAME};
use genus_check::{CheckReport, Session};
use genus_common::{EdgeMap, Severity};
use genus_interp::Limits;
use genus_vm::{compile_optimized, compile_program, compile_program_uncached, compile_tier};
use std::rc::Rc;
use std::sync::Arc;

/// One confirmed oracle failure.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which oracle fired: `engine`, `gc-stress`, `roundtrip`,
    /// `incremental`, `base`, `lowering`, or `planted` (test harness).
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
        Err(code) => format!("Err({code})"),
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

/// How the shared check `shared` differs from the unshared full build
/// `full`: in diagnostics, or in each kind of declaration's names in id
/// order.
fn base_divergence(shared: &CheckReport, full: &CheckReport) -> Option<String> {
    let ids = |r: &CheckReport| {
        r.program.as_ref().map(|p| {
            let t = &p.table;
            (
                t.classes.iter().map(|c| c.name).collect::<Vec<_>>(),
                t.constraints.iter().map(|k| k.name).collect::<Vec<_>>(),
                t.models.iter().map(|m| m.name).collect::<Vec<_>>(),
                t.globals.iter().map(|g| g.name).collect::<Vec<_>>(),
            )
        })
    };
    let same_ids = ids(shared) == ids(full);
    (shared.diags != full.diags || !same_ids).then(|| {
        format!(
            "the shared check differs from the unshared full build: {} vs {} diagnostic(s), ids {}",
            shared.diags.len(),
            full.diags.len(),
            if same_ids { "equal" } else { "differ" }
        )
    })
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
        // Oracle 6: the shared check against the unshared full build.
        let full = genus_check::check_unshared(true, &[(UNIT_NAME, src)]);
        if let Some(detail) = base_divergence(&scratch, &full) {
            return Verdict::Divergence(Divergence {
                oracle: "base",
                detail,
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

        // Oracle 1 (program half) and oracle 6 (run half): the warm
        // session's program and the unshared full build's must run
        // identically to the scratch program.
        let warm_prog = self
            .warm
            .program()
            .expect("warm session agreed there are no errors");
        let full_prog = (full.program.as_ref()).expect("the full build agreed there are no errors");
        for (oracle, label, other) in [
            ("incremental", "vm-o2-warm", warm_prog),
            ("base", "vm-o2-unshared", full_prog),
        ] {
            let code = Arc::new(compile_optimized(other, 2));
            let run = pipeline::run_vm(other, &code, limits, false, None);
            if let Some(d) = compare(oracle, "vm-o2", &vm2, label, &run, true) {
                return Verdict::Divergence(d);
            }
        }

        // Oracle 7: lowering from the lowered-base cache changes nothing.
        for prog in [warm_prog, &prog] {
            if pipeline::lowered_bytes(&compile_program(prog))
                != pipeline::lowered_bytes(&compile_program_uncached(prog))
            {
                return Verdict::Divergence(Divergence {
                    oracle: "lowering",
                    detail: "a lowering from the base cache differs from a cold one".to_string(),
                });
            }
        }

        Verdict::Pass
    }
}
