//! Generated programs for `serve_mix`'s fresh requests.
//!
//! The programs come from the fuzzer's well-typed generator and use the
//! stdlib, constraints, models, use-site `with` and existentials. Each
//! comes with its AST reference run, made before set-up.

use genus_common::{Diagnostics, SplitMix64};
use genus_fuzz::gen::generate;
use genus_fuzz::pipeline::{compile, run_ast, Leg, UNIT_NAME};
use genus_interp::Limits;
use genus_syntax::lex;

/// Candidates generated per kept program. The candidates are ranked by
/// token count and one per group of `STRATA` is kept, so every seed gets
/// the same spread of program sizes.
const STRATA: usize = 4;

/// Fuel for every run of a generated program.
pub const FUEL: u64 = 2_000_000;

/// Allocation cap for the same runs, in bytes. Byte accounting is exact
/// on every engine, so a program that reaches it traps (`R0010`) at the
/// same point everywhere; the cap keeps one allocation-heavy candidate
/// from setting a run's peak RSS on its own.
pub const MEMORY: u64 = 8 << 20;

/// One program of the pool with its reference.
pub struct FreshProg {
    pub src: String,
    /// The AST reference engine's behaviour on the program.
    pub reference: Leg,
}

/// Lexed token count of a source, as the parser sees it.
pub fn token_count(src: &str) -> usize {
    let mut sm = genus_common::SourceMap::new();
    let f = sm.add_file(UNIT_NAME, src);
    lex(&sm, f, &mut Diagnostics::new()).len()
}

/// The limits every run of a generated program gets.
pub fn limits() -> Limits {
    Limits {
        fuel: Some(FUEL),
        memory: Some(MEMORY),
        ..Limits::default()
    }
}

/// Draws `count` distinct generated programs, stratified by size, whose
/// AST reference run checks and finishes well within the fuel cap. The
/// order is a seeded shuffle.
pub fn pool(seed: u64, count: usize, salt: u64) -> Vec<FreshProg> {
    let mut rng = SplitMix64::new(seed ^ salt);
    // The largest twentieth of the candidates is dropped: the generator's
    // size distribution has a long tail, and the few programs in it would
    // decide the p99 differently for every seed.
    let wanted = count * STRATA;
    let drawn = wanted + wanted / 19;
    let mut cands: Vec<(usize, String)> = Vec::with_capacity(drawn);
    let mut seen = std::collections::HashSet::new();
    while cands.len() < drawn {
        let src = generate(rng.next_u64());
        if seen.insert(src.clone()) {
            cands.push((token_count(&src), src));
        }
    }
    cands.sort();
    cands.truncate(wanted);
    let mut out = Vec::with_capacity(count);
    // Walk each stratum from its middle outwards until one candidate
    // passes the reference run.
    for stratum in cands.chunks(STRATA) {
        let mid = stratum.len() / 2;
        for k in (0..stratum.len()).map(|k| (mid + k) % stratum.len()) {
            let (_, src) = &stratum[k];
            if let Some(reference) = reference(src) {
                out.push(FreshProg {
                    src: src.clone(),
                    reference,
                });
                break;
            }
        }
    }
    crate::sys::shuffle(&mut out, &mut rng);
    out.truncate(count);
    out
}

/// The AST reference run of a program, or `None` when it does not check
/// or comes near the fuel cap (engines count fuel in different units,
/// so a capped run has no engine-independent answer).
fn reference(src: &str) -> Option<Leg> {
    let report = compile(src);
    let prog = report.program.as_ref()?;
    let leg = run_ast(prog, limits());
    (leg.stats.fuel_used < FUEL / 4).then_some(leg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_is_distinct_and_stratified() {
        let a = pool(1, 12, 0);
        let b = pool(1, 12, 0);
        assert_eq!(a.len(), 12);
        let srcs: std::collections::HashSet<_> = a.iter().map(|p| &p.src).collect();
        assert_eq!(srcs.len(), 12, "programs are distinct");
        assert!(
            a.iter().zip(&b).all(|(x, y)| x.src == y.src),
            "same seed, same pool"
        );
    }
}
