//! Regenerates the paper's Table 1 (§8.3) on the engines and checks its
//! shape: the twelve insertion sorts of `samples/table1_sorts.genus` on
//! VM-O0 (the homogeneous "Genus" column), VM-O2 and Tier 2 (the
//! bracketed "specialized" column). Every checksum is checked against
//! Rust's sort, and the paper's four claims are decided on fuel. Exits 1
//! when a checksum is wrong or a claim is lost.
//!
//! Run with: `cargo run --release --example table1_report`
//!
//! Environment:
//! * `TABLE1_N` — elements per sort (default 1000)
//! * `TABLE1_REPS` — runs per cell and configuration, median taken
//!   (default 5)

use genus_repro::table1;

fn main() {
    let env = |name: &str, default: usize| {
        std::env::var(name)
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    };
    let (n, reps) = (env("TABLE1_N", 1000), env("TABLE1_REPS", 5));
    eprintln!("measuring Table 1 with n = {n}, reps = {reps} ...");
    let table = match table1::measure(n, reps) {
        Ok(table) => table,
        Err(e) => {
            println!("FAILED: {e}");
            std::process::exit(1);
        }
    };
    print!("{}", table.render());
    println!("every checksum equals Rust's sort; Tier 2 fuel equals VM-O2 fuel");
    println!("shape claims (the paper's, on the sorts' own fuel):");
    let mut ok = true;
    for claim in table.claims() {
        println!(
            "{} {}\n{}",
            if claim.holds { "PASS" } else { "FAIL" },
            claim.name,
            claim.detail
        );
        ok &= claim.holds;
    }
    if !ok {
        std::process::exit(1);
    }
}
