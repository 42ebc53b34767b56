//! The paper's Table 1 (§8.3) on the engines, at a small size: every
//! cell's checksum equals Rust's sort, Tier 2 uses VM-O2's fuel, and the
//! paper's four shape claims hold on fuel. `examples/table1_report`
//! prints the same table at a larger size.

use genus_repro::table1;

#[test]
fn table1_shape_claims_hold_on_the_engines() {
    let table = table1::measure(40, 1).unwrap_or_else(|e| panic!("{e}"));
    assert_eq!(table.rows.len(), 12);
    let claims = table.claims();
    assert_eq!(claims.len(), 4);
    for claim in claims {
        assert!(
            claim.holds,
            "claim lost: {}\n{}\n{}",
            claim.name,
            claim.detail,
            table.render()
        );
    }
}
