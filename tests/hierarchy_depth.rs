//! Deep and cyclic class hierarchies: every walk up the hierarchy in the
//! checker keeps its own stack, so no `extends` chain can overflow the
//! host stack, and a cycle is reported (`E0217`) instead of walked
//! forever.

use genus_repro::Compiler;

/// The stable codes of the errors a prelude-only check of `src` reports,
/// checked on a thread with a 256 KiB stack: far less than a recursive
/// walk needs for the chains below.
fn check_codes_on_small_stack(src: String) -> Vec<&'static str> {
    std::thread::Builder::new()
        .stack_size(256 << 10)
        .spawn(move || {
            Compiler::new()
                .source("chain.genus", src)
                .check_report()
                .error_codes()
        })
        .expect("spawn the checking thread")
        .join()
        .expect("the check completes")
}

/// A chain of `n` classes under `C0`, and a `main` whose checking walks
/// the whole chain: subtyping, method and field lookup.
fn chain(n: usize) -> String {
    let mut src = String::from("class C0 { int f; C0() { f = 1; } int get() { return f; } }\n");
    for i in 1..n {
        src += &format!("class C{i} extends C{} {{ C{i}() {{ }} }}\n", i - 1);
    }
    let last = n - 1;
    src += &format!(
        "int main() {{ C0 x = new C{last}(); C{last} y = new C{last}(); return x.get() + y.f + y.get(); }}\n"
    );
    src
}

#[test]
fn a_deep_extends_chain_checks_on_a_small_stack() {
    let codes = check_codes_on_small_stack(chain(3000));
    assert!(codes.is_empty(), "{codes:?}");
}

#[test]
fn inheritance_cycles_are_reported_and_cut() {
    let src = "class A extends B { A() { } int get() { return 1; } }
               class B extends A { B() { } }
               interface I extends J { }
               interface J extends I { }
               class S extends S { S() { } }
               int main() { A a = new A(); return a.get(); }";
    let codes = check_codes_on_small_stack(src.to_string());
    assert_eq!(codes, ["E0217", "E0217", "E0217"]);
}
