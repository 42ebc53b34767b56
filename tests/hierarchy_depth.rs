//! Deep and cyclic class and model hierarchies: every walk up a hierarchy
//! keeps its own stack and has no depth cap, so no `extends` chain can
//! overflow the host stack or lose what it inherits, and a cycle is
//! reported (`E0217`) instead of walked forever.

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

/// A chain of `n` classes whose constructors all assign the root's field:
/// each assignment looks the field up from its own class, which took time
/// linear in the class's depth before the declaring class was memoized.
/// Running it lays out every class's fields, superclass first.
fn field_chain(n: usize) -> String {
    let mut src = String::from("class C0 { int f; C0() { f = 1; } }\n");
    for i in 1..n {
        src += &format!(
            "class C{i} extends C{} {{ C{i}() {{ f = {i}; }} }}\n",
            i - 1
        );
    }
    let last = n - 1;
    src += &format!("int main() {{ C{last} c = new C{last}(); return c.f; }}\n");
    src
}

#[test]
fn a_deep_chain_assigning_the_root_field_checks_and_runs() {
    let codes = check_codes_on_small_stack(field_chain(3000));
    assert!(codes.is_empty(), "{codes:?}");
    let r = Compiler::new()
        .source("chain.genus", field_chain(3000))
        .run_differential()
        .expect("runs alike on every engine");
    assert_eq!(r.rendered_value, "2999");
}

/// A chain of `n` models for one constraint, each extending the previous
/// one; only the root defines the operation, so the last one inherits it
/// through the whole chain. With `cyclic`, the root extends the last.
fn model_chain(n: usize, cyclic: bool) -> String {
    let mut src = String::from(
        "class Duo { int a; Duo(int a) { this.a = a; } }\n\
         constraint Pair[T] { int T.first(); }\n",
    );
    let closing = if cyclic {
        format!(" extends M{}", n - 1)
    } else {
        String::new()
    };
    src += &format!("model M0 for Pair[Duo]{closing} {{ int first() {{ return this.a + 7; }} }}\n");
    for i in 1..n {
        src += &format!("model M{i} for Pair[Duo] extends M{} {{ }}\n", i - 1);
    }
    src += "int firstOf[T](T x) where Pair[T] { return x.first(); }\n";
    src += &format!(
        "int main() {{ return firstOf[Duo with M{}](new Duo(0)); }}\n",
        n - 1
    );
    src
}

#[test]
fn deep_model_chains_inherit_through_every_level() {
    for n in [20, 200] {
        let r = Compiler::new()
            .source("models.genus", model_chain(n, false))
            .run_differential()
            .unwrap_or_else(|e| panic!("{n} models: {e}"));
        assert_eq!(r.rendered_value, "7", "{n} models");
    }
    // Conformance builds each model's visible methods from its parent's,
    // so checking a long chain is linear in its length.
    for n in [3000, 4000] {
        let codes = check_codes_on_small_stack(model_chain(n, false));
        assert!(codes.is_empty(), "{n} models: {codes:?}");
    }
}

#[test]
fn model_inheritance_cycles_are_reported_and_cut() {
    // The cut drops the edge that closes the cycle (`M1 extends M0`), so
    // `M1` no longer inherits `first` and does not witness `Pair[Duo]`.
    let codes = check_codes_on_small_stack(model_chain(2, true));
    assert_eq!(codes, ["E0217", "E0601"]);
    let src = "class Duo { Duo() { } }
               constraint Pair[T] { int T.first(); }
               model S for Pair[Duo] extends S { int first() { return 1; } }
               int main() { return 0; }";
    let codes = check_codes_on_small_stack(src.to_string());
    assert_eq!(codes, ["E0217"]);
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
