//! The lowered-base cache, counted exactly: a `CompileSession` driven
//! through body edits, member and global signature edits and a revert
//! copies the lowered prelude and stdlib on every compile after the first
//! one under each base stamp, and every compile's bytecode is the cold
//! lowering's, byte for byte.
//!
//! The cache is process-wide, so the counts hold only while nothing else
//! in the process compiles: this file holds one test.

use genus_common::bytes::ByteWriter;
use genus_repro::{compile_program_uncached, CompileSession, Engine, Limits};

fn bytes(code: &genus_repro::VmProgram) -> Vec<u8> {
    let mut w = ByteWriter::new();
    genus_vm::write_program(&mut w, code);
    w.into_bytes()
}

/// `helper` is a global, so its signature is part of the global
/// environment every unit's verdict key folds in (the base's too);
/// `Acc.add` is an instance member, whose signature is not.
fn source(add_param: &str, helper_param: &str, literal: u32) -> String {
    format!(
        "class Acc {{ int n; Acc() {{ n = 0; }} void add({add_param} k) {{ n = n + {literal}; }} }}\n\
         int helper({helper_param} x) {{ return 1; }}\n\
         int main() {{ ArrayList[Acc] l = new ArrayList[Acc](); l.add(new Acc()); \
         l.get(0).add(2); return l.get(0).n + helper(3); }}"
    )
}

#[test]
fn a_session_lowers_each_base_once() {
    let mut s = CompileSession::with_stdlib();
    // (source, reused lowerings after compiling it, what the edit is)
    let steps = [
        (
            source("int", "int", 40),
            0,
            "cold: lowers the base, fills the cache",
        ),
        (source("int", "int", 41), 1, "body edit"),
        (source("int", "int", 42), 2, "body edit"),
        (
            source("long", "int", 42),
            3,
            "member signature edit: same base stamp",
        ),
        (
            source("long", "long", 42),
            3,
            "global signature edit: a new stamp",
        ),
        (
            source("long", "long", 43),
            4,
            "body edit under the new stamp",
        ),
        (
            source("long", "int", 44),
            5,
            "back to the first stamp, still cached",
        ),
    ];
    for (src, reused, what) in steps {
        s.update_source("main.genus", &src);
        let run = s.run(Engine::Vm, Limits::default()).expect("runs");
        let literal: u32 = src.split("n + ").nth(1).unwrap()[..2].parse().unwrap();
        assert_eq!(run.rendered_value, (literal + 1).to_string(), "{what}");
        assert_eq!(s.lowerings_reused(), reused, "{what}");
        let prog = s.program().expect("checks");
        assert!(prog.base.is_some(), "{what}");
        let cached = genus_repro::compile_program(prog);
        assert!(cached.funcs_reused > 0, "{what}");
        assert_eq!(
            bytes(&cached),
            bytes(&compile_program_uncached(prog)),
            "{what}"
        );
    }

    // A prelude-only session has a base of its own.
    let mut p = CompileSession::new();
    for (literal, reused) in [(1, 0), (2, 1), (3, 2)] {
        p.update_source("main.genus", &format!("int main() {{ return {literal}; }}"));
        assert!(p.run(Engine::Vm, Limits::default()).is_ok());
        assert_eq!(
            p.lowerings_reused(),
            reused,
            "prelude base, literal {literal}"
        );
    }
}
