//! The checked base: the prelude and stdlib parsed and checked once per
//! process, then extended by one request unit at a time.
//!
//! Genus resolves models per instantiation (§4), so a library checks
//! independently of its clients: the stdlib's semantic prefix and lowered
//! bodies do not depend on any unit checked after it. A [`CheckedBase`]
//! holds that work, immutable and `Sync`, and [`CheckedBase::extend`]
//! checks one more unit against it: it clones the base's table, collects
//! the unit's declarations after the base's (so class, constraint, model
//! and global ids match a from-scratch check), runs signature completion,
//! model conformance and well-formedness for the new declarations only,
//! and checks only the unit's bodies. The base's HIR bodies are shared by
//! reference.
//!
//! # The reuse rule
//!
//! Extension answers only when it provably agrees with
//! [`crate::check_sources_report`] over the base's sources plus the unit.
//! The declarations are extended by the crate's one reuse rule,
//! `extend_prefix` in the crate root, which incremental sessions also
//! apply when an interface edit rebuilds their prefix. It declines a unit
//! with a `use`, an `enrich`, an overload of a base global, a model whose
//! prerequisite closure reaches a base constraint, or any collection or
//! prefix diagnostic. On top of it, extension declines (returns `None`,
//! and the caller runs the full check) any diagnostic at all (parse or
//! body, errors and warnings alike) and any `import`: the full check
//! renders them.

use crate::{check_bodies_filter, extend_prefix, CheckedProgram, Session};
use genus_common::{Diagnostics, SourceMap};
use std::sync::OnceLock;

/// The prelude (and optionally the stdlib), checked once per process.
#[derive(Debug)]
pub struct CheckedBase {
    /// The base's source files; a unit is parsed at the next file id.
    sm: SourceMap,
    /// The checked base program; `None` if the base itself reported any
    /// diagnostic, in which case every unit takes the full check.
    program: Option<CheckedProgram>,
}

impl CheckedBase {
    /// The process-wide base: prelude plus stdlib when `stdlib`, else the
    /// prelude alone. Built on first use.
    pub fn get(stdlib: bool) -> &'static CheckedBase {
        static PRELUDE: OnceLock<CheckedBase> = OnceLock::new();
        static STDLIB: OnceLock<CheckedBase> = OnceLock::new();
        if stdlib {
            STDLIB.get_or_init(|| CheckedBase::build(Session::with_stdlib()))
        } else {
            PRELUDE.get_or_init(|| CheckedBase::build(Session::new()))
        }
    }

    /// Checks `session`'s units as the base. Unlike other one-shot
    /// checks, the base program keeps its stamp: every extension shares
    /// it, so their lowerings share the base's bytecode.
    fn build(mut session: Session) -> CheckedBase {
        session.check();
        let stamp = session.program().and_then(|p| p.base);
        let report = session.into_report();
        CheckedBase {
            program: report
                .program
                .filter(|_| report.diags.is_empty())
                .map(|p| CheckedProgram { base: stamp, ..p }),
            sm: report.sm,
        }
    }

    /// Checks the unit `name` with text `src` against the base. Returns the
    /// program a full check of the base's units plus this one would
    /// produce, or `None` when the reuse rule (see the module docs) sends
    /// the unit to the full check.
    pub fn extend(&self, name: &str, src: &str) -> Option<CheckedProgram> {
        let base = self.program.as_ref()?;
        let mut sm = self.sm.clone();
        let file = sm.add_file(name, src);
        let parsed = genus_syntax::parse_unit(&sm, file, name);
        let prog = parsed.program.as_ref();
        if !parsed.diags.is_empty() || !prog.imports.is_empty() {
            return None;
        }
        let table = extend_prefix(&base.table, &[prog])?;
        let mut diags = Diagnostics::new();
        let mut checked = CheckedProgram {
            table,
            method_bodies: base.method_bodies.clone(),
            ctor_bodies: base.ctor_bodies.clone(),
            global_bodies: base.global_bodies.clone(),
            model_bodies: base.model_bodies.clone(),
            field_inits: base.field_inits.clone(),
            static_inits: base.static_inits.clone(),
            base: base.base,
        };
        check_bodies_filter(&mut checked, &mut diags, Some(file));
        diags.is_empty().then_some(checked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_units_extend_and_share_base_bodies() {
        let base = CheckedBase::get(true);
        let src = "class P { int x; P(int x) { this.x = x; } }\n\
                   int main() { ArrayList[P] l = new ArrayList[P](); l.add(new P(3)); return l.get(0).x; }";
        let prog = base.extend("request.genus", src).expect("extends");
        let full = full_check(src).program.expect("full check passes");
        assert_eq!(prog.table.classes.len(), full.table.classes.len());
        assert_eq!(prog.method_bodies.len(), full.method_bodies.len());
        assert_eq!(prog.global_bodies.len(), full.global_bodies.len());
        let shared = base.program.as_ref().expect("stdlib checks cleanly");
        let (key, body) = shared
            .method_bodies
            .iter()
            .next()
            .expect("stdlib has bodies");
        assert!(std::sync::Arc::ptr_eq(body, &prog.method_bodies[key]));
    }

    /// The reference: a stdlib-seeded session, which sees the stdlib the
    /// way `genus run` does.
    fn full_check(src: &str) -> crate::CheckReport {
        let mut session = crate::Session::with_stdlib();
        session.update_source("request.genus", src);
        session.into_report()
    }

    #[test]
    fn units_that_could_change_the_base_decline() {
        let base = CheckedBase::get(true);
        // (source, whether the full check accepts it)
        for (src, clean) in [
            // A diagnostic of any kind.
            ("int main() { return nope; }", false),
            ("int main( { return 0; }", false),
            ("int main() { return 0; return 1; }", true),
            // A name collision with a stdlib class.
            ("class ArrayList { ArrayList() { } }\nint main() { return 0; }", false),
            // A model for a prelude constraint.
            (
                "class K { int v; K(int v) { this.v = v; } }\n\
                 model KCmp for Comparable[K] { boolean equals(K that) { return v == that.v; } int compareTo(K that) { return v - that.v; } }\n\
                 int main() { return 0; }",
                true,
            ),
            // A request constraint whose prerequisite is a prelude one.
            (
                "constraint Rank[T] extends Comparable[T] { int rank(); }\n\
                 class K { int v; K(int v) { this.v = v; } }\n\
                 model KR for Rank[K] { boolean equals(K that) { return true; } int compareTo(K that) { return 0; } int rank() { return 1; } }\n\
                 int main() { return 0; }",
                true,
            ),
            // An overload of a stdlib global.
            ("int sortList(int x) { return x; }\nint main() { return 0; }", true),
            // An import.
            ("import collections;\nint main() { return 0; }", true),
        ] {
            assert!(base.extend("request.genus", src).is_none(), "{src}");
            let full = full_check(src);
            assert_eq!(full.program.is_some(), clean, "{src}: {:?}", full.error_codes());
        }
        // A fresh constraint and a model for it extend the base.
        let local = "constraint Rank[T] { int rank(); }\n\
                     class K { K() { } }\n\
                     model KR for Rank[K] { int rank() { return 1; } }\n\
                     int main() { return 0; }";
        assert!(base.extend("request.genus", local).is_some());
    }
}
