//! The checked base: the prelude and stdlib checked once per process,
//! then shared by every session that starts with them.
//!
//! Genus resolves models per instantiation (§4), so a library checks
//! independently of its clients. A [`Session`] whose leading
//! always-visible units are exactly the base's builds every prefix by
//! extending the base's table (`extend_prefix` in the crate root, the
//! one reuse rule), and its cold check installs the base's bodies as the
//! base units' verdicts; while those stay live its program carries the
//! base's [`BaseStamp`]. The base itself is checked by the unshared full
//! build, so building it never asks for it.

use crate::incremental::Fragment;
use crate::{BaseStamp, Session};
use genus_syntax::Fp;
use genus_types::Table;
use std::sync::{Arc, OnceLock};

/// The prelude (and optionally the stdlib), checked once per process.
#[derive(Debug, Default)]
pub struct CheckedBase {
    /// The base units' semantic prefix, with their bodies checked.
    pub(crate) table: Table,
    /// The base units in session order.
    pub(crate) units: Vec<BaseUnit>,
    /// The stamp every program sharing the base's verdicts carries;
    /// `None` when checking the base reported a diagnostic, and no
    /// session then shares it.
    pub stamp: Option<BaseStamp>,
}

/// One base unit: what a session matches it by, and what it installs.
#[derive(Debug)]
pub(crate) struct BaseUnit {
    pub(crate) content: Fp,
    pub(crate) def_fp: Fp,
    pub(crate) frag: Arc<Fragment>,
}

impl CheckedBase {
    /// The process-wide base: prelude plus stdlib when `stdlib`, else the
    /// prelude alone. Built on first use.
    pub fn get(stdlib: bool) -> &'static CheckedBase {
        static PRELUDE: OnceLock<CheckedBase> = OnceLock::new();
        static STDLIB: OnceLock<CheckedBase> = OnceLock::new();
        let cell = if stdlib { &STDLIB } else { &PRELUDE };
        cell.get_or_init(|| {
            let mut session = Session::unshared(stdlib);
            session.check();
            session.into_base()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cold stdlib session's check of `src` as the unit
    /// `request.genus`, and whether its prefix extended the base.
    fn cold_check(src: &str) -> (crate::CheckReport, bool) {
        let mut session = Session::with_stdlib();
        session.update_source("request.genus", src);
        session.check();
        let extended = session.stats().prefix_extended == 1;
        (session.into_report(), extended)
    }

    #[test]
    fn clean_units_extend_and_share_base_bodies() {
        let src = "class P { int x; P(int x) { this.x = x; } }\n\
                   int main() { ArrayList[P] l = new ArrayList[P](); l.add(new P(3)); return l.get(0).x; }";
        let (report, extended) = cold_check(src);
        assert!(extended);
        let prog = report.program.expect("checks");
        let full = crate::check_unshared(true, &[("request.genus", src)])
            .program
            .expect("the full build passes");
        assert_eq!(prog.table.classes.len(), full.table.classes.len());
        assert_eq!(prog.method_bodies.len(), full.method_bodies.len());
        assert_eq!(prog.global_bodies.len(), full.global_bodies.len());
        let base = CheckedBase::get(true);
        assert!(base.stamp.is_some());
        assert_eq!(prog.base, base.stamp);
        assert_eq!(full.base, None, "the full build's report carries no stamp");
        let (key, body) = base
            .units
            .iter()
            .find_map(|u| u.frag.method_bodies.first())
            .expect("the stdlib has bodies");
        assert!(Arc::ptr_eq(body, &prog.method_bodies[key]));
        assert_ne!(CheckedBase::get(false).stamp, base.stamp);
    }

    #[test]
    fn units_that_could_change_the_base_decline() {
        // (source, whether the rule extends the base, whether the full
        // build accepts it)
        for (src, extends, clean) in [
            // Body and parse diagnostics, and imports, are the session's
            // own business: they extend.
            ("int main() { return nope; }", true, false),
            ("int main() { return 0; return 1; }", true, true),
            ("import collections;\nint main() { return 0; }", true, true),
            // A name collision with a stdlib class.
            ("class ArrayList { ArrayList() { } }\nint main() { return 0; }", false, false),
            // A model for a prelude constraint.
            (
                "class K { int v; K(int v) { this.v = v; } }\n\
                 model KCmp for Comparable[K] { boolean equals(K that) { return v == that.v; } int compareTo(K that) { return v - that.v; } }\n\
                 int main() { return 0; }",
                false,
                true,
            ),
            // A request constraint whose prerequisite is a prelude one.
            (
                "constraint Rank[T] extends Comparable[T] { int rank(); }\n\
                 class K { int v; K(int v) { this.v = v; } }\n\
                 model KR for Rank[K] { boolean equals(K that) { return true; } int compareTo(K that) { return 0; } int rank() { return 1; } }\n\
                 int main() { return 0; }",
                false,
                true,
            ),
            // An overload of a stdlib global.
            ("int sortList(int x) { return x; }\nint main() { return 0; }", false, true),
            // A fresh constraint and a model for it.
            (
                "constraint Rank[T] { int rank(); }\n\
                 class K { K() { } }\n\
                 model KR for Rank[K] { int rank() { return 1; } }\n\
                 int main() { return 0; }",
                true,
                true,
            ),
        ] {
            let (report, extended) = cold_check(src);
            assert_eq!(extended, extends, "{src}");
            let full = crate::check_unshared(true, &[("request.genus", src)]);
            assert_eq!(report.diags, full.diags, "{src}");
            assert_eq!(full.program.is_some(), clean, "{src}: {:?}", full.error_codes());
        }
        // A parse error stops before any prefix is built.
        assert!(!cold_check("int main( { return 0; }").1);
    }
}
