//! Server-side incremental compile sessions.
//!
//! A sessionful request (`{"session": "dev", "action": "update" | "check"
//! | "run", ...}`) routes through this registry instead of the stateless
//! program cache. Each named session is a [`CompileSession`] — the same
//! type the facade, `genus run` and `genus check --watch` hold — so a
//! sequence of `update`/`check`/`run` requests re-derives only what the
//! edits could have changed: untouched units keep their parse trees and
//! check verdicts, and an unchanged program keeps its compiled code.
//!
//! Sessionful requests are handled **inline on the submitting thread**
//! (not on the worker pool): a session's actions are ordered by
//! definition — an `update` must be visible to the `check` that follows
//! it on the same connection — and pipelining them across workers would
//! trade that guarantee for nothing (the whole point of a session is
//! that re-checks are cheap). Distinct sessions on distinct connections
//! still run concurrently; each session is independently locked.

use crate::proto::{Action, Outcome, Request, Response, SessionReuse};
use genus_vm::exec::{CompileSession, Engine};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Answers one sessionful request against `session`.
fn handle_in(session: &mut CompileSession, req: Request, submitted: Instant) -> Response {
    match req.action {
        Action::Update => {
            session.update_source(&req.file, &req.source);
            Response {
                id: req.id,
                outcome: Outcome::Ok("updated".to_string()),
                ms: ms_since(submitted),
                engine: req.engine,
                ..Response::error("", "")
            }
        }
        Action::Check | Action::Run => {
            // A check/run carrying text is an implicit update first.
            if !req.source.is_empty() {
                session.update_source(&req.file, &req.source);
            }
            let before = session.stats();
            let report = session.check();
            let after = session.stats();
            let reuse = Some(SessionReuse {
                extended: after.prefix_extended - before.prefix_extended,
                reused: after.units_not_rechecked() - before.units_not_rechecked(),
                rechecked: after.units_rechecked - before.units_rechecked,
            });
            if report.has_errors() {
                return Response {
                    reuse,
                    ms: ms_since(submitted),
                    engine: req.engine,
                    ..Response::error(req.id, session.render_errors_short())
                };
            }
            if req.action == Action::Check {
                return Response {
                    id: req.id,
                    outcome: Outcome::Ok("checked".to_string()),
                    reuse,
                    ms: ms_since(submitted),
                    engine: req.engine,
                    ..Response::error("", "")
                };
            }
            // `auto` has no hotness signal here; a session's program is
            // warm by definition, so it runs on the VM. `cache` reports
            // whether the code this engine runs was reused: the
            // bytecode on the VM, the closures on Tier 2.
            let engine = req.engine.unwrap_or(Engine::Vm);
            session.opt_level(req.opt_level);
            let (run, cache_hit) = session.run_checked(engine, req.limits);
            Response {
                cache_hit,
                ms: ms_since(submitted),
                reuse,
                ..Response::from_execution(req.id, run, engine)
            }
        }
        // The scheduler answers metrics requests before session
        // routing; this arm only fires on direct registry use.
        Action::Metrics => Response::error(req.id, "`metrics` does not apply to a session"),
    }
}

/// The server's named-session table. Sessions are created on first use
/// (with the stdlib unless the creating request says `"stdlib": false`)
/// and live for the server's lifetime; each is independently locked, so
/// concurrent connections using different sessions never contend.
#[derive(Default)]
pub struct SessionRegistry {
    map: Mutex<HashMap<String, Named>>,
}

/// A named session and the `stdlib` setting it was opened with.
type Named = (bool, Arc<Mutex<CompileSession>>);

impl SessionRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.map.lock().expect("session registry poisoned").len()
    }

    /// Whether no session has been created yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Handles one sessionful request synchronously, creating the session
    /// on first use. A request whose `stdlib` differs from the setting
    /// its session was opened with gets an error reply.
    pub fn handle(&self, req: Request, submitted: Instant) -> Response {
        let name = req.session.clone().expect("sessionful request");
        let (stdlib, session) = self
            .map
            .lock()
            .expect("session registry poisoned")
            .entry(name.clone())
            .or_insert_with(|| {
                let stdlib = req.stdlib.unwrap_or(true);
                (stdlib, Arc::new(Mutex::new(CompileSession::seeded(stdlib))))
            })
            .clone();
        if req.stdlib.unwrap_or(stdlib) != stdlib {
            let msg = format!("session `{name}` was opened with `stdlib: {stdlib}`");
            return Response::error(req.id, format!("{msg}; a request cannot change it"));
        }
        let mut session = session.lock().expect("session poisoned");
        handle_in(&mut session, req, submitted)
    }
}

#[allow(clippy::cast_possible_truncation)]
fn ms_since(start: Instant) -> u64 {
    start.elapsed().as_millis() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_common::json::{self, Json};
    use genus_interp::Limits;

    fn req(line: &str) -> Request {
        Request::parse(line, &Limits::default()).unwrap()
    }

    #[test]
    fn a_session_keeps_the_stdlib_setting_it_was_opened_with() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        let r = reg.handle(
            req(r#"{"id":"u1","session":"p","action":"update","stdlib":false,"source":"int main() { return 1; }"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("updated".to_string()));
        // Omitting `stdlib` takes the session's own setting.
        let r = reg.handle(req(r#"{"id":"r1","session":"p","action":"run"}"#), t);
        assert_eq!(r.outcome, Outcome::Ok("1".to_string()));
        let r = reg.handle(
            req(r#"{"id":"r2","session":"p","action":"run","stdlib":true}"#),
            t,
        );
        assert_eq!(r.id, "r2");
        assert_eq!(
            r.outcome,
            Outcome::Error(
                "session `p` was opened with `stdlib: false`; a request cannot change it"
                    .to_string()
            )
        );
        let r = reg.handle(
            req(r#"{"id":"r3","session":"p","action":"run","stdlib":false}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("1".to_string()));
    }

    #[test]
    fn update_check_run_pipeline_reuses_verdicts() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        let r = reg.handle(
            req(r#"{"id":"u1","session":"s","action":"update","source":"int main() { return 40 + 2; }"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("updated".to_string()));
        assert!(r.reuse.is_none(), "updates do not check");
        let r = reg.handle(req(r#"{"id":"c1","session":"s","action":"check"}"#), t);
        assert_eq!(r.outcome, Outcome::Ok("checked".to_string()));
        let r = reg.handle(
            req(r#"{"id":"r1","session":"s","action":"run","engine":"vm"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("42".to_string()));
        let reuse = r.reuse.expect("sessionful run carries counters");
        // Nothing changed between the check and the run: every unit's
        // verdict (prelude + stdlib + main) was reused.
        assert!(reuse.reused > 0, "{reuse:?}");
        assert_eq!(reuse.rechecked, 0, "{reuse:?}");
        // And an identical re-run also reuses the compiled bytecode.
        let r = reg.handle(
            req(r#"{"id":"r2","session":"s","action":"run","engine":"vm"}"#),
            t,
        );
        assert!(r.cache_hit, "unchanged program must reuse bytecode");
    }

    #[test]
    fn edit_invalidates_bytecode_but_not_sibling_verdicts() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        reg.handle(
            req(r#"{"id":"u1","session":"s","action":"update","file":"util.genus","source":"class Box { int v; Box(int v) { this.v = v; } int get() { return v; } }"}"#),
            t,
        );
        let r = reg.handle(
            req(r#"{"id":"r1","session":"s","action":"run","engine":"vm","source":"int main() { return new Box(6).get(); }"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("6".to_string()));
        assert!(!r.cache_hit);
        // Body-only edit to main: util's verdict is reused, bytecode is
        // recompiled.
        let r = reg.handle(
            req(r#"{"id":"r2","session":"s","action":"run","engine":"vm","source":"int main() { return new Box(7).get(); }"}"#),
            t,
        );
        assert_eq!(r.outcome, Outcome::Ok("7".to_string()));
        assert!(!r.cache_hit, "edited program must recompile");
        let reuse = r.reuse.unwrap();
        assert!(reuse.reused >= 2, "prelude + util reused: {reuse:?}");
        assert_eq!(reuse.rechecked, 1, "only main re-checked: {reuse:?}");
    }

    #[test]
    fn every_prefix_build_reports_extending_the_shared_base() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        let check = |id: &str, source: &str| {
            let line =
                format!(r#"{{"id":"{id}","session":"s","action":"check","source":"{source}"}}"#);
            let r = reg.handle(req(&line), t);
            assert_eq!(r.outcome, Outcome::Ok("checked".to_string()));
            r.reuse.expect("sessionful check carries counters")
        };
        assert_eq!(check("c1", "int main() { return 1; }").extended, 1, "cold");
        assert_eq!(check("c2", "long main() { return 1; }").extended, 1);
        assert_eq!(
            check("c3", "long main() { return 2; }").extended,
            0,
            "body edit"
        );
    }

    #[test]
    fn check_errors_render_with_stable_codes() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        let r = reg.handle(
            req(r#"{"id":"c1","session":"s","action":"check","source":"int main() { return nope; }"}"#),
            t,
        );
        let Outcome::Error(msg) = &r.outcome else {
            panic!("expected a compile error, got {:?}", r.outcome);
        };
        assert!(msg.contains("unknown variable"), "{msg}");
        assert!(r.reuse.is_some(), "failed checks still report reuse");
        // The error round-trips through the JSON line renderer.
        let v = json::parse(&r.to_json_line()).unwrap();
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("error"));
    }

    #[test]
    fn sessions_are_isolated_and_engines_agree() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        for (name, engine) in [("a", "ast"), ("b", "vm"), ("c", "jit")] {
            let r = reg.handle(
                req(&format!(
                    r#"{{"id":"r","session":"{name}","action":"run","engine":"{engine}","source":"int main() {{ println(\"hi\"); return 9; }}"}}"#
                )),
                t,
            );
            assert_eq!(r.outcome, Outcome::Ok("9".to_string()), "{engine}");
            assert_eq!(r.output, "hi\n", "{engine}");
            assert_eq!(r.engine.map(Engine::name), Some(engine));
        }
        assert_eq!(reg.len(), 3);
    }
}
