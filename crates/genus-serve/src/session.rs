//! Server-side incremental compile sessions.
//!
//! A sessionful request (`{"session": "dev", "action": "update" | "check"
//! | "run", ...}`) routes through this registry instead of the stateless
//! program cache. Each named session owns a long-lived
//! [`genus_check::Session`] — the content-hash-keyed query pipeline —
//! plus compiled bytecode keyed by the session's generation counter, so a
//! sequence of `update`/`check`/`run` requests re-derives only what the
//! edits could have changed: untouched units keep their parse trees and
//! check verdicts, and an unchanged program keeps its bytecode.
//!
//! Sessionful requests are handled **inline on the submitting thread**
//! (not on the worker pool): a session's actions are ordered by
//! definition — an `update` must be visible to the `check` that follows
//! it on the same connection — and pipelining them across workers would
//! trade that guarantee for nothing (the whole point of a session is
//! that re-checks are cheap). Distinct sessions on distinct connections
//! still run concurrently; each entry is independently locked.

use crate::proto::{Action, EngineKind, Outcome, Request, Response, SessionReuse};
use genus_check::Session;
use genus_common::Severity;
use genus_interp::with_interp_stack;
use genus_vm::exec::{execute, Code};
use genus_vm::{compile_optimized, compile_tier, TierProgram, VmProgram};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One named session: the incremental checker plus per-generation
/// compiled-code slots.
struct SessionEntry {
    inner: Session,
    /// Bytecode for the current program, keyed by `(generation, opt)`.
    vm_code: Option<(u64, u8, Arc<VmProgram>)>,
    /// Tier-2 closures over that bytecode, keyed the same way.
    tier_code: Option<(u64, u8, Arc<TierProgram>)>,
}

impl SessionEntry {
    fn new(stdlib: bool) -> SessionEntry {
        SessionEntry {
            inner: if stdlib {
                Session::with_stdlib()
            } else {
                Session::new()
            },
            vm_code: None,
            tier_code: None,
        }
    }

    fn handle(&mut self, req: Request, submitted: Instant) -> Response {
        match req.action {
            Action::Update => {
                self.inner.update_source(&req.file, &req.source);
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
                    self.inner.update_source(&req.file, &req.source);
                }
                let before = self.inner.stats();
                let report = self.inner.check();
                let after = self.inner.stats();
                let reuse = SessionReuse {
                    extended: after.prefix_extended - before.prefix_extended,
                    reused: after.units_not_rechecked() - before.units_not_rechecked(),
                    rechecked: after.units_rechecked - before.units_rechecked,
                };
                if report.has_errors() {
                    let sm = self.inner.sm();
                    let message = self
                        .inner
                        .last_diags()
                        .iter()
                        .filter(|d| d.severity == Severity::Error)
                        .map(|d| d.render(sm))
                        .collect::<Vec<_>>()
                        .join("\n");
                    return Response {
                        reuse: Some(reuse),
                        ms: ms_since(submitted),
                        engine: req.engine,
                        ..Response::error(req.id, message)
                    };
                }
                if req.action == Action::Check {
                    return Response {
                        id: req.id,
                        outcome: Outcome::Ok("checked".to_string()),
                        reuse: Some(reuse),
                        ms: ms_since(submitted),
                        engine: req.engine,
                        ..Response::error("", "")
                    };
                }
                self.run(req, submitted, reuse)
            }
            // The scheduler answers metrics requests before session
            // routing; this arm only fires on direct registry use.
            Action::Metrics => Response::error(req.id, "`metrics` does not apply to a session"),
        }
    }

    /// Executes `main()` against the session's checked program, reusing
    /// compiled bytecode when the generation (and opt level) still match.
    fn run(&mut self, req: Request, submitted: Instant, reuse: SessionReuse) -> Response {
        let generation = self.inner.generation();
        let opt = req.opt_level;
        // `auto` has no hotness signal here; a session's program is warm
        // by definition, so it runs on the VM.
        let engine = match req.engine {
            EngineKind::Auto => EngineKind::Vm,
            explicit => explicit,
        };
        let prog = self
            .inner
            .program()
            .expect("no errors implies a checked program");
        // `cache_hit` reports whether the code this engine runs was
        // reused: the bytecode on the VM, the closures on Tier 2.
        let (run, cache_hit) = match engine {
            // The submitting thread is not a pool worker, so the
            // recursive interpreter gets its big stack here.
            EngineKind::Ast => (
                with_interp_stack(|| execute(prog, Code::Ast, req.limits)),
                false,
            ),
            EngineKind::Vm | EngineKind::Auto | EngineKind::Jit => {
                let (code, code_hit) = match &self.vm_code {
                    Some((g, o, code)) if *g == generation && *o == opt => (code.clone(), true),
                    _ => {
                        let code = Arc::new(compile_optimized(prog, opt));
                        self.vm_code = Some((generation, opt, code.clone()));
                        self.tier_code = None;
                        (code, false)
                    }
                };
                if engine != EngineKind::Jit {
                    (execute(prog, Code::Vm(&code), req.limits), code_hit)
                } else {
                    let (tier, tier_hit) = match &self.tier_code {
                        Some((g, o, tier)) if *g == generation && *o == opt => (tier.clone(), true),
                        _ => {
                            let tier = Arc::new(compile_tier(&code));
                            self.tier_code = Some((generation, opt, tier.clone()));
                            (tier, false)
                        }
                    };
                    (execute(prog, Code::Tier(&tier), req.limits), tier_hit)
                }
            }
        };
        Response {
            cache_hit,
            ms: ms_since(submitted),
            reuse: Some(reuse),
            ..Response::from_execution(req.id, run, engine)
        }
    }
}

/// The server's named-session table. Sessions are created on first use
/// (with the stdlib iff the creating request asked for it) and live for
/// the server's lifetime; each is independently locked, so concurrent
/// connections using different sessions never contend.
#[derive(Default)]
pub struct SessionRegistry {
    map: Mutex<HashMap<String, Arc<Mutex<SessionEntry>>>>,
}

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
    /// on first use.
    pub fn handle(&self, req: Request, submitted: Instant) -> Response {
        let name = req.session.clone().expect("sessionful request");
        let entry = {
            let mut map = self.map.lock().expect("session registry poisoned");
            Arc::clone(
                map.entry(name)
                    .or_insert_with(|| Arc::new(Mutex::new(SessionEntry::new(req.stdlib)))),
            )
        };
        let mut entry = entry.lock().expect("session entry poisoned");
        entry.handle(req, submitted)
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
    fn signature_edits_report_extending_the_stdlib_snapshot() {
        let reg = SessionRegistry::new();
        let t = Instant::now();
        let check = |id: &str, source: &str| {
            let line =
                format!(r#"{{"id":"{id}","session":"s","action":"check","source":"{source}"}}"#);
            let r = reg.handle(req(&line), t);
            assert_eq!(r.outcome, Outcome::Ok("checked".to_string()));
            r.reuse.expect("sessionful check carries counters")
        };
        assert_eq!(check("c1", "int main() { return 1; }").extended, 0, "cold");
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
            assert_eq!(r.engine.name(), engine);
        }
        assert_eq!(reg.len(), 3);
    }
}
