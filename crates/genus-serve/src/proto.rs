//! The JSON-lines wire protocol: one request object per input line, one
//! response object per output line, in request order.
//!
//! Requests (`genus_common::json` is both parser and escaper — no
//! third-party serialization):
//!
//! ```json
//! {"id": "r1", "source": "int main() { return 42; }",
//!  "engine": "vm", "opt": 2, "stdlib": false,
//!  "fuel": 1000000, "memory": 65536, "deadline_ms": 2000}
//! ```
//!
//! Only `id` and `source` are required. `engine` defaults to `"vm"`
//! (also accepted: any other [`Engine`] name — `"ast"`, `"jit"` for the
//! closure-compiled Tier 2 — and `"auto"` for server-side hotness
//! promotion across all three),
//! `opt` to 2, `stdlib` to `true` (the same default as `genus run`;
//! pass `false` for prelude-only compiles; a sessionful request defaults
//! to its session's setting, and a differing one gets an error reply);
//! the resource fields default to the server's per-request budgets.
//!
//! Responses:
//!
//! ```json
//! {"id": "r1", "outcome": "ok", "value": "42", "output": "",
//!  "fuel_used": 3, "mem_used": 0, "live_bytes": 0, "peak_bytes": 0,
//!  "collections": 0, "cache": "hit", "ms": 0, "engine": "vm"}
//! ```
//!
//! `outcome` is `"ok"` (with `value`), `"trap"` (with the stable `code`,
//! e.g. `R0009` for fuel exhaustion, and `message`), or `"error"` for
//! compile failures (with `message`). Fields are emitted in a fixed
//! order, so response lines are byte-deterministic for a given outcome.
//!
//! **Sessionful requests** carry a `session` name and an `action`:
//!
//! ```json
//! {"id": "u1", "session": "dev", "action": "update",
//!  "file": "main.genus", "source": "int main() { return 1; }"}
//! {"id": "c1", "session": "dev", "action": "check"}
//! {"id": "r1", "session": "dev", "action": "run", "engine": "vm"}
//! ```
//!
//! A session is a long-lived incremental compile pipeline on the server:
//! `update` replaces one named unit's text, `check` re-derives
//! diagnostics reusing everything content hashes allow, and `run`
//! re-checks then executes `main()` (reusing compiled bytecode when
//! nothing changed). Sessionful `check`/`run` responses append three
//! counters, `"extended"`, `"reused"` and `"rechecked"` — the per-request
//! incremental reuse evidence. Stateless response lines are unchanged, byte for byte.

use genus_common::json::{self, Json};
use genus_interp::Limits;
use genus_vm::exec::{Engine, Execution};

/// What a sessionful request asks its compile session to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Action {
    /// Replace the named unit's source text without checking.
    Update,
    /// Incrementally re-check the session's current sources.
    Check,
    /// Re-check, then execute `main()` on the requested engine.
    #[default]
    Run,
    /// Report the server's metrics snapshot (counters, cache, pool,
    /// latency histogram). Needs neither a `session` nor a `source`;
    /// answered synchronously by the scheduler, never queued behind
    /// execution work.
    Metrics,
}

impl Action {
    /// Parses a wire action name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Action> {
        match name {
            "update" => Some(Action::Update),
            "check" => Some(Action::Check),
            "run" => Some(Action::Run),
            "metrics" => Some(Action::Metrics),
            _ => None,
        }
    }

    /// The canonical wire name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Action::Update => "update",
            Action::Check => "check",
            Action::Run => "run",
            Action::Metrics => "metrics",
        }
    }
}

/// One execution request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Caller-chosen correlation id, echoed in the response.
    pub id: String,
    /// The Genus program (compiled once per distinct source — see the
    /// program cache). On sessionful `check`/`run` requests the source
    /// is optional: when present it first replaces the [`file`] unit,
    /// when absent the session's current sources are used as-is.
    ///
    /// [`file`]: Request::file
    pub source: String,
    /// The engine to run on, or `None` for `"auto"`: the server picks
    /// the engine from the cache entry's invocation count — cold
    /// programs run on the AST interpreter (no bytecode compile), warm
    /// ones on the VM, hot ones on Tier 2 — and the reply names the
    /// engine that ran. Defaults to the VM, whose compiled program the
    /// cache shares across workers.
    pub engine: Option<Engine>,
    /// VM optimization level (0–2).
    pub opt_level: u8,
    /// Whether the standard library is compiled in, as the request says.
    /// Absent means `true` on a stateless request, and the session's own
    /// setting on a sessionful one.
    pub stdlib: Option<bool>,
    /// Per-request resource budgets (fuel / memory / deadline).
    pub limits: Limits,
    /// Names a long-lived incremental compile session. `None` is the
    /// classic stateless protocol; `Some` routes the request through the
    /// server's session registry, where parse trees, check verdicts, and
    /// compiled bytecode persist across requests keyed by content hashes.
    pub session: Option<String>,
    /// What to do with the session. Ignored without [`session`].
    ///
    /// [`session`]: Request::session
    pub action: Action,
    /// The unit (module file name) the request's `source` belongs to on
    /// sessionful requests. Defaults to `main.genus`.
    pub file: String,
}

impl Request {
    /// A request with the given id and source and all-default knobs.
    pub fn new(id: impl Into<String>, source: impl Into<String>) -> Request {
        Request {
            id: id.into(),
            source: source.into(),
            engine: Some(Engine::Vm),
            opt_level: 2,
            stdlib: None,
            limits: Limits::default(),
            session: None,
            action: Action::default(),
            file: "main.genus".to_string(),
        }
    }

    /// Parses one request line. Fields absent from the line fall back to
    /// `defaults` (resource budgets) or the protocol defaults (engine,
    /// opt level, stdlib).
    ///
    /// # Errors
    ///
    /// Returns a message for malformed JSON, a missing/empty `id` or
    /// `source`, or an unknown `engine` name.
    pub fn parse(line: &str, defaults: &Limits) -> Result<Request, String> {
        let v = json::parse(line)?;
        let Json::Obj(_) = &v else {
            return Err("request must be a JSON object".to_string());
        };
        let id = match v.get("id") {
            Some(Json::Str(s)) => s.clone(),
            Some(Json::Num(n)) => format_num(*n),
            Some(_) => return Err("`id` must be a string or number".to_string()),
            None => return Err("missing `id`".to_string()),
        };
        let session = match v.get("session") {
            Some(Json::Str(s)) if !s.is_empty() => Some(s.clone()),
            Some(_) => return Err("`session` must be a non-empty string".to_string()),
            None => None,
        };
        let action = match v.get("action") {
            Some(j) => {
                let name = j
                    .as_str()
                    .ok_or_else(|| "`action` must be a string".to_string())?;
                Action::from_name(name).ok_or_else(|| format!("unknown action `{name}`"))?
            }
            None => Action::default(),
        };
        if !matches!(action, Action::Run | Action::Metrics) && session.is_none() {
            return Err(format!(
                "`action`: \"{}\" requires a `session`",
                action.name()
            ));
        }
        let file = match v.get("file") {
            Some(j) => {
                let name = j
                    .as_str()
                    .ok_or_else(|| "`file` must be a string".to_string())?;
                if name.is_empty() {
                    return Err("`file` must not be empty".to_string());
                }
                name.to_string()
            }
            None => "main.genus".to_string(),
        };
        let source = match v.get("source").and_then(Json::as_str) {
            Some(s) => s.to_string(),
            // Metrics requests carry no program at all; sessionful
            // check/run requests may re-use the session's current
            // sources without carrying any text of their own.
            None if action == Action::Metrics => String::new(),
            None if session.is_some() && action != Action::Update => String::new(),
            None => return Err("missing `source` string".to_string()),
        };
        let engine = match v.get("engine") {
            Some(j) => {
                let name = j
                    .as_str()
                    .ok_or_else(|| "`engine` must be a string".to_string())?;
                match name {
                    "auto" => None,
                    name => Some(
                        Engine::from_name(name)
                            .ok_or_else(|| format!("unknown engine `{name}`"))?,
                    ),
                }
            }
            None => Some(Engine::Vm),
        };
        let opt_level = match v.get("opt") {
            Some(j) => genus_vm::opt::level(num_field(j, "opt")? as u8),
            None => 2,
        };
        let stdlib = match v.get("stdlib") {
            Some(Json::Bool(b)) => Some(*b),
            Some(_) => return Err("`stdlib` must be a boolean".to_string()),
            None => None,
        };
        let mut limits = *defaults;
        if let Some(j) = v.get("fuel") {
            limits.fuel = Some(num_field(j, "fuel")? as u64);
        }
        if let Some(j) = v.get("memory") {
            limits.memory = Some(num_field(j, "memory")? as u64);
        }
        if let Some(j) = v.get("deadline_ms") {
            limits.deadline_ms = Some(num_field(j, "deadline_ms")? as u64);
        }
        Ok(Request {
            id,
            source,
            engine,
            opt_level,
            stdlib,
            limits,
            session,
            action,
            file,
        })
    }
}

fn num_field(j: &Json, name: &str) -> Result<f64, String> {
    match j.as_num() {
        Some(n) if n >= 0.0 => Ok(n),
        _ => Err(format!("`{name}` must be a non-negative number")),
    }
}

/// Renders an id that arrived as a JSON number.
fn format_num(n: f64) -> String {
    if n.fract() == 0.0 && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// How a request ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// `main()` returned; the payload is its rendered value.
    Ok(String),
    /// A runtime trap: the stable `R0xxx` code and the message.
    Trap {
        /// Stable diagnostic code (`R0009` for fuel, `R0010` for memory, …).
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// The source failed to compile; the payload is the rendered
    /// diagnostics (short format).
    Error(String),
}

/// Per-request incremental-session counters: how many unit verdicts the
/// request's check reused versus re-derived. Carried only by sessionful
/// responses, so stateless response lines keep their historical bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionReuse {
    /// Prefix rebuilds that extended the shared checked prelude and
    /// stdlib instead of rebuilding every unit's (0 or 1).
    pub extended: u64,
    /// Unit verdicts reused (live, restored from the LRU, or installed
    /// from the shared base on a cold check) by this check.
    pub reused: u64,
    /// Units fully re-checked by this check.
    pub rechecked: u64,
}

/// One execution response, serialized as a single JSON line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's correlation id.
    pub id: String,
    /// How the run ended.
    pub outcome: Outcome,
    /// Everything the program printed (isolated per request — worker
    /// stdout is never shared).
    pub output: String,
    /// Fuel steps consumed.
    pub fuel_used: u64,
    /// Exact heap bytes allocated, cumulatively (GC never decrements
    /// this — it is the R0010 accounting number, identical across
    /// engines for a given program).
    pub mem_used: u64,
    /// Bytes still live on the run's heap at completion.
    pub live_bytes: u64,
    /// High-water mark of live heap bytes over the run.
    pub peak_bytes: u64,
    /// Stop-the-world collections performed during the run.
    pub collections: u64,
    /// Whether the compiled program came from the cache.
    pub cache_hit: bool,
    /// Wall-clock service time in milliseconds (queue + compile + run).
    pub ms: u64,
    /// The engine that ran (or would have run) the request. For
    /// `engine: "auto"` requests this is the **resolved** engine the
    /// promotion policy picked, so callers can watch a program climb
    /// the tiers; it stays `None` (`"auto"`) only on a reply that ran
    /// nothing.
    pub engine: Option<Engine>,
    /// Incremental reuse counters of the check this request triggered.
    /// `Some` only on sessionful `check`/`run` responses.
    pub reuse: Option<SessionReuse>,
}

impl Response {
    /// An `outcome: "error"` response (compile failures, malformed
    /// requests, scheduler rejections carry their message here).
    pub fn error(id: impl Into<String>, message: impl Into<String>) -> Response {
        Response {
            id: id.into(),
            outcome: Outcome::Error(message.into()),
            output: String::new(),
            fuel_used: 0,
            mem_used: 0,
            live_bytes: 0,
            peak_bytes: 0,
            collections: 0,
            cache_hit: false,
            ms: 0,
            engine: Some(Engine::Vm),
            reuse: None,
        }
    }

    /// The response to one run on `engine`: its value or trap, output
    /// and resource counters. The caller sets `cache_hit`, `ms` and
    /// `reuse`.
    #[must_use]
    pub fn from_execution(id: String, run: Execution, engine: Engine) -> Response {
        let stats = run.resource_stats;
        Response {
            id,
            outcome: match run.outcome {
                Ok(value) => Outcome::Ok(value),
                Err(e) => Outcome::Trap {
                    code: e.code().to_string(),
                    message: e.to_string(),
                },
            },
            output: run.output,
            fuel_used: stats.fuel_used,
            mem_used: stats.mem_used,
            live_bytes: stats.live_bytes,
            peak_bytes: stats.peak_bytes,
            collections: stats.collections,
            cache_hit: false,
            ms: 0,
            engine: Some(engine),
            reuse: None,
        }
    }

    /// Serializes the response as one JSON line (no trailing newline).
    /// Key order is fixed — `id, outcome, [value | code, message |
    /// message], output, fuel_used, mem_used, live_bytes, peak_bytes,
    /// collections, cache, ms, engine[, extended, reused, rechecked]` — so
    /// a given response always renders to the same bytes. The trailing
    /// reuse counters appear only on sessionful responses.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(128);
        s.push_str("{\"id\":");
        json::write_escaped(&mut s, &self.id);
        match &self.outcome {
            Outcome::Ok(value) => {
                s.push_str(",\"outcome\":\"ok\",\"value\":");
                json::write_escaped(&mut s, value);
            }
            Outcome::Trap { code, message } => {
                s.push_str(",\"outcome\":\"trap\",\"code\":");
                json::write_escaped(&mut s, code);
                s.push_str(",\"message\":");
                json::write_escaped(&mut s, message);
            }
            Outcome::Error(message) => {
                s.push_str(",\"outcome\":\"error\",\"message\":");
                json::write_escaped(&mut s, message);
            }
        }
        s.push_str(",\"output\":");
        json::write_escaped(&mut s, &self.output);
        s.push_str(&format!(
            ",\"fuel_used\":{},\"mem_used\":{},\"live_bytes\":{},\"peak_bytes\":{},\"collections\":{},\"cache\":\"{}\",\"ms\":{},\"engine\":\"{}\"",
            self.fuel_used,
            self.mem_used,
            self.live_bytes,
            self.peak_bytes,
            self.collections,
            if self.cache_hit { "hit" } else { "miss" },
            self.ms,
            self.engine.map_or("auto", Engine::name)
        ));
        if let Some(r) = &self.reuse {
            s.push_str(&format!(
                ",\"extended\":{},\"reused\":{},\"rechecked\":{}",
                r.extended, r.reused, r.rechecked
            ));
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_minimal_request() {
        let r = Request::parse(
            r#"{"id": "a", "source": "int main() { return 1; }"}"#,
            &Limits::default(),
        )
        .unwrap();
        assert_eq!(r.id, "a");
        assert_eq!(r.engine, Some(Engine::Vm));
        assert_eq!(r.opt_level, 2);
        assert!(
            r.stdlib.unwrap_or(true),
            "stdlib is on by default, like `genus run`"
        );
        assert_eq!(r.limits, Limits::default());
    }

    #[test]
    fn parse_full_request_overrides_defaults() {
        let defaults = Limits {
            fuel: Some(10),
            memory: Some(20),
            deadline_ms: Some(30),
        };
        let r = Request::parse(
            r#"{"id": 7, "source": "x", "engine": "ast", "opt": 1,
               "stdlib": false, "fuel": 99, "deadline_ms": 500}"#,
            &defaults,
        )
        .unwrap();
        assert_eq!(r.id, "7");
        assert_eq!(r.engine, Some(Engine::Ast));
        assert_eq!(r.opt_level, 2, "level 1 runs the whole pipeline, as 2");
        assert!(
            !r.stdlib.unwrap_or(true),
            "explicit `stdlib: false` overrides the default"
        );
        assert_eq!(r.limits.fuel, Some(99));
        assert_eq!(r.limits.memory, Some(20), "untouched fields keep defaults");
        assert_eq!(r.limits.deadline_ms, Some(500));
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        let d = Limits::default();
        assert!(Request::parse("not json", &d).is_err());
        assert!(Request::parse(r#"{"source": "x"}"#, &d).is_err());
        assert!(Request::parse(r#"{"id": "a"}"#, &d).is_err());
        assert!(Request::parse(r#"{"id": "a", "source": "x", "engine": "llvm"}"#, &d).is_err());
        assert!(Request::parse(r#"{"id": "a", "source": "x", "fuel": -1}"#, &d).is_err());
    }

    #[test]
    fn parse_sessionful_requests() {
        let d = Limits::default();
        let r = Request::parse(
            r#"{"id": "u1", "session": "dev", "action": "update",
               "file": "util.genus", "source": "class U { U() { } }"}"#,
            &d,
        )
        .unwrap();
        assert_eq!(r.session.as_deref(), Some("dev"));
        assert_eq!(r.action, Action::Update);
        assert_eq!(r.file, "util.genus");
        // check/run may omit the source entirely.
        let r = Request::parse(r#"{"id": "c1", "session": "dev", "action": "check"}"#, &d).unwrap();
        assert_eq!(r.action, Action::Check);
        assert_eq!(r.source, "");
        assert_eq!(r.file, "main.genus", "default unit name");
        // ... but stateless requests still require it.
        assert!(Request::parse(r#"{"id": "x", "action": "run"}"#, &d).is_err());
        // An action other than run without a session is malformed.
        assert!(Request::parse(r#"{"id": "x", "source": "s", "action": "check"}"#, &d).is_err());
        // Updates must carry text.
        assert!(
            Request::parse(r#"{"id": "x", "session": "dev", "action": "update"}"#, &d).is_err()
        );
        assert!(Request::parse(r#"{"id": "x", "session": "", "action": "check"}"#, &d).is_err());
        assert!(
            Request::parse(r#"{"id": "x", "session": "dev", "action": "compile"}"#, &d).is_err()
        );
    }

    #[test]
    fn parse_metrics_request() {
        let d = Limits::default();
        // Neither session nor source required.
        let r = Request::parse(r#"{"id": "m1", "action": "metrics"}"#, &d).unwrap();
        assert_eq!(r.action, Action::Metrics);
        assert_eq!(r.source, "");
        assert!(r.session.is_none());
        assert_eq!(Action::from_name("metrics"), Some(Action::Metrics));
        assert_eq!(Action::Metrics.name(), "metrics");
    }

    #[test]
    fn session_responses_append_reuse_counters() {
        let mut r = Response::error("e1", "boom");
        assert!(!r.to_json_line().contains("reused"));
        r.reuse = Some(SessionReuse {
            extended: 1,
            reused: 5,
            rechecked: 1,
        });
        let line = r.to_json_line();
        assert!(line.ends_with(",\"reused\":5,\"rechecked\":1}"), "{line}");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("reused").and_then(Json::as_num), Some(5.0));
        assert_eq!(v.get("rechecked").and_then(Json::as_num), Some(1.0));
        assert_eq!(v.get("extended").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn response_lines_are_deterministic_and_parse_back() {
        let r = Response {
            id: "r1".to_string(),
            outcome: Outcome::Trap {
                code: "R0009".to_string(),
                message: "fuel budget of 10 steps exhausted".to_string(),
            },
            output: "line\n".to_string(),
            fuel_used: 11,
            mem_used: 0,
            live_bytes: 0,
            peak_bytes: 0,
            collections: 0,
            cache_hit: true,
            ms: 3,
            engine: Some(Engine::Vm),
            reuse: None,
        };
        let line = r.to_json_line();
        assert_eq!(line, r.to_json_line(), "serialization is deterministic");
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_str), Some("r1"));
        assert_eq!(v.get("outcome").and_then(Json::as_str), Some("trap"));
        assert_eq!(v.get("code").and_then(Json::as_str), Some("R0009"));
        assert_eq!(v.get("cache").and_then(Json::as_str), Some("hit"));
        assert_eq!(v.get("fuel_used").and_then(Json::as_num), Some(11.0));
        assert_eq!(v.get("output").and_then(Json::as_str), Some("line\n"));
    }
}
