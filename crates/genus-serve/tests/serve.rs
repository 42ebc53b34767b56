//! Integration tests for the execution service: cache coherence under
//! concurrency, batch scheduling determinism, resource governance, and
//! both session transports (in-memory pipe and TCP).

use genus_serve::{Engine, Outcome, Request, ServeConfig, Server};
use std::io::{BufRead, BufReader, Cursor, Write};
use std::sync::Arc;

const LOOP_FOREVER: &str = "int main() { while (true) {} return 0; }";

fn server(workers: usize) -> Server {
    Server::new(ServeConfig {
        workers,
        ..ServeConfig::default()
    })
}

fn fueled(id: &str, source: &str, fuel: u64) -> Request {
    let mut req = Request::new(id, source);
    req.limits.fuel = Some(fuel);
    req
}

/// N threads submitting the same source must trigger exactly one compile
/// (miss counter == 1) and byte-identical outputs.
#[test]
fn concurrent_same_source_compiles_once() {
    let server = Arc::new(server(8));
    let src = r#"int main() {
        int s = 0;
        for (int i = 0; i < 100; i = i + 1) { s = s + i; }
        println("sum " + s);
        return s;
    }"#;
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let rx = server.submit(fueled(&format!("t{i}"), src, 1_000_000));
                rx.recv().unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for resp in &responses {
        assert_eq!(
            resp.outcome,
            Outcome::Ok("4950".to_string()),
            "{}",
            resp.to_json_line()
        );
        assert_eq!(
            resp.output, responses[0].output,
            "outputs must be identical"
        );
        assert_eq!(resp.output, "sum 4950\n");
    }
    let stats = server.cache_stats();
    assert_eq!(stats.misses, 1, "exactly one cache miss for one source");
    assert_eq!(stats.compiles, 1, "exactly one compile for one source");
    assert_eq!(stats.hits, 7);
}

/// The acceptance batch: 100 requests over 10 distinct programs on 4
/// workers — exactly 10 compiles, responses in request order with
/// per-request output isolation, and re-running the batch is
/// byte-deterministic.
#[test]
fn hundred_request_batch_ten_programs_four_workers() {
    let server = server(4);
    let programs: Vec<String> = (0..10)
        .map(|p| {
            format!(
                r#"int main() {{
                    int acc = 0;
                    for (int i = 0; i < {n}; i = i + 1) {{ acc = acc + i * {p}; }}
                    println("program {p} -> " + acc);
                    return acc;
                }}"#,
                n = 10 + p,
                p = p
            )
        })
        .collect();
    let batch = |tag: &str| -> Vec<String> {
        let requests: Vec<Request> = (0..100)
            .map(|i| fueled(&format!("{tag}-{i}"), &programs[i % 10], 1_000_000))
            .collect();
        let responses = server.run_batch(requests);
        assert_eq!(responses.len(), 100);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, format!("{tag}-{i}"), "responses in request order");
            assert!(
                matches!(resp.outcome, Outcome::Ok(_)),
                "{}",
                resp.to_json_line()
            );
            assert!(
                resp.output.starts_with(&format!("program {} -> ", i % 10)),
                "output isolation broken: {}",
                resp.output
            );
            assert_eq!(
                resp.output.lines().count(),
                1,
                "no interleaved output: {:?}",
                resp.output
            );
        }
        responses.iter().map(|r| r.output.clone()).collect()
    };
    let first = batch("a");
    assert_eq!(server.cache_stats().compiles, 10, "exactly 10 compiles");
    let second = batch("b");
    assert_eq!(first, second, "batch outputs are deterministic");
    assert_eq!(
        server.cache_stats().compiles,
        10,
        "second batch is all cache hits"
    );
    assert_eq!(server.cache_stats().hits, 190);
    server.shutdown();
}

/// N threads racing `engine: "jit"` submissions of the same source must
/// trigger exactly one compile AND exactly one tier compile (the cache
/// entry's `OnceLock` is the synchronization point), with identical
/// results on every response.
#[test]
fn racing_jit_submissions_tier_compile_exactly_once() {
    let server = Arc::new(server(8));
    let src = r#"int main() {
        int s = 0;
        for (int i = 0; i < 200; i = i + 1) { s = s + i * i; }
        println("sq " + s);
        return s;
    }"#;
    let handles: Vec<_> = (0..16)
        .map(|i| {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                let mut req = fueled(&format!("j{i}"), src, 1_000_000);
                req.engine = Some(Engine::Jit);
                server.submit(req).recv().unwrap()
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for resp in &responses {
        assert!(
            matches!(resp.outcome, Outcome::Ok(_)),
            "{}",
            resp.to_json_line()
        );
        assert_eq!(resp.engine, Some(Engine::Jit));
        assert_eq!(resp.output, responses[0].output);
        assert_eq!(
            resp.fuel_used, responses[0].fuel_used,
            "tier runs meter identically"
        );
    }
    let stats = server.cache_stats();
    assert_eq!(stats.compiles, 1, "one source, one compile");
    assert_eq!(stats.tier_compiles, 1, "one source, one tier compile");
}

/// `engine: "auto"` requests climb the tiers as the cache entry gets
/// hot: two runs on the AST interpreter, six on the VM, then Tier 2 —
/// with byte-identical results at every rung, the resolved engine
/// reported in the response, and exactly one tier compile.
#[test]
fn auto_requests_climb_the_tiers() {
    let server = server(1);
    let src = r#"int main() { println("t"); return 5; }"#;
    let mut engines = Vec::new();
    for i in 0..10 {
        let mut req = fueled(&format!("a{i}"), src, 1_000_000);
        req.engine = None;
        let resp = server.run_batch(vec![req]).remove(0);
        assert_eq!(
            resp.outcome,
            Outcome::Ok("5".to_string()),
            "{}",
            resp.to_json_line()
        );
        assert_eq!(resp.output, "t\n");
        engines.push(resp.engine);
    }
    let mut want = vec![Some(Engine::Ast); 2];
    want.extend([Some(Engine::Vm); 6]);
    want.extend([Some(Engine::Jit); 2]);
    assert_eq!(engines, want, "promotion ladder ast -> vm -> jit");
    assert_eq!(server.cache_stats().tier_compiles, 1);
    server.shutdown();
}

/// An infinite loop must trap `R0009` on every engine instead of hanging
/// the server.
#[test]
fn infinite_loop_returns_fuel_trap_on_both_engines() {
    let server = server(2);
    for engine in [Engine::Ast, Engine::Vm, Engine::Jit] {
        let mut req = fueled(engine.name(), LOOP_FOREVER, 100_000);
        req.engine = Some(engine);
        let resp = &server.run_batch(vec![req])[0];
        match &resp.outcome {
            Outcome::Trap { code, .. } => {
                assert_eq!(code, "R0009", "{engine:?}: {}", resp.to_json_line());
            }
            other => panic!("{engine:?} should trap on fuel, got {other:?}"),
        }
        assert!(
            resp.fuel_used > 100_000,
            "{engine:?} fuel_used should pass the budget"
        );
    }
    server.shutdown();
}

/// An infinite loop under only a wall-clock deadline (no fuel budget)
/// must come back `R0009` within its deadline instead of hanging.
#[test]
fn infinite_loop_respects_deadline() {
    let server = server(1);
    let mut req = Request::new("dl", LOOP_FOREVER);
    req.limits.deadline_ms = Some(200);
    let start = std::time::Instant::now();
    let resp = &server.run_batch(vec![req])[0];
    let elapsed = start.elapsed();
    match &resp.outcome {
        Outcome::Trap { code, message } => {
            assert_eq!(code, "R0009");
            assert!(message.contains("deadline"), "{message}");
        }
        other => panic!("expected deadline trap, got {other:?}"),
    }
    assert!(
        elapsed.as_millis() < 5_000,
        "deadline ignored: took {elapsed:?}"
    );
    server.shutdown();
}

/// A request already past its deadline when a worker picks it up is
/// rejected by the scheduler with the same `R0009` trap.
#[test]
fn queued_past_deadline_requests_are_rejected() {
    // One worker, and the head job sleeps past the second job's deadline.
    let server = server(1);
    let mut blocker = Request::new("blocker", LOOP_FOREVER);
    blocker.limits.deadline_ms = Some(300);
    let mut starved = Request::new("starved", "int main() { return 1; }");
    starved.limits.deadline_ms = Some(50);
    let responses = server.run_batch(vec![blocker, starved]);
    match &responses[1].outcome {
        Outcome::Trap { code, .. } => assert_eq!(code, "R0009"),
        other => panic!("starved request should be rejected, got {other:?}"),
    }
    assert_eq!(responses[1].fuel_used, 0, "rejected before running");
    server.shutdown();
}

/// The heap cap traps `R0010` on both engines.
#[test]
fn memory_limit_traps_r0010_on_both_engines() {
    let server = server(2);
    let src = r#"int main() {
        int i = 0;
        while (true) { int[] a = new int[1024]; i = i + 1; }
        return i;
    }"#;
    for engine in [Engine::Ast, Engine::Vm, Engine::Jit] {
        let mut req = Request::new(engine.name(), src);
        req.engine = Some(engine);
        req.limits.memory = Some(100_000);
        let resp = &server.run_batch(vec![req])[0];
        match &resp.outcome {
            Outcome::Trap { code, .. } => {
                assert_eq!(code, "R0010", "{engine:?}: {}", resp.to_json_line());
            }
            other => panic!("{engine:?} should trap on memory, got {other:?}"),
        }
        assert!(resp.mem_used > 100_000, "{engine:?} mem_used past the cap");
    }
    server.shutdown();
}

/// Full JSON-lines session over an in-memory pipe: mixed good, trapping,
/// failing, and malformed requests — one ordered response line each.
#[test]
fn json_lines_session_end_to_end() {
    let server = server(4);
    let input = [
        r#"{"id": "ok", "source": "int main() { println(\"hi\"); return 7; }", "fuel": 100000}"#,
        r#"{"id": "burn", "source": "int main() { while (true) {} return 0; }", "fuel": 50000}"#,
        r#"{"id": "bad-compile", "source": "int main() { return nope; }"}"#,
        "this is not json",
        r#"{"id": "ast", "source": "int main() { return 3; }", "engine": "ast", "fuel": 100000}"#,
    ]
    .join("\n");
    let mut out = Vec::new();
    let handled = server
        .run_session(Cursor::new(input), &mut out)
        .expect("session I/O");
    assert_eq!(handled, 5);
    let lines: Vec<String> = out.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 5, "exactly one response line per request");
    let parsed: Vec<genus_common::json::Json> = lines
        .iter()
        .map(|l| genus_common::json::parse(l).expect("valid response JSON"))
        .collect();
    let field = |i: usize, k: &str| -> String {
        parsed[i]
            .get(k)
            .and_then(|v| v.as_str())
            .unwrap_or_default()
            .to_string()
    };
    // In request order:
    assert_eq!(field(0, "id"), "ok");
    assert_eq!(field(0, "outcome"), "ok");
    assert_eq!(field(0, "value"), "7");
    assert_eq!(field(0, "output"), "hi\n");
    assert_eq!(field(1, "id"), "burn");
    assert_eq!(field(1, "outcome"), "trap");
    assert_eq!(field(1, "code"), "R0009");
    assert_eq!(field(2, "id"), "bad-compile");
    assert_eq!(field(2, "outcome"), "error");
    assert_eq!(field(3, "outcome"), "error");
    assert_eq!(field(4, "id"), "ast");
    assert_eq!(field(4, "engine"), "ast");
    assert_eq!(field(4, "value"), "3");
    server.shutdown();
}

/// The same protocol over a real TCP connection.
#[test]
fn tcp_session_round_trip() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(server(2));
    {
        let server = Arc::clone(&server);
        // The accept loop runs until the test process exits.
        std::thread::spawn(move || {
            let _ = server.serve_tcp(&listener);
        });
    }
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.write_all(
        concat!(
            r#"{"id": "a", "source": "int main() { return 11; }", "fuel": 100000}"#,
            "\n",
            r#"{"id": "b", "source": "int main() { while (true) {} return 0; }", "fuel": 9000}"#,
            "\n",
        )
        .as_bytes(),
    )
    .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let reader = BufReader::new(&conn);
    let lines: Vec<String> = reader.lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 2);
    assert!(lines[0].contains(r#""id":"a""#) && lines[0].contains(r#""value":"11""#));
    assert!(lines[1].contains(r#""id":"b""#) && lines[1].contains(r#""code":"R0009""#));
}

/// A request line nesting a million JSON arrays is a `bad request` reply
/// on its TCP connection (whose thread has the default stack) that
/// echoes the line's leading id, and the next request on the same
/// connection is still answered.
#[test]
fn deeply_nested_json_is_a_bad_request_reply() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().unwrap();
    let server = Arc::new(server(1));
    {
        let server = Arc::clone(&server);
        std::thread::spawn(move || {
            let _ = server.serve_tcp(&listener);
        });
    }
    let n = 1_000_000;
    let deep = format!(
        r#"{{"id":"a","source":"int main() {{ return 1; }}","x":{}1{}}}"#,
        "[".repeat(n),
        "]".repeat(n)
    );
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    conn.write_all(format!("{deep}\n").as_bytes()).unwrap();
    conn.write_all(b"{\"id\": \"next\", \"source\": \"int main() { return 7; }\"}\n")
        .unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    let lines: Vec<String> = BufReader::new(&conn).lines().map(|l| l.unwrap()).collect();
    assert_eq!(lines.len(), 2, "{lines:?}");
    assert!(
        lines[0].contains(r#""id":"a""#)
            && lines[0].contains(r#""outcome":"error""#)
            && lines[0].contains("bad request: nesting"),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains(r#""id":"next""#) && lines[1].contains(r#""value":"7""#),
        "{}",
        lines[1]
    );
}

/// `{"action":"metrics"}` is part of the wire protocol: it needs no
/// source, is answered synchronously, and its value is the full metrics
/// JSON — request counters, engine mix, cache counters, pool health, and
/// the latency histogram.
#[test]
fn metrics_action_reports_counters_and_histogram() {
    let server = server(2);
    let ok = server.run_batch(vec![fueled("m-ok", "int main() { return 4; }", 100_000)]);
    assert!(matches!(ok[0].outcome, Outcome::Ok(_)));
    let trap = server.run_batch(vec![fueled("m-trap", LOOP_FOREVER, 10_000)]);
    assert!(matches!(trap[0].outcome, Outcome::Trap { .. }));
    let input = r#"{"id": "m1", "action": "metrics"}"#.to_string();
    let mut out = Vec::new();
    server
        .run_session(Cursor::new(input), &mut out)
        .expect("session I/O");
    let line = String::from_utf8(out).unwrap();
    let resp = genus_common::json::parse(line.trim()).expect("response JSON");
    assert_eq!(resp.get("id").and_then(|v| v.as_str()), Some("m1"));
    assert_eq!(resp.get("outcome").and_then(|v| v.as_str()), Some("ok"));
    let payload = resp.get("value").and_then(|v| v.as_str()).expect("value");
    let m = genus_common::json::parse(payload).expect("metrics JSON");
    let num = |path: &[&str]| -> f64 {
        let mut cur = &m;
        for p in path {
            cur = cur.get(p).unwrap_or_else(|| panic!("missing {p}"));
        }
        cur.as_num().unwrap()
    };
    assert_eq!(num(&["requests"]), 2.0, "metrics itself is not counted");
    assert_eq!(num(&["ok"]), 1.0);
    assert_eq!(num(&["trap"]), 1.0);
    assert_eq!(num(&["engines", "vm"]), 2.0);
    assert_eq!(num(&["cache", "compiles"]), 2.0);
    assert_eq!(num(&["cache", "entries"]), 2.0);
    assert_eq!(num(&["pool", "workers"]), 2.0);
    assert_eq!(num(&["pool", "panics"]), 0.0);
    assert_eq!(num(&["latency", "count"]), 2.0);
    assert!(num(&["latency", "p99_us"]) > 0.0);
    assert!(num(&["fuel_total"]) > 10_000.0);
    server.shutdown();
}

/// Every in-process compile is counted on exactly one miss path: a
/// request extends the shared stdlib base, body errors included, unless
/// it declares something that could change a stdlib verdict (here a
/// model for a prelude constraint), which takes the full build. Hits
/// count on neither. The `metrics` action reports both.
#[test]
fn miss_paths_are_counted_and_reported() {
    let server = server(2);
    let reversed = "model Rev for Comparable[int] {\n\
                      boolean equals(int that) { return this == that; }\n\
                      int compareTo(int that) { return that - this; }\n\
                    }\n\
                    int main() { return 1; }";
    let reqs = vec![
        fueled(
            "clean",
            "int main() { ArrayList[int] l = new ArrayList[int](); l.add(5); return l.get(0); }",
            100_000,
        ),
        fueled(
            "clean-again",
            "int main() { ArrayList[int] l = new ArrayList[int](); l.add(5); return l.get(0); }",
            100_000,
        ),
        fueled("prelude-model", reversed, 100_000),
        fueled("bad", "int main() { return nope; }", 100_000),
    ];
    let out = server.run_batch(reqs);
    assert_eq!(out[0].outcome, Outcome::Ok("5".to_string()));
    assert_eq!(out[2].outcome, Outcome::Ok("1".to_string()));
    assert!(matches!(out[3].outcome, Outcome::Error(_)));
    let s = server.cache_stats();
    assert_eq!((s.misses, s.hits), (3, 1));
    assert_eq!((s.base_extends, s.full_checks), (2, 1));
    assert_eq!(s.compiles, s.base_extends + s.full_checks);
    let m = genus_common::json::parse(&server.metrics_json()).expect("metrics JSON");
    let cache = m.get("cache").expect("cache section");
    assert_eq!(
        cache.get("base_extends").and_then(|v| v.as_num()),
        Some(2.0)
    );
    assert_eq!(cache.get("full_checks").and_then(|v| v.as_num()), Some(1.0));
    server.shutdown();
}

/// The restart-warm path end to end: a server with a `--cache-dir`
/// persists its compiles; a **new** server over the same directory
/// answers from disk — zero in-process compiles, `disk_hits > 0`, and
/// byte-identical response payloads (ids and timings aside).
#[test]
fn restart_with_cache_dir_serves_from_disk_byte_identically() {
    let dir = std::env::temp_dir().join(format!("genus-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        workers: 2,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let src = r#"int main() {
        int s = 0;
        for (int i = 0; i < 50; i = i + 1) { s = s + i * i; }
        println("warm " + s);
        return s;
    }"#;
    let cold_line;
    {
        let server = Server::new(config());
        let resp = server
            .run_batch(vec![fueled("cold", src, 1_000_000)])
            .remove(0);
        assert!(
            matches!(resp.outcome, Outcome::Ok(_)),
            "{}",
            resp.to_json_line()
        );
        cold_line = resp.to_json_line();
        let s = server.cache_stats();
        assert_eq!((s.compiles, s.disk_hits), (1, 0));
        assert_eq!(s.disk_writes, 1, "the compile was persisted");
        server.shutdown();
    }
    // "Restart": a fresh process image over the same artifact directory.
    let server = Server::new(config());
    let resp = server
        .run_batch(vec![fueled("cold", src, 1_000_000)])
        .remove(0);
    let warm_line = resp.to_json_line();
    let s = server.cache_stats();
    assert_eq!(s.compiles, 0, "no in-process compile after restart");
    assert_eq!(s.disk_hits, 1);
    // Everything observable matches except wall-clock ms: same value,
    // output, fuel, heap accounting, engine.
    let strip_ms = |line: &str| {
        let v = genus_common::json::parse(line).unwrap();
        [
            "outcome",
            "value",
            "output",
            "fuel_used",
            "mem_used",
            "live_bytes",
            "peak_bytes",
            "collections",
            "engine",
        ]
        .iter()
        .map(|k| format!("{k}={:?}", v.get(k)))
        .collect::<Vec<_>>()
        .join(",")
    };
    assert_eq!(strip_ms(&cold_line), strip_ms(&warm_line));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Poisoned artifacts are misses, never panics or wrong results: a
/// truncated file and a bit-flipped file both force a clean recompile
/// that overwrites the bad artifact.
#[test]
fn poisoned_cache_dir_recompiles_cleanly() {
    let dir = std::env::temp_dir().join(format!("genus-serve-poison-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = || ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let src = "int main() { return 123; }";
    {
        let server = Server::new(config());
        server.run_batch(vec![fueled("seed", src, 100_000)]);
        server.shutdown();
    }
    let artifact = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "gbc"))
        .expect("one artifact on disk");
    for poison in ["truncate", "flip"] {
        let good = std::fs::read(&artifact).unwrap();
        let bad = match poison {
            "truncate" => good[..good.len() / 2].to_vec(),
            _ => {
                let mut b = good.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0xFF;
                b
            }
        };
        std::fs::write(&artifact, &bad).unwrap();
        let server = Server::new(config());
        let resp = server
            .run_batch(vec![fueled(poison, src, 100_000)])
            .remove(0);
        assert_eq!(
            resp.outcome,
            Outcome::Ok("123".to_string()),
            "{poison}: {}",
            resp.to_json_line()
        );
        let s = server.cache_stats();
        assert_eq!(
            (s.disk_hits, s.compiles),
            (0, 1),
            "{poison} forces recompile"
        );
        assert_eq!(s.disk_writes, 1, "{poison}d artifact is overwritten");
        server.shutdown();
    }
    // The overwritten artifact is good again.
    let server = Server::new(config());
    server.run_batch(vec![fueled("healed", src, 100_000)]);
    assert_eq!(server.cache_stats().disk_hits, 1);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk-loaded entries run on every engine with results identical to
/// in-process compiles — including the AST engine, which transparently
/// full-compiles (disk artifacts carry no HIR bodies) — and `auto`
/// starts them on the VM rung instead of paying that compile.
#[test]
fn disk_loaded_programs_match_in_process_compiles_on_every_engine() {
    let dir = std::env::temp_dir().join(format!("genus-serve-parity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let src = r#"int main() {
        int acc = 1;
        for (int i = 1; i < 10; i = i + 1) { acc = acc * i; }
        println("f " + acc);
        return acc;
    }"#;
    let fresh = server(1);
    {
        let seed = Server::new(ServeConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        seed.run_batch(vec![fueled("seed", src, 1_000_000)]);
        seed.shutdown();
    }
    let warm = Server::new(ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    for engine in [Engine::Vm, Engine::Jit, Engine::Ast] {
        let mut a = fueled(&format!("f-{}", engine.name()), src, 1_000_000);
        let mut b = a.clone();
        b.id = format!("w-{}", engine.name());
        a.engine = Some(engine);
        b.engine = Some(engine);
        let ra = fresh.run_batch(vec![a]).remove(0);
        let rb = warm.run_batch(vec![b]).remove(0);
        assert_eq!(ra.outcome, rb.outcome, "{engine:?}");
        assert_eq!(ra.output, rb.output, "{engine:?}");
        assert_eq!(ra.fuel_used, rb.fuel_used, "{engine:?}");
        assert_eq!(ra.mem_used, rb.mem_used, "{engine:?}");
    }
    assert_eq!(warm.cache_stats().disk_hits, 1);
    // Auto on a disk-loaded entry skips the AST rung: first invocation
    // already reports vm.
    let mut auto_req = fueled("auto-disk", src, 1_000_000);
    auto_req.engine = None;
    // (invocations so far: 3 from the parity loop — above default
    // `VM_THRESHOLD` anyway; use a second source to test the cold case.)
    let src2 = "int main() { return 77; }";
    {
        let seed = Server::new(ServeConfig {
            workers: 1,
            cache_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        seed.run_batch(vec![fueled("seed2", src2, 100_000)]);
        seed.shutdown();
    }
    let warm2 = Server::new(ServeConfig {
        workers: 1,
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut cold_auto = fueled("auto-cold", src2, 100_000);
    cold_auto.engine = None;
    let resp = warm2.run_batch(vec![cold_auto]).remove(0);
    assert_eq!(
        resp.engine,
        Some(Engine::Vm),
        "auto's first run on a disk entry starts at the VM rung"
    );
    assert_eq!(resp.outcome, Outcome::Ok("77".to_string()));
    fresh.shutdown();
    warm.shutdown();
    warm2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Engine parity on the response surface: the same fueled program traps
/// with the same code and fuel accounting story on AST and VM, and at
/// O0 vs O2.
#[test]
fn fuel_trap_parity_across_engines_and_levels() {
    let server = server(2);
    let mut responses = Vec::new();
    for (engine, opt) in [
        (Engine::Ast, 0),
        (Engine::Vm, 0),
        (Engine::Vm, 2),
        (Engine::Jit, 0),
        (Engine::Jit, 2),
    ] {
        let mut req = fueled(&format!("{}-{opt}", engine.name()), LOOP_FOREVER, 10_000);
        req.engine = Some(engine);
        req.opt_level = opt;
        responses.push(server.run_batch(vec![req]).remove(0));
    }
    for resp in &responses {
        match &resp.outcome {
            Outcome::Trap { code, .. } => assert_eq!(code, "R0009", "{}", resp.to_json_line()),
            other => panic!("expected fuel trap, got {other:?}"),
        }
        assert!(resp.output.is_empty());
    }
    server.shutdown();
}

/// A request nested far past the parser's limit gets an `E0102` error
/// reply instead of taking the worker down, and the next request on the
/// same worker is answered.
#[test]
fn deeply_nested_request_is_an_error_reply() {
    let server = server(1);
    let deep = format!(
        "int main() {{ return {}1{}; }}",
        "(".repeat(100_000),
        ")".repeat(100_000)
    );
    let r = server.submit(Request::new("deep", &deep)).recv().unwrap();
    let Outcome::Error(message) = &r.outcome else {
        panic!("expected a compile error: {}", r.to_json_line());
    };
    assert!(message.contains("E0102"), "{message}");
    let r = server
        .submit(Request::new("next", "int main() { return 7; }"))
        .recv()
        .unwrap();
    assert_eq!(r.outcome, Outcome::Ok("7".to_string()));
}

/// A reply line with its wall-clock `ms` field set to 0, so the rest of
/// the line can be compared byte for byte.
fn zero_ms(line: &str) -> String {
    let key = "\"ms\":";
    let Some(at) = line.find(key) else {
        return line.to_string();
    };
    let digits = at + key.len();
    let end = digits
        + line[digits..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(line.len() - digits);
    format!("{}0{}", &line[..digits], &line[end..])
}

/// The exact reply bytes (with `ms` zeroed) of every kind of reply the
/// wire protocol has: a malformed line, an `auto` request that fails to
/// compile, a sessionful `check` error, a sessionful `run` on each
/// engine, and a stateless `run` on each engine. Error replies name the
/// engine the request asked for (`vm` when the line did not parse).
#[test]
fn reply_bytes_are_pinned_for_every_kind_of_request() {
    let server = server(1);
    let ok = r#"int main() { println(\"hi\"); return 6 * 7; }"#;
    let bad = "int main() { return nope; }";
    let mut input = vec![
        "this is not json".to_string(),
        format!(r#"{{"id":"auto-err","source":"{bad}","engine":"auto","stdlib":false}}"#),
        format!(
            r#"{{"id":"s-err","session":"w","action":"check","stdlib":false,"source":"{bad}"}}"#
        ),
        format!(r#"{{"id":"s-up","session":"w","action":"update","source":"{ok}"}}"#),
    ];
    for engine in ["ast", "vm", "jit", "vm", "jit", "auto"] {
        input.push(format!(
            r#"{{"id":"s-{engine}","session":"w","action":"run","engine":"{engine}"}}"#
        ));
    }
    for engine in ["ast", "vm", "jit", "auto"] {
        input.push(format!(
            r#"{{"id":"{engine}","source":"{ok}","engine":"{engine}","stdlib":false}}"#
        ));
    }
    let mut out = Vec::new();
    server
        .run_session(Cursor::new(input.join("\n")), &mut out)
        .expect("session I/O");
    server.shutdown();
    let got: Vec<String> = out.lines().map(|l| zero_ms(&l.unwrap())).collect();
    let want: Vec<&str> = WIRE_REPLIES.lines().collect();
    for (i, (got, want)) in got.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "reply {i}");
    }
    assert_eq!(got.len(), input.len(), "one reply per request");
}

/// The replies `reply_bytes_are_pinned_for_every_kind_of_request` expects,
/// one line per request, in request order.
const WIRE_REPLIES: &str = r#"{"id":"","outcome":"error","message":"bad request: invalid literal at byte 0","output":"","fuel_used":0,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"vm"}
{"id":"auto-err","outcome":"error","message":"request.genus:1:21: error[E0501]: type mismatch: expected `int`, found `null`\nrequest.genus:1:21: error[E0502]: unknown variable `nope`","output":"","fuel_used":0,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"auto"}
{"id":"s-err","outcome":"error","message":"main.genus:1:21: error[E0501]: type mismatch: expected `int`, found `null`\nmain.genus:1:21: error[E0502]: unknown variable `nope`","output":"","fuel_used":0,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"vm","extended":1,"reused":1,"rechecked":1}
{"id":"s-up","outcome":"ok","value":"updated","output":"","fuel_used":0,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"vm"}
{"id":"s-ast","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"ast","extended":0,"reused":1,"rechecked":1}
{"id":"s-vm","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"vm","extended":0,"reused":2,"rechecked":0}
{"id":"s-jit","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"jit","extended":0,"reused":2,"rechecked":0}
{"id":"s-vm","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"hit","ms":0,"engine":"vm","extended":0,"reused":2,"rechecked":0}
{"id":"s-jit","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"hit","ms":0,"engine":"jit","extended":0,"reused":2,"rechecked":0}
{"id":"s-auto","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"hit","ms":0,"engine":"vm","extended":0,"reused":2,"rechecked":0}
{"id":"ast","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"miss","ms":0,"engine":"ast"}
{"id":"vm","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"hit","ms":0,"engine":"vm"}
{"id":"jit","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"hit","ms":0,"engine":"jit"}
{"id":"auto","outcome":"ok","value":"42","output":"hi\n","fuel_used":7,"mem_used":0,"live_bytes":0,"peak_bytes":0,"collections":0,"cache":"hit","ms":0,"engine":"vm"}"#;
