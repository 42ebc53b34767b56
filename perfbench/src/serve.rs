//! `serve_mix`: `genus-serve` over its JSON-lines TCP protocol on
//! loopback, the socket-to-reply end to end.
//!
//! A closed loop of `nproc` clients against `nproc` workers. Each client
//! opens a connection, sends one request line, half-closes and reads the
//! reply, so at most `nproc` connections are open at once. (A session
//! writes a response only when it reads its next line or end of input,
//! so a client that waits for each reply before sending again cannot
//! keep one connection open.) Every request says `engine: "auto"`. The
//! seeded mix has three classes:
//!
//! - hot Table 1 sorts, which climb the promotion ladder to Tier 2;
//! - allocation-churn programs, which keep the collector busy;
//! - fresh generated programs from a pool four times the program-cache
//!   capacity, so misses, AST-rung runs and LRU evictions go on at a
//!   steady rate while resident memory stays flat.
//!
//! This is the only workload where the scheduler, the program cache,
//! the promotion ladder and the GC share a request path.

use crate::fresh::{self, FreshProg};
use crate::sys::{self, median, percentile, ratio};
use crate::table1::{self, Data, Kind};
use crate::trace::Tracer;
use genus_common::json::{self, Json};
use genus_common::SplitMix64;
use genus_serve::{ServeConfig, Server, DEFAULT_FUEL};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Program-cache capacity (`--cache-cap`): small enough that the fresh
/// pool overflows it many times over, large enough that every shard
/// keeps its hot entries resident.
pub const CACHE_CAPACITY: usize = 64;

/// Fresh programs per cycle, each requested once.
pub const FRESH: usize = 4 * CACHE_CAPACITY;

/// Requests per hot sort per cycle: the sorts are 65% of the mix, so the
/// median request is a hot sort, the class whose latency varies least,
/// and not the edge between two classes.
const SORT_REPEATS: usize = 96;

/// Requests per allocation-churn program per cycle.
const CHURN_REPEATS: usize = 24;

/// Elements per hot sort (a smaller Table 1 op).
const SORT_N: usize = 60;

/// The hot Table 1 configurations.
const HOT_SORTS: [(Kind, Data); 6] = [
    (Kind::NonGeneric, Data::Doubles),
    (Kind::Comparable, Data::Doubles),
    (Kind::ArrayLike, Data::Doubles),
    (Kind::NonGeneric, Data::List),
    (Kind::Comparable, Data::List),
    (Kind::ArrayLike, Data::List),
];

/// Allocation-churn programs per cycle.
const CHURN: usize = 2;
const CHURN_ROUNDS: i64 = 10;
const CHURN_LEN: i64 = 400;

/// Request classes, for the detail line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hot,
    Churn,
    Fresh,
}

/// What a response must say.
#[derive(Debug, Clone)]
pub enum Want {
    /// A numeric value (doubles render in Genus's own format).
    Number(f64),
    /// The outcome (value, or trap code) and the printed output.
    Exact {
        outcome: Result<String, String>,
        output: String,
    },
}

/// One distinct request of the mix.
pub struct Req {
    pub class: Class,
    /// The JSON line sent, newline included.
    pub line: String,
    pub want: Want,
}

pub struct Prep {
    pub reqs: Vec<Req>,
    /// The cycle: indexes into `reqs`, in seeded order.
    pub seq: Vec<usize>,
}

/// A request line with a fuel budget and, optionally, an allocation cap.
fn request_line(id: usize, src: &str, fuel: u64, memory: Option<u64>) -> String {
    let memory = memory.map_or_else(String::new, |m| format!(",\"memory\":{m}"));
    format!(
        "{{\"id\":\"{id}\",\"source\":{},\"engine\":\"auto\",\"fuel\":{fuel}{memory}}}\n",
        json::escape(src)
    )
}

/// A linked-list churn program and its value, computed in Rust.
fn churn(k: i64) -> (String, i64) {
    let src = format!(
        "class Node {{
    int v;
    Node next;
    Node(int v, Node next) {{ this.v = v; this.next = next; }}
}}
int main() {{
    int total = 0;
    for (int r = 0; r < {CHURN_ROUNDS}; r = r + 1) {{
        Node h = null;
        for (int i = 0; i < {CHURN_LEN}; i = i + 1) {{ h = new Node((i * {k} + r) % 1000, h); }}
        int s = 0;
        while (h != null) {{ s = s + h.v; h = h.next; }}
        total = (total + s) % 1000003;
    }}
    return total;
}}
"
    );
    let mut total = 0i64;
    for r in 0..CHURN_ROUNDS {
        let s: i64 = (0..CHURN_LEN).map(|i| (i * k + r) % 1000).sum();
        total = (total + s) % 1_000_003;
    }
    (src, total)
}

pub fn prepare(seed: u64) -> Prep {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E);
    let input = table1::input(seed, SORT_N);
    let sum = table1::checksum(&input);
    let mut reqs = Vec::new();
    for (kind, data) in HOT_SORTS {
        reqs.push(Req {
            class: Class::Hot,
            line: request_line(
                reqs.len(),
                &table1::source(kind, data, &input),
                DEFAULT_FUEL,
                None,
            ),
            want: Want::Number(sum),
        });
    }
    for _ in 0..CHURN {
        let (src, value) = churn(1 + 2 * rng.below(499) as i64);
        reqs.push(Req {
            class: Class::Churn,
            line: request_line(reqs.len(), &src, DEFAULT_FUEL, None),
            want: Want::Exact {
                outcome: Ok(value.to_string()),
                output: String::new(),
            },
        });
    }
    let hot = reqs.len();
    for FreshProg { src, reference, .. } in fresh::pool(seed, FRESH, 0xF2E5) {
        reqs.push(Req {
            class: Class::Fresh,
            line: request_line(reqs.len(), &src, fresh::FUEL, Some(fresh::MEMORY)),
            want: Want::Exact {
                outcome: reference.outcome.map_err(|e| e.code().to_string()),
                output: reference.output,
            },
        });
    }
    let mut seq: Vec<usize> = (0..hot)
        .flat_map(|r| {
            let repeats = match reqs[r].class {
                Class::Hot => SORT_REPEATS,
                _ => CHURN_REPEATS,
            };
            std::iter::repeat_n(r, repeats)
        })
        .chain(hot..reqs.len())
        .collect();
    sys::shuffle(&mut seq, &mut rng);
    Prep { reqs, seq }
}

/// What a response said, reduced to what the benchmark checks and counts.
#[derive(Debug, Clone)]
pub struct Rec {
    pub req: usize,
    /// The cycle of the measured sequence the request belongs to.
    pub cycle: usize,
    pub ms: f64,
    pub traced: bool,
    pub ok: bool,
    pub hit: bool,
    pub engine: String,
    pub fuel: f64,
    pub mem: f64,
    pub collections: f64,
    pub peak: f64,
}

fn num(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_num).unwrap_or(0.0)
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key).and_then(Json::as_str).unwrap_or("")
}

impl Rec {
    /// A request that got no usable response: a connection error, or a
    /// reply that is not JSON.
    fn failed(req: usize, ms: f64, traced: bool) -> Rec {
        Rec {
            req,
            cycle: 0,
            ms,
            traced,
            ok: false,
            hit: false,
            engine: String::new(),
            fuel: 0.0,
            mem: 0.0,
            collections: 0.0,
            peak: 0.0,
        }
    }
}

/// Checks one response line against its reference.
fn judge(req: usize, want: &Want, line: &str, ms: f64, traced: bool) -> Rec {
    let parsed = json::parse(line.trim_end());
    let Ok(v) = parsed else {
        return Rec::failed(req, ms, traced);
    };
    let outcome = match text(&v, "outcome") {
        "ok" => Ok(text(&v, "value").to_string()),
        "trap" => Err(text(&v, "code").to_string()),
        other => Err(format!("error: {other}")),
    };
    let ok = match want {
        Want::Number(x) => matches!(&outcome, Ok(s) if s.parse::<f64>().ok() == Some(*x)),
        Want::Exact { outcome: o, output } => &outcome == o && text(&v, "output") == output,
    };
    Rec {
        req,
        cycle: 0,
        ms,
        traced,
        ok,
        hit: text(&v, "cache") == "hit",
        engine: text(&v, "engine").to_string(),
        fuel: num(&v, "fuel_used"),
        mem: num(&v, "mem_used"),
        collections: num(&v, "collections"),
        peak: num(&v, "peak_bytes"),
    }
}

/// A running server, listening on loopback.
pub struct Serve {
    prep: Arc<Prep>,
    server: Arc<Server>,
    listener: TcpListener,
    addr: SocketAddr,
    accept: JoinHandle<std::io::Result<()>>,
    /// Resident memory right after boot, before any program is cached.
    pub rss_empty_mib: f64,
    clients: usize,
}

/// The clients' shared position in the op sequence, the op index (a
/// whole number of cycles) at which they stop, and when each cycle's
/// first request was issued: (seconds since the drive began, process
/// CPU ns).
struct Loop {
    next: usize,
    stop_at: Option<usize>,
    marks: Vec<(f64, u64)>,
}

/// What one drive of the closed loop saw.
pub struct Driven {
    pub recs: Vec<Rec>,
    /// Per cycle: from its first request's issue to the next cycle's (or
    /// the drive's end), in seconds. Requests in flight at a boundary
    /// blur it by a few requests.
    pub cycle_s: Vec<f64>,
    /// Per cycle: the process's CPU time over the same interval, in ns.
    pub cycle_cpu_ns: Vec<f64>,
}

impl Serve {
    /// The timed set-up: boot the server with `nproc` workers and send
    /// each hot program once, so that it is compiled and cached.
    pub fn setup(prep: Arc<Prep>) -> Serve {
        let workers = sys::nproc();
        let server = Arc::new(Server::new(ServeConfig {
            workers,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let accept = {
            let server = Arc::clone(&server);
            let listener = listener.try_clone().expect("clone listener");
            std::thread::spawn(move || server.serve_tcp(&listener))
        };
        let rss_empty_mib = sys::status_mib("VmRSS");
        let serve = Serve {
            prep,
            server,
            listener,
            addr,
            accept,
            rss_empty_mib,
            clients: workers,
        };
        for (r, req) in serve.prep.reqs.iter().enumerate() {
            if req.class == Class::Fresh {
                continue;
            }
            let line =
                exchange(serve.addr, &req.line).unwrap_or_else(|e| panic!("priming {r}: {e}"));
            assert!(
                judge(r, &req.want, &line, 0.0, false).ok,
                "priming {r}: {line}"
            );
        }
        serve
    }

    /// Stops the accept loop and joins the workers.
    pub fn teardown(self) {
        // The accept loop returns on its first accept error: make the
        // listener non-blocking and wake the pending accept with one
        // empty connection; the next accept then fails with WouldBlock.
        self.listener
            .set_nonblocking(true)
            .expect("non-blocking listener");
        drop(TcpStream::connect(self.addr));
        let _ = self.accept.join().expect("accept loop panicked");
        if let Ok(server) = Arc::try_unwrap(self.server) {
            server.shutdown();
        }
    }

    pub fn cache_len(&self) -> usize {
        self.server.cache().len()
    }

    /// Server-side counters: (compiles, evictions, tier compiles, steals).
    pub fn counters(&self) -> [f64; 4] {
        let c = self.server.cache_stats();
        let steals = json::parse(&self.server.metrics_json())
            .ok()
            .and_then(|m| {
                m.get("pool")
                    .and_then(|p| p.get("steals"))
                    .and_then(Json::as_num)
            })
            .unwrap_or(0.0);
        [
            c.compiles as f64,
            c.evictions as f64,
            c.tier_compiles as f64,
            steals,
        ]
    }

    /// Runs the closed loop: whole cycles until `seconds` have passed,
    /// and at least `min_cycles`. With `trace`, odd cycles are traced and
    /// the run ends after a traced one.
    pub fn drive(&self, seconds: f64, min_cycles: usize, trace: bool, tr: &mut Tracer) -> Driven {
        let len = self.prep.seq.len();
        let state = Mutex::new(Loop {
            next: 0,
            stop_at: None,
            marks: Vec::new(),
        });
        let start = Instant::now();
        let per_client: Vec<(Vec<Rec>, Tracer)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.clients)
                .map(|_| {
                    let state = &state;
                    let prep = &self.prep;
                    let addr = self.addr;
                    scope.spawn(move || {
                        let mut tr = Tracer::new(start);
                        let mut recs = Vec::new();
                        loop {
                            let i = {
                                let mut s = state.lock().expect("loop state");
                                if s.stop_at.is_none() && start.elapsed().as_secs_f64() >= seconds {
                                    let unit = if trace { 2 * len } else { len };
                                    s.stop_at = Some(s.next.div_ceil(unit).max(1) * unit);
                                }
                                let stop =
                                    s.stop_at.map_or(usize::MAX, |x| x.max(min_cycles * len));
                                if s.next >= stop {
                                    break;
                                }
                                if s.next.is_multiple_of(len) {
                                    let mark =
                                        (start.elapsed().as_secs_f64(), sys::process_cpu_ns());
                                    s.marks.push(mark);
                                }
                                s.next += 1;
                                s.next - 1
                            };
                            let r = prep.seq[i % len];
                            let traced = trace && (i / len) % 2 == 1;
                            tr.set_on(traced);
                            tr.set_op(i as u64);
                            let root = tr.begin("op");
                            let t0 = Instant::now();
                            let sp = tr.begin("serve.request");
                            let reply = exchange(addr, &prep.reqs[r].line);
                            tr.end(sp);
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            // A connection error is a failed op, not the
                            // end of the run.
                            let mut rec = match reply {
                                Ok(line) => judge(r, &prep.reqs[r].want, &line, ms, traced),
                                Err(_) => Rec::failed(r, ms, traced),
                            };
                            rec.cycle = i / len;
                            tr.end(root);
                            recs.push(rec);
                        }
                        (recs, tr)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let end = (start.elapsed().as_secs_f64(), sys::process_cpu_ns());
        let mut all = Vec::new();
        for (recs, t) in per_client {
            all.extend(recs);
            tr.absorb(t);
        }
        let mut marks = state.into_inner().expect("loop state").marks;
        marks.push(end);
        let (cycle_s, cycle_cpu_ns) = marks
            .windows(2)
            .map(|w| (w[1].0 - w[0].0, w[1].1.saturating_sub(w[0].1) as f64))
            .unzip();
        Driven {
            recs: all,
            cycle_s,
            cycle_cpu_ns,
        }
    }
}

/// One request on its own connection: connect, send the line,
/// half-close, read the response line (empty if the server closed the
/// connection without one).
fn exchange(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.write_all(line.as_bytes())?;
    conn.shutdown(std::net::Shutdown::Write)?;
    let mut out = String::new();
    BufReader::new(conn).read_line(&mut out)?;
    Ok(out)
}

/// The serve layer's per-layer numbers from one traced drive.
pub fn layer_numbers(
    serve: &Serve,
    recs: &[Rec],
    counters: [f64; 4],
    tr: &mut Tracer,
) -> BTreeMap<&'static str, f64> {
    let ops = recs.len() as f64;
    let traced: Vec<&Rec> = recs.iter().filter(|r| r.traced).collect();
    for r in &traced {
        tr.set_on(true);
        tr.count("fuel.serve", r.fuel);
        tr.count("heap_bytes", r.mem);
        tr.count("collections", r.collections);
        tr.max("peak_live_bytes", r.peak);
    }
    tr.set_on(false);
    let n = traced.len() as f64;
    let share = |e: &str| ratio(traced.iter().filter(|r| r.engine == e).count() as f64, n);
    let p50 = |hit: bool| {
        let v: Vec<f64> = recs
            .iter()
            .filter(|r| !r.traced && r.hit == hit)
            .map(|r| r.ms)
            .collect();
        median(&v)
    };
    let mut m = BTreeMap::new();
    m.insert(
        "serve.cache_hit_ratio",
        ratio(traced.iter().filter(|r| r.hit).count() as f64, n),
    );
    m.insert("serve.compiles", ratio(counters[0], ops));
    m.insert("serve.evictions", ratio(counters[1], ops));
    m.insert("serve.tier_compiles", ratio(counters[2], ops));
    m.insert("serve.pool_steals", ratio(counters[3], ops));
    m.insert("serve.engine_share.ast", share("ast"));
    m.insert("serve.engine_share.vm", share("vm"));
    m.insert("serve.engine_share.jit", share("jit"));
    m.insert("serve.latency_p50_ms.hit", p50(true));
    m.insert("serve.latency_p50_ms.miss", p50(false));
    m.insert(
        "serve.mb_per_cached_program",
        ratio(
            sys::status_mib("VmRSS") - serve.rss_empty_mib,
            serve.cache_len() as f64,
        ),
    );
    m
}

/// Client-observed latency percentiles per request class, for the
/// detail line.
pub fn class_detail(prep: &Prep, recs: &[Rec]) -> String {
    let mut parts = Vec::new();
    for class in [Class::Hot, Class::Churn, Class::Fresh] {
        let mut v: Vec<f64> = recs
            .iter()
            .filter(|r| !r.traced && prep.reqs[r.req].class == class)
            .map(|r| r.ms)
            .collect();
        v.sort_by(f64::total_cmp);
        parts.push(format!(
            "\"{class:?}\":{{\"n\":{},\"p50_ms\":{},\"p99_ms\":{}}}",
            v.len(),
            percentile(&v, 0.5),
            percentile(&v, 0.99)
        ));
    }
    format!("{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_reference_matches_the_ast_engine() {
        let (src, want) = churn(7);
        let r = genus::Compiler::new()
            .with_stdlib()
            .source("c.genus", src)
            .run()
            .expect("churn program runs");
        assert_eq!(r.rendered_value, want.to_string());
    }

    #[test]
    fn connection_errors_are_failed_ops() {
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .expect("loopback address");
        // Nothing listens there any more.
        assert!(exchange(addr, "{}\n").is_err());
        let want = Want::Number(1.0);
        assert!(!judge(0, &want, "", 1.0, false).ok, "no reply is a failure");
    }

    #[test]
    fn planted_wrong_reference_counts_failed_ops() {
        let mut prep = prepare(4);
        let fresh = prep
            .reqs
            .iter()
            .position(|r| r.class == Class::Fresh)
            .unwrap();
        if let Want::Exact { output, .. } = &mut prep.reqs[fresh].want {
            output.push('!');
        }
        let serve = Serve::setup(Arc::new(prep));
        let mut tr = Tracer::new(Instant::now());
        let recs = serve.drive(0.0, 1, false, &mut tr).recs;
        serve.teardown();
        let failed: Vec<usize> = recs.iter().filter(|r| !r.ok).map(|r| r.req).collect();
        assert_eq!(failed, vec![fresh]);
        assert_eq!(
            recs.len(),
            HOT_SORTS.len() * SORT_REPEATS + CHURN * CHURN_REPEATS + FRESH
        );
    }
}
