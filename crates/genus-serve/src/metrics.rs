//! The server's observability surface: lock-free counters and a latency
//! histogram, exported as one JSON object.
//!
//! Every request that passes through the scheduler is recorded — outcome,
//! resolved engine, fuel and heap totals, and wall-clock latency in a
//! fixed-bucket [`Histogram`] (the same type the bench's load generator
//! uses, so server-side and client-side p99 are computed by identical
//! code). The snapshot is reachable two ways: a `{"action":"metrics"}`
//! request on any connection, and `genus serve --metrics-on-start`, which
//! prints one snapshot line at boot (all zeroes except cache counters
//! warmed from disk) so operators can verify the export schema without
//! traffic.
//!
//! Schema (fixed key order, one line):
//!
//! ```json
//! {"requests":0,"ok":0,"trap":0,"error":0,
//!  "engines":{"ast":0,"vm":0,"jit":0},
//!  "fuel_total":0,"mem_total":0,
//!  "cache":{"entries":0,"hits":0,"misses":0,"compiles":0,
//!           "base_extends":0,"full_checks":0,
//!           "tier_compiles":0,"evictions":0,"disk_hits":0,"disk_writes":0},
//!  "pool":{"workers":0,"steals":0},
//!  "latency":{"count":0,"mean_us":0,"p50_us":0,"p90_us":0,"p99_us":0,"max_us":0}}
//! ```

use crate::cache::ProgramCacheStats;
use crate::proto::{EngineKind, Outcome, Response};
use genus_common::histogram::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregated request counters plus the latency histogram. All recording
/// is atomic increments — nothing on the hot path takes a lock.
#[derive(Debug, Default)]
pub struct ServerMetrics {
    requests: AtomicU64,
    ok: AtomicU64,
    traps: AtomicU64,
    errors: AtomicU64,
    fuel_total: AtomicU64,
    mem_total: AtomicU64,
    engine_ast: AtomicU64,
    engine_vm: AtomicU64,
    engine_jit: AtomicU64,
    latency: Histogram,
}

impl ServerMetrics {
    /// All-zero metrics.
    #[must_use]
    pub fn new() -> ServerMetrics {
        ServerMetrics::default()
    }

    /// Records one finished request: its outcome, resource totals, the
    /// engine that ran it (counted only when something actually ran —
    /// compile errors and scheduler rejections have no engine), and its
    /// service latency.
    pub fn record(&self, resp: &Response, latency_us: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match &resp.outcome {
            Outcome::Ok(_) => self.ok.fetch_add(1, Ordering::Relaxed),
            Outcome::Trap { .. } => self.traps.fetch_add(1, Ordering::Relaxed),
            Outcome::Error(_) => self.errors.fetch_add(1, Ordering::Relaxed),
        };
        self.fuel_total.fetch_add(resp.fuel_used, Ordering::Relaxed);
        self.mem_total.fetch_add(resp.mem_used, Ordering::Relaxed);
        if !matches!(resp.outcome, Outcome::Error(_)) {
            match resp.engine {
                EngineKind::Ast => self.engine_ast.fetch_add(1, Ordering::Relaxed),
                EngineKind::Vm | EngineKind::Auto => self.engine_vm.fetch_add(1, Ordering::Relaxed),
                EngineKind::Jit => self.engine_jit.fetch_add(1, Ordering::Relaxed),
            };
        }
        self.latency.record_us(latency_us);
    }

    /// Total requests recorded.
    #[must_use]
    pub fn requests(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Renders the full metrics object as one JSON line (fixed key
    /// order — see the module docs for the schema). Cache and pool
    /// figures are passed in by the server, which owns them.
    #[must_use]
    pub fn to_json(
        &self,
        cache: &ProgramCacheStats,
        cache_entries: usize,
        workers: usize,
        steals: u64,
    ) -> String {
        format!(
            "{{\"requests\":{},\"ok\":{},\"trap\":{},\"error\":{},\
             \"engines\":{{\"ast\":{},\"vm\":{},\"jit\":{}}},\
             \"fuel_total\":{},\"mem_total\":{},\
             \"cache\":{{\"entries\":{},\"hits\":{},\"misses\":{},\"compiles\":{},\
             \"base_extends\":{},\"full_checks\":{},\
             \"tier_compiles\":{},\"evictions\":{},\"disk_hits\":{},\"disk_writes\":{}}},\
             \"pool\":{{\"workers\":{},\"steals\":{}}},\
             \"latency\":{}}}",
            self.requests.load(Ordering::Relaxed),
            self.ok.load(Ordering::Relaxed),
            self.traps.load(Ordering::Relaxed),
            self.errors.load(Ordering::Relaxed),
            self.engine_ast.load(Ordering::Relaxed),
            self.engine_vm.load(Ordering::Relaxed),
            self.engine_jit.load(Ordering::Relaxed),
            self.fuel_total.load(Ordering::Relaxed),
            self.mem_total.load(Ordering::Relaxed),
            cache_entries,
            cache.hits,
            cache.misses,
            cache.compiles,
            cache.base_extends,
            cache.full_checks,
            cache.tier_compiles,
            cache.evictions,
            cache.disk_hits,
            cache.disk_writes,
            workers,
            steals,
            self.latency.snapshot().to_json(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus_common::json;

    fn ok_response(engine: EngineKind) -> Response {
        Response {
            engine,
            outcome: Outcome::Ok("1".to_string()),
            fuel_used: 10,
            mem_used: 100,
            ..Response::error("x", "unused")
        }
    }

    #[test]
    fn records_by_outcome_and_engine() {
        let m = ServerMetrics::new();
        m.record(&ok_response(EngineKind::Ast), 50);
        m.record(&ok_response(EngineKind::Vm), 70);
        m.record(&ok_response(EngineKind::Jit), 90);
        m.record(&Response::error("e", "boom"), 10);
        let j = m.to_json(&ProgramCacheStats::default(), 0, 4, 0);
        let v = json::parse(&j).expect("metrics JSON parses");
        let num = |path: &[&str]| {
            let mut cur = &v;
            for p in path {
                cur = cur.get(p).unwrap();
            }
            cur.as_num().unwrap() as u64
        };
        assert_eq!(num(&["requests"]), 4);
        assert_eq!(num(&["ok"]), 3);
        assert_eq!(num(&["error"]), 1);
        assert_eq!(num(&["engines", "ast"]), 1);
        assert_eq!(num(&["engines", "vm"]), 1);
        assert_eq!(num(&["engines", "jit"]), 1);
        assert_eq!(num(&["fuel_total"]), 30, "errors add no fuel");
        assert_eq!(num(&["mem_total"]), 300);
        assert_eq!(num(&["latency", "count"]), 4);
        assert_eq!(num(&["pool", "workers"]), 4);
    }

    #[test]
    fn json_is_deterministic() {
        let m = ServerMetrics::new();
        m.record(&ok_response(EngineKind::Vm), 5);
        let s = ProgramCacheStats::default();
        assert_eq!(m.to_json(&s, 1, 2, 3), m.to_json(&s, 1, 2, 3));
    }
}
