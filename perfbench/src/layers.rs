//! The per-layer metrics of `--trace 1`, derived from the span
//! recorder's self times and counts.
//!
//! Every `*_ms_per_op` is a self time averaged over all traced ops of
//! the workload, so the layer times plus `trace.unattributed_ms_per_op`
//! add up to `trace.op_wall_ms`. A layer a workload does not exercise
//! reads 0.

use crate::sys::ratio;
use crate::trace::Tracer;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in output order. The list in
/// `BENCHMARK.json` must match it (a test checks).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("syntax.tokens_per_op", "count/op"),
    ("syntax.parse_ms_per_op", "ms"),
    ("check.ms_per_op", "ms"),
    ("check.units_rechecked_per_op", "count/op"),
    ("check.units_patched_per_op", "count/op"),
    ("check.units_reused_per_op", "count/op"),
    ("check.prefix_rebuilt_per_op", "count/op"),
    ("check.reuse_ratio", "ratio"),
    ("check.type_query_hit_ratio", "ratio"),
    ("vm.lower_ms_per_op", "ms"),
    ("vm.opt_ms_per_op", "ms"),
    ("vm.ops_lowered", "count/op"),
    ("vm.ops_after_opt", "count/op"),
    ("vm.funcs_specialized", "count/op"),
    ("vm.calls_directed", "count/op"),
    ("vm.dynamic_fallbacks", "count/op"),
    ("tier.compile_ms_per_op", "ms"),
    ("tier.blocks", "count/op"),
    ("exec.ms_per_op.vm", "ms"),
    ("exec.ms_per_op.jit", "ms"),
    ("exec.ms_per_op.ast", "ms"),
    ("exec.fuel_per_op", "count/op"),
    ("exec.ns_per_step.vm", "ns"),
    ("exec.ns_per_step.jit", "ns"),
    ("exec.ic_hit_ratio", "ratio"),
    ("heap.bytes_per_op", "B/op"),
    ("heap.collections_per_op", "count/op"),
    ("heap.peak_live_bytes", "B"),
    ("serve.request_ms_per_op", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.compiles", "count/op"),
    ("serve.evictions", "count/op"),
    ("serve.tier_compiles", "count/op"),
    ("serve.pool_steals", "count/op"),
    ("serve.engine_share.ast", "ratio"),
    ("serve.engine_share.vm", "ratio"),
    ("serve.engine_share.jit", "ratio"),
    ("serve.latency_p50_ms.hit", "ms"),
    ("serve.latency_p50_ms.miss", "ms"),
    ("serve.mb_per_cached_program", "MiB"),
    ("teardown.ms_per_op", "ms"),
    ("trace.op_wall_ms", "ms"),
    ("trace.untraced_op_wall_ms", "ms"),
    ("trace.overhead_ms_per_op", "ms"),
    ("trace.unattributed_ms_per_op", "ms"),
    ("trace.attributed_share", "ratio"),
];

/// Whether a metric is a count or a ratio of counts, not a timing.
pub fn is_count(name: &str) -> bool {
    let unit = PER_LAYER.iter().find(|(n, _)| *n == name).map(|(_, u)| *u);
    matches!(unit, Some("count/op" | "ratio" | "B/op" | "B")) && !name.starts_with("trace.")
}

/// Counts whose value the workload's seed alone decides: two traced runs
/// with one seed must agree on them exactly, however long they ran.
///
/// Left out are the serve counters that depend on how requests
/// interleave across workers.
pub fn is_exact(name: &str, workload: &str) -> bool {
    let interleaving = matches!(
        name,
        "serve.compiles" | "serve.evictions" | "serve.tier_compiles" | "serve.pool_steals"
    );
    is_count(name) && !(workload == "serve_mix" && interleaving)
}

/// Derives every per-layer metric from a traced run.
///
/// `ops` is the number of traced ops; `untraced_ms` the mean wall time
/// of the run's untraced ops; `extra` holds values measured outside the
/// recorder (the serve counters).
pub fn per_layer(
    tr: &Tracer,
    ops: f64,
    untraced_ms: f64,
    extra: &BTreeMap<&'static str, f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let selfs = tr.self_times();
    let ms = |span: &str| ratio(selfs.get(span).copied().unwrap_or(0.0), ops) / 1e6;
    let c = |k: &str| tr.counts().get(k).copied().unwrap_or(0.0);
    let per_op = |k: &str| ratio(c(k), ops);
    let reused = c("units_reused");
    let patched = c("units_patched");
    let rechecked = c("units_rechecked");
    let fuel: f64 = ["fuel.vm", "fuel.jit", "fuel.ast", "fuel.serve"]
        .iter()
        .map(|k| c(k))
        .sum();
    let op_wall = ratio(tr.total_ns("op"), ops) / 1e6;
    let attributed: f64 = selfs
        .iter()
        .filter(|(k, _)| **k != "op")
        .map(|(_, v)| v)
        .sum();
    let value = |name: &str| -> f64 {
        match name {
            "syntax.tokens_per_op" => per_op("tokens"),
            "syntax.parse_ms_per_op" => ms("syntax.parse"),
            "check.ms_per_op" => ms("check"),
            "check.units_rechecked_per_op" => per_op("units_rechecked"),
            "check.units_patched_per_op" => per_op("units_patched"),
            "check.units_reused_per_op" => per_op("units_reused"),
            "check.prefix_rebuilt_per_op" => per_op("prefix_rebuilt"),
            "check.reuse_ratio" => ratio(reused, reused + patched + rechecked),
            "check.type_query_hit_ratio" => ratio(c("tq_hits"), c("tq_hits") + c("tq_misses")),
            "vm.lower_ms_per_op" => ms("vm.lower"),
            "vm.opt_ms_per_op" => ms("vm.opt"),
            "vm.ops_lowered" => per_op("ops_lowered"),
            "vm.ops_after_opt" => per_op("ops_after_opt"),
            "vm.funcs_specialized" => per_op("funcs_specialized"),
            "vm.calls_directed" => per_op("calls_directed"),
            "vm.dynamic_fallbacks" => per_op("dynamic_fallbacks"),
            "tier.compile_ms_per_op" => ms("tier.compile"),
            "tier.blocks" => per_op("tier_blocks"),
            "exec.ms_per_op.vm" => ms("exec.vm"),
            "exec.ms_per_op.jit" => ms("exec.jit"),
            "exec.ms_per_op.ast" => ms("exec.ast"),
            "exec.fuel_per_op" => ratio(fuel, ops),
            "exec.ns_per_step.vm" => ratio(tr.total_ns("exec.vm"), c("fuel.vm")),
            "exec.ns_per_step.jit" => ratio(tr.total_ns("exec.jit"), c("fuel.jit")),
            "exec.ic_hit_ratio" => ratio(c("ic_hits"), c("ic_hits") + c("ic_misses")),
            "heap.bytes_per_op" => per_op("heap_bytes"),
            "heap.collections_per_op" => per_op("collections"),
            "heap.peak_live_bytes" => tr.maxima().get("peak_live_bytes").copied().unwrap_or(0.0),
            "serve.request_ms_per_op" => ms("serve.request"),
            "teardown.ms_per_op" => ms("teardown"),
            "trace.op_wall_ms" => op_wall,
            "trace.untraced_op_wall_ms" => untraced_ms,
            "trace.overhead_ms_per_op" => op_wall - untraced_ms,
            "trace.unattributed_ms_per_op" => ms("op"),
            "trace.attributed_share" => ratio(attributed, tr.total_ns("op")),
            other => extra.get(other).copied().unwrap_or(0.0),
        }
    };
    PER_LAYER
        .iter()
        .map(|(name, unit)| (*name, *unit, value(name)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark");
        let v = genus_common::json::parse(&text).expect("BENCHMARK.json parses");
        let listed: Vec<(String, String)> = v
            .get("per_layer")
            .and_then(|p| p.as_arr())
            .expect("per_layer list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = PER_LAYER
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, ours);
    }
}
