//! The closed-loop driver for the three single-thread workloads.
//!
//! One thread issues the next op only when the previous one returned.
//! A run is made of whole cycles of the workload's seeded op sequence,
//! so every run holds the same mix however far it got, and the tail
//! percentiles describe that mix rather than where the clock stopped.

use crate::sys;
use crate::trace::Tracer;
use std::time::Instant;

/// A workload the driver can time op by op.
pub trait Workload {
    type Out;

    /// Ops in one cycle of the seeded sequence.
    fn cycle_len(&self) -> usize;

    /// Untimed cycles run after set-up, so that caches fill and memory
    /// reaches its plateau before anything is measured.
    fn warmup_cycles(&self) -> usize {
        1
    }

    /// Op `i` of the cycle: everything in here is timed.
    fn op(&mut self, i: usize, tr: &mut Tracer) -> Self::Out;

    /// Compares the output of op `i` with its reference, outside the
    /// timed region, once the whole cycle has run. A mismatch is a
    /// failed op.
    fn check(&mut self, i: usize, out: &Self::Out) -> bool;

    /// Counts that cost work to make (token counts, say), recorded
    /// after the op's root span has closed so they never inflate it.
    fn count_after(&mut self, _i: usize, _tr: &mut Tracer) {}
}

/// What one measured run saw.
#[derive(Debug, Default)]
pub struct Samples {
    /// Wall time of every measured op that ran untraced, in ms.
    pub lat_ms: Vec<f64>,
    /// Wall time of every traced op, in ms (trace runs only).
    pub traced_lat_ms: Vec<f64>,
    /// CPU time of the op thread inside every op of `lat_ms`, in ns.
    pub op_cpu_ns: Vec<f64>,
    /// Per untraced cycle: the summed wall time of its ops, in ms.
    pub cycle_busy_ms: Vec<f64>,
    /// The largest peak resident size of any cycle's ops, in MiB: the
    /// peak is reset before each cycle and read before its outputs are
    /// checked, so neither preparation nor reference work counts.
    pub rss_peak_mib: f64,
    /// Ops whose output did not match the reference.
    pub failed: u64,
    pub cycles: usize,
}

impl Samples {
    pub fn attempted(&self) -> u64 {
        (self.lat_ms.len() + self.traced_lat_ms.len()) as u64
    }
}

/// The fewest op samples the end-to-end timings are taken over, so that
/// at least ten lie beyond the p99 sample.
pub const MIN_SAMPLES: usize = 1000;

/// How many of `n` repeats the end-to-end timings keep: the fastest
/// quarter, but at least enough for `MIN_SAMPLES` samples when each
/// repeat gives `per_repeat` (all `n`, if the run holds fewer).
///
/// The repeats of one op, or of one cycle, are the same work, so how
/// long they take measures the host, not the program. A shared host
/// moves between a fast and a slow state (about 1.5x apart) that last
/// from seconds to minutes, in different proportions in different runs;
/// the fastest repeats are those run in the fast state.
fn keep_count(n: usize, per_repeat: usize) -> usize {
    n.div_ceil(4)
        .max(MIN_SAMPLES.div_ceil(per_repeat.max(1)))
        .min(n)
}

/// The samples of a single-thread run the end-to-end timings are taken
/// over, as indices into `lat_ms` (whole cycles of `len` ops, in
/// order): for each op of the cycle, its fastest repeats.
pub fn fast_samples(lat_ms: &[f64], len: usize) -> Vec<usize> {
    let cycles = lat_ms.len() / len.max(1);
    let keep = keep_count(cycles, len);
    let mut out = Vec::with_capacity(keep * len);
    for i in 0..len {
        let mut repeats: Vec<usize> = (0..cycles).map(|k| k * len + i).collect();
        repeats.sort_by(|&a, &b| lat_ms[a].total_cmp(&lat_ms[b]));
        out.extend_from_slice(&repeats[..keep]);
    }
    out.sort_unstable();
    out
}

/// The cycles of a `serve_mix` run the end-to-end timings are taken
/// over, given each cycle's wall time: its fastest cycles of `len`
/// requests, in ascending order. Requests overlap there, so the cycle
/// is the unit, not the request.
pub fn fast_cycles(cycle_time: &[f64], len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cycle_time.len()).collect();
    order.sort_by(|&a, &b| cycle_time[a].total_cmp(&cycle_time[b]));
    order.truncate(keep_count(cycle_time.len(), len));
    order.sort_unstable();
    order
}

/// Runs the untimed warm-up cycles.
pub fn warm_up<W: Workload>(w: &mut W, tr: &mut Tracer) {
    tr.set_on(false);
    for _ in 0..w.warmup_cycles() {
        for i in 0..w.cycle_len() {
            let _ = w.op(i, tr);
        }
    }
}

/// The median of the fastest quarter of `times` (see [`keep_count`]).
pub fn fast_median(times: &[f64]) -> f64 {
    let mut v = times.to_vec();
    v.sort_by(f64::total_cmp);
    v.truncate(v.len().div_ceil(4));
    sys::median(&v)
}

/// Measures whole cycles until `seconds` have passed, calling `between`
/// after each cycle's outputs are checked. With `trace`, cycles
/// alternate untraced and traced (ending on a traced one), so one run
/// yields both the per-layer record and the tracing overhead.
pub fn measure<W: Workload>(
    w: &mut W,
    seconds: f64,
    trace: bool,
    tr: &mut Tracer,
    mut between: impl FnMut(),
) -> Samples {
    let len = w.cycle_len();
    let start = Instant::now();
    let mut s = Samples::default();
    let mut op_id = 0u64;
    loop {
        let traced = trace && s.cycles % 2 == 1;
        tr.set_on(traced);
        let mut busy_ms = 0.0;
        let mut outs = Vec::with_capacity(len);
        sys::trim_heap();
        sys::reset_peak_rss();
        for i in 0..len {
            tr.set_op(op_id);
            op_id += 1;
            let c0 = sys::thread_cpu_ns();
            let t0 = Instant::now();
            let root = tr.begin("op");
            let out = w.op(i, tr);
            tr.end(root);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let c1 = sys::thread_cpu_ns();
            w.count_after(i, tr);
            outs.push(out);
            if traced {
                s.traced_lat_ms.push(ms);
            } else {
                s.lat_ms.push(ms);
                s.op_cpu_ns.push(c1.saturating_sub(c0) as f64);
                busy_ms += ms;
            }
        }
        s.rss_peak_mib = s.rss_peak_mib.max(sys::status_mib("VmHWM"));
        // References are checked after the cycle, so that their work
        // (a fresh session per op on `edit_loop`) does not disturb the
        // caches and heap the next timed op starts from.
        for (i, out) in outs.iter().enumerate() {
            if !w.check(i, out) {
                s.failed += 1;
            }
        }
        if !traced {
            s.cycle_busy_ms.push(busy_ms);
        }
        between();
        s.cycles += 1;
        if start.elapsed().as_secs_f64() >= seconds && (!trace || s.cycles % 2 == 0) {
            break;
        }
    }
    tr.set_on(false);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_cycles_keep_the_fastest_quarter_or_enough_samples() {
        let times = [5.0, 1.0, 4.0, 2.0, 9.0, 3.0, 8.0, 7.0];
        // 8 cycles of 1000 ops: a quarter is 2 cycles, enough samples.
        assert_eq!(fast_cycles(&times, 1000), vec![1, 3]);
        // Cycles of 300 ops need 4 for 1000 samples.
        assert_eq!(fast_cycles(&times, 300), vec![1, 2, 3, 5]);
        // Too short a run: every cycle.
        assert_eq!(fast_cycles(&times[..2], 10), vec![0, 1]);
    }

    #[test]
    fn fast_median_is_the_median_of_the_fastest_quarter() {
        let times = [9.0, 1.0, 8.0, 3.0, 7.0, 2.0, 6.0, 5.0, 4.0];
        // The fastest quarter of 9 is 3 values: 1, 2, 3.
        assert_eq!(fast_median(&times), 2.0);
        assert_eq!(fast_median(&[4.0]), 4.0);
    }

    #[test]
    fn fast_samples_keep_each_ops_fastest_repeats() {
        // 8 cycles of 2 ops: op 0 is slow in cycles 0-3, op 1 in 4-7.
        let mut lat = Vec::new();
        for k in 0..8 {
            lat.push(if k < 4 { 9.0 } else { 1.0 + k as f64 });
            lat.push(if k < 4 { 2.0 + k as f64 } else { 9.0 });
        }
        // A quarter of 8 repeats is 2, but 1000 samples need all 8.
        assert_eq!(fast_samples(&lat, 2).len(), 16);
        let lat1000: Vec<f64> = (0..8 * 1000).map(|j| lat[(j / 1000) * 2]).collect();
        // 8 cycles of 1000 identical-per-cycle ops: each op keeps its two
        // fastest repeats, cycles 4 and 5.
        let kept = fast_samples(&lat1000, 1000);
        assert_eq!(kept.len(), 2000);
        assert!(kept.iter().all(|&j| (4000..6000).contains(&j)));
    }
}
