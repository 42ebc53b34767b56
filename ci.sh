#!/usr/bin/env bash
# Local CI gate: formatting, release build, full test suite (caches on and
# off), lint-clean clippy, warning-free rustdoc, the diagnostics golden
# suite in both rendering modes, and compiling (not running) the
# benchmarks.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
# --workspace: the root manifest is both a package and a workspace, and a
# bare `cargo build` only builds the root package — the CLI sweep below
# needs the freshly built target/release/genus.
cargo build --release --workspace
# --workspace: a bare `cargo test` runs only the root package's tests,
# not the unit, integration and doc tests of the member crates.
cargo test -q --workspace
# One interpreter stack: the 256 MiB the AST engine's depth guard is
# calibrated for is defined once, in genus-interp.
test "$(grep -rn '256 << 20' crates --include=*.rs | wc -l)" -eq 1
# The differential harness again with every dispatch/type-query cache
# bypassed: both engines must agree on the slow paths too.
cargo test -q --features no-cache
# --workspace: lint and document every member crate, not only the root
# package.
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps -q
# The diagnostics rendering contract, exercised end to end in both the
# human (snippet) and machine (JSON) --error-format modes: the golden
# files pin the human/short/json renderings, and the CLI suite (genus's
# tests/cli.rs, in the workspace step above) drives the binary with
# --error-format=human/short/json plus the exit-code tiers.
cargo test -q --test render_golden --test diagnostics --test errors_doc
# Opt-parity gate: the bytecode optimizer must be observationally
# invisible. The differential suite sweeps --opt-level 0/1/2 internally
# and the property suite fuzzes O0-vs-O2 (opt_levels_agree); on top, a
# CLI-level sweep checks the shipped binary end to end.
cargo test -q --test differential --test properties
for lvl in 0 1 2; do
  target/release/genus run --engine=vm --opt-level="$lvl" \
    samples/existential_registry.genus > "target/opt_parity_$lvl.out"
done
cmp target/opt_parity_0.out target/opt_parity_1.out
cmp target/opt_parity_0.out target/opt_parity_2.out
# Class-hierarchy analysis gate: at O2 the specializer must turn some of
# the inheritance sample's virtual calls into direct calls (the sweeps
# here and in the differential suite check that every engine and level
# still agrees on them, including the sites CHA must leave dynamic).
target/release/genus run --engine=vm --stats samples/class_hierarchy.genus \
  > /dev/null 2> target/cha_stats.err
grep -Eq '^virtual calls devirted: +[1-9]' target/cha_stats.err
# Leaf-inlining gate: at O2 the Table 1 sorts' element operations (`at`,
# `get`, `compareTo` on the boxed class) must be spliced into their
# callers rather than called (the sweeps here and in the differential
# suite check that every engine and level still agrees on them).
target/release/genus run --engine=vm --stats samples/table1_sorts.genus \
  > /dev/null 2> target/inline_stats.err
grep -Eq '^calls inlined: +[1-9]' target/inline_stats.err
# Lazy-translation gate: Tier 2 translates a function on its first entry,
# so the Table 1 sorts must translate at least one function and fewer
# than the program holds (most of the linked stdlib never runs).
target/release/genus run --engine=jit --stats samples/table1_sorts.genus \
  > /dev/null 2> target/tier_stats.err
awk '/^functions tiered:/ { t = $3 } /^functions in program:/ { n = $4 }
     END { exit !(t >= 1 && t < n) }' target/tier_stats.err
# Table 1 gate: the twelve sorts of samples/table1_sorts.genus on VM-O0,
# VM-O2 and Tier 2 must print Rust's checksums, and the paper's four
# shape claims must hold on fuel (the report exits 1 otherwise). Fuel
# does not depend on the host or the size, so a small run decides them.
TABLE1_N=200 TABLE1_REPS=1 cargo run -q --release --example table1_report \
  > target/table1_report.out
# Tier-parity gate: the closure-compiled Tier 2 must be observationally
# identical to the VM (the differential suite above already asserts
# exact fuel equality between them); here the shipped binary sweeps
# every sample on both engines and compares output byte for byte.
for sample in samples/*.genus; do
  out="target/tier_parity_$(basename "$sample" .genus)"
  target/release/genus run --engine=vm "$sample" > "$out.vm"
  target/release/genus run --engine=jit "$sample" > "$out.jit"
  cmp "$out.vm" "$out.jit"
done
# GC-stress gate: with GENUS_GC_STRESS=1 the heap collects at every safe
# point, so any value reachable only from a host-side local (a rooting
# bug) is reclaimed out from under the engine and the differential sweep
# diverges or crashes. Sweeping every sample on all three engines under
# stress proves the root set (frame stacks, register pools, statics,
# pending calls) is complete.
for sample in samples/*.genus; do
  out="target/gc_stress_$(basename "$sample" .genus)"
  for engine in ast vm jit; do
    GENUS_GC_STRESS=1 target/release/genus run --engine="$engine" \
      "$sample" > "$out.$engine"
  done
  cmp "$out.ast" "$out.vm"
  cmp "$out.vm" "$out.jit"
done
# Nesting gate: input nested past the parser's limit must get the stable
# E0102 diagnostic (exit status 1), never a stack overflow (death by a
# signal): 100 000 nested parentheses, and a 20 000-term operator chain,
# which the parser builds in a loop but every later phase recurses over.
python3 -c 'n = 100000; print("int main() { return " + "(" * n + "1" + ")" * n + "; }")' \
  > target/nest_parens.genus
python3 -c 'print("int main() { return 1" + "+1" * 19999 + "; }")' > target/nest_chain.genus
for src in target/nest_parens.genus target/nest_chain.genus; do
  set +e
  target/release/genus check "$src" 2> target/nest.err
  status=$?
  set -e
  test "$status" -eq 1
  grep -q 'E0102' target/nest.err
done
# Fuzz smoke gate: a seeded run of the coverage-guided differential
# fuzzer (grammar-generated well-typed programs, mutation over a corpus,
# all oracles: four-way engine parity, GC-stress byte parity, bytecode
# round-trip, incremental-session parity, stdlib-base parity). The
# deterministic case budget drives the work; --seconds is a wall-clock
# safety cap. Any divergence writes a minimized repro under
# target/fuzz_smoke/crashes and exits 3.
rm -rf target/fuzz_smoke
target/release/genus fuzz --seconds=20 --seed=1 \
  --corpus=target/fuzz_smoke/corpus --crash-dir=target/fuzz_smoke/crashes \
  | tee target/fuzz_smoke.out
grep -q ' 0 divergence(s)' target/fuzz_smoke.out
test -z "$(ls -A target/fuzz_smoke/crashes 2>/dev/null)"
# Checked-in crash repros are regression pins: each must replay clean
# through the full oracle suite (pass, or compile-reject with proper
# diagnostics) — a divergence or panic here means a fixed bug returned.
target/release/genus fuzz --replay fuzz/crashes/*.genus
# The execution service end to end: a 3-request JSON-lines batch — one
# OK, one fuel-exhausting, one compile error — piped through the shipped
# binary, checking each response line's outcome. (Its unit and
# integration suites run in the workspace test step above.)
printf '%s\n' \
  '{"id": "ok", "source": "int main() { println(\"hi\"); return 7; }"}' \
  '{"id": "spin", "source": "int main() { while (true) {} return 0; }", "fuel": 50000}' \
  '{"id": "bad", "source": "int main() { return nope; }"}' \
  | target/release/genus serve --workers=4 > target/serve_e2e.out
test "$(wc -l < target/serve_e2e.out)" -eq 3
grep -q '"id":"ok".*"outcome":"ok".*"value":"7"' target/serve_e2e.out
grep -q '"id":"spin".*"outcome":"trap".*"code":"R0009"' target/serve_e2e.out
grep -q '"id":"bad".*"outcome":"error"' target/serve_e2e.out
# Serve/run parity gate: every sample goes through `genus serve` on each
# engine as a cache miss (answered by extending the shared checked
# stdlib base, or by the full check when the reuse rule declines) and
# must print exactly what `genus run --engine=<e>` prints: the program's
# output, then `=> value` for a non-void result.
for engine in ast vm jit; do
  for sample in samples/*.genus; do
    python3 -c 'import json, sys; print(json.dumps({"id": sys.argv[1], "engine": sys.argv[2], "source": open(sys.argv[1]).read()}))' \
      "$sample" "$engine"
  done | target/release/genus serve --workers=2 > "target/serve_run_parity.$engine.jsonl"
  for sample in samples/*.genus; do
    out="target/serve_run_parity_$(basename "$sample" .genus).$engine"
    target/release/genus run --engine="$engine" "$sample" > "$out.run"
    python3 - "$sample" "target/serve_run_parity.$engine.jsonl" > "$out.serve" <<'EOF'
import json, sys
for line in open(sys.argv[2]):
    r = json.loads(line)
    if r["id"] == sys.argv[1]:
        assert r["outcome"] == "ok", line
        sys.stdout.write(r["output"])
        if r["value"] != "void":
            print("=> " + r["value"])
EOF
    cmp "$out.run" "$out.serve"
  done
done
# Persistent-bytecode gate: the same request through a cold server with
# --cache-dir, then a brand-new server over the same directory. The
# cold boot writes artifacts (0 disk hits); the restart must answer from
# disk (non-zero disk hits on the stderr summary) and its response line
# must be byte-identical to the cold one modulo the timing field.
rm -rf target/ci_cache_dir
printf '{"id": "p1", "source": "int main() { return 64; }"}\n' \
  | target/release/genus serve --workers=2 --cache-dir=target/ci_cache_dir \
  > target/serve_disk_cold.out 2> target/serve_disk_cold.err
grep -q ' 0 disk hit(s)' target/serve_disk_cold.err
printf '{"id": "p1", "source": "int main() { return 64; }"}\n' \
  | target/release/genus serve --workers=2 --cache-dir=target/ci_cache_dir \
  > target/serve_disk_warm.out 2> target/serve_disk_warm.err
grep -q ' disk hit(s)' target/serve_disk_warm.err
! grep -q ' 0 disk hit(s)' target/serve_disk_warm.err
sed -E 's/"ms":[0-9]+/"ms":0/' target/serve_disk_cold.out > target/serve_disk_cold.norm
sed -E 's/"ms":[0-9]+/"ms":0/' target/serve_disk_warm.out > target/serve_disk_warm.norm
cmp target/serve_disk_cold.norm target/serve_disk_warm.norm
# Metrics smoke: a {"action": "metrics"} line is answered synchronously
# with the counter snapshot (cache + pool + latency sections present).
printf '{"id": "m1", "action": "metrics"}\n' \
  | target/release/genus serve --workers=1 > target/serve_metrics.out
grep -q '"id":"m1","outcome":"ok"' target/serve_metrics.out
grep -q 'disk_hits' target/serve_metrics.out
grep -q 'base_extends' target/serve_metrics.out
grep -q 'steals' target/serve_metrics.out
grep -q 'p99_us' target/serve_metrics.out
# Scaling smoke, core-gated: the serve bench asserts hot-VM throughput
# at 4 workers >= 2x 1 worker — a claim only multi-core silicon can
# honor, so it runs where it can be meaningful. (On fewer cores the
# bench still runs manually and only rejects a sharding collapse.)
if [ "$(nproc)" -ge 4 ]; then
  cargo bench -p bench --bench serve
fi
# Incremental-session gates. First, diagnostics parity: for every
# sample (plus an error fixture), a session-based check — one `--watch`
# iteration, which runs through CompileSession and ends at stdin EOF —
# must render exactly the diagnostics of a from-scratch one-shot check
# and agree on the exit code. The `watch:` status line is the only
# session-specific output, so it is stripped before the byte compare.
printf 'int main() { int unused = 1; return nope; }\n' > target/incr_bad.genus
for src in samples/*.genus target/incr_bad.genus; do
  out="target/incr_$(basename "$src" .genus)"
  set +e
  target/release/genus check "$src" 2> "$out.oneshot" > /dev/null
  oneshot_exit=$?
  : | target/release/genus check --watch "$src" 2> "$out.watch"
  watch_exit=$?
  set -e
  test "$oneshot_exit" -eq "$watch_exit"
  grep -v '^watch: ' "$out.watch" > "$out.watch_diags" || true
  cmp "$out.oneshot" "$out.watch_diags"
done
# Second, the sessionful serve protocol end to end: an update/check/run
# pipe on one named session through the shipped binary. The run carries
# a one-token edit, so its response must report reused units > 0 (the
# stdlib verdicts survive) with exactly one unit re-checked.
printf '%s\n' \
  '{"id": "u1", "session": "ci", "action": "update", "file": "main.genus", "source": "int main() { return 41; }"}' \
  '{"id": "c1", "session": "ci", "action": "check"}' \
  '{"id": "r1", "session": "ci", "action": "run", "file": "main.genus", "source": "int main() { return 42; }"}' \
  | target/release/genus serve --workers=2 > target/serve_session.out
test "$(wc -l < target/serve_session.out)" -eq 3
grep -q '"id":"u1","outcome":"ok","value":"updated"' target/serve_session.out
grep -q '"id":"c1","outcome":"ok","value":"checked".*"rechecked":6' target/serve_session.out
grep -q '"id":"r1","outcome":"ok","value":"42".*"reused":[1-9][0-9]*,"rechecked":1' target/serve_session.out
# Benchmarks must at least compile; running them is a manual step
# (`cargo bench -p bench`), which also writes BENCH_vm.json.
# --workspace: a bare `cargo bench --no-run` only builds the root
# package's bench targets, silently skipping the bench crate.
cargo bench --no-run --workspace
