#!/usr/bin/env bash
# Tier-1 verification: configure, build (lz_obs is compiled with
# -Wall -Wextra -Werror, see src/obs/CMakeLists.txt), run the full test
# suite, then smoke-test the report/trace/profile artifact paths end to end.
set -euo pipefail

cd "$(dirname "$0")"

cmake -B build -G Ninja >/dev/null
cmake --build build
ctest --test-dir build --output-on-failure

# expect_exit CODE CMD...: CMD must exit with exactly CODE (negative legs).
expect_exit() {
  local want=$1 rc=0
  shift
  "$@" >/dev/null 2>&1 || rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "ci.sh: '$*' exited $rc, expected $want" >&2
    exit 1
  fi
}

# --json smoke test: the lz.bench.report.v2 document must carry latency
# histograms with percentiles and the cycle-sampling profile with
# per-domain attribution, and must round-trip through the repo's own
# validator.
report=/tmp/t5.json
rm -f "$report"
build/bench/table5_switch --json "$report" >/dev/null
test -s "$report"
grep -q '"schema":"lz.bench.report.v2"' "$report"
grep -q '"counters":{' "$report"
grep -q '"mem.tlb.l1_hit"' "$report"
grep -q '"histograms":{' "$report"
grep -q '"lz.gate.switch_cycles"' "$report"
grep -q '"p99":' "$report"
grep -q '"profile":{' "$report"
grep -q '"by_domain":{"vmid' "$report"
build/bench/lz_report "$report"

# The validator must refuse a damaged report: a truncated copy is malformed
# JSON, which lz_report rejects as a load error (exit 2).
head -c 2000 "$report" > /tmp/t5.truncated.json
expect_exit 2 build/bench/lz_report /tmp/t5.truncated.json

# v2 determinism: everything in the simulated sections runs on the
# simulated clock (histogram percentiles, profile samples, hotspot tables
# included), so a tier-on and a tier-off run must agree on every
# simulation-derived byte. The optional "host" section (sim.trace.*) is the
# one legitimate difference between the two engines, so the gate is
# lz_report --require-sim-identical (strip "host", compare dumps) rather
# than a raw cmp.
v2_a=/tmp/t5.v2.a.json
v2_b=/tmp/t5.v2.b.json
rm -f "$v2_a" "$v2_b"
build/bench/table5_switch --json "$v2_a" >/dev/null
LZ_TRACE_TIER=0 build/bench/table5_switch --json "$v2_b" >/dev/null
build/bench/lz_report "$v2_a" "$v2_b" \
  --require-cycles-equal --require-sim-identical >/dev/null
# Tier-off golden gate: the entire PMU/profiler/histogram stack is
# observe-only, and the interpreter-only run must reproduce every simulated
# byte of the checked-in golden (the tier-on byte-compare is the ttbr_pan
# backend leg below).
build/bench/lz_report BENCH_table5_v2.json "$v2_b" \
  --require-sim-identical >/dev/null

# Paper-figure goldens: each checked-in fig3/fig4/fig5 report was produced
# by the listed command, and a fresh run must reproduce every simulated
# byte of it (the "host" section is the one allowed difference).
golden_leg() {
  local golden=$1 out=/tmp/${1%.json}.new.json
  shift
  rm -f "$out"
  "$@" --json "$out" >/dev/null
  build/bench/lz_report "$golden" "$out" --require-sim-identical >/dev/null
}
golden_leg BENCH_fig3_v2.json build/bench/fig3_nginx
golden_leg BENCH_fig3_cores4_v2.json build/bench/fig3_nginx --cores 4
golden_leg BENCH_fig3_poe_v2.json build/bench/fig3_nginx --backend poe
golden_leg BENCH_fig3_cca_v2.json build/bench/fig3_nginx --backend cca
golden_leg BENCH_fig4_v2.json build/bench/fig4_mysql
golden_leg BENCH_fig5_v2.json build/bench/fig5_nvm

# Regression gates via lz_report against the checked-in v2 baseline: the
# simulated cycle total must match exactly (observe-only contract) and the
# gate-switch p99 may not regress more than 10%.
build/bench/lz_report BENCH_table5_v2.json "$v2_a" \
  --require-cycles-equal --hist-max lz.gate.switch_cycles:10 >/dev/null

# The shared flag parser rejects unknown flags loudly (exit 2), so a typo
# can never silently run the wrong experiment — and --help documents the
# shared set on exit 0. A workload flag the binary does not read is
# rejected the same way (fig4 has no backend mode), and an artifact that
# cannot be written fails the run (exit 1).
expect_exit 2 build/bench/table5_switch --no-such-flag
expect_exit 2 build/bench/fig4_mysql --backend poe
# A numeric value must be a whole non-negative decimal in range: trailing
# characters, letters and a sign (which strtoull would silently wrap) all
# exit 2 instead of running with a garbled value.
expect_exit 2 build/bench/table5_switch --sample-period abc
expect_exit 2 build/bench/table5_switch --ts-period 5x
expect_exit 2 build/bench/table5_switch --cores 3x
expect_exit 2 build/bench/table5_switch --sample-period=-1
expect_exit 2 build/bench/throughput --iters zz
build/bench/table5_switch --help | grep -q -- '--ts-period'
expect_exit 1 build/bench/table1_comparison --json /nonexistent/dir/t1.json

# Span tracing + time-series smoke: a 4-core httpd run with --trace must
# emit nested per-request duration spans (client request -> kernel task ->
# gate switch) with tenant labels, and --ts-period must add a schema-valid
# timeseries section with at least two snapshots.
fig3_json=/tmp/fig3.obs.json
fig3_trace=/tmp/fig3.obs.trace.json
rm -f "$fig3_json" "$fig3_trace"
build/bench/fig3_nginx --cores 4 --json "$fig3_json" --trace "$fig3_trace" \
  --ts-period 200000 >/dev/null
grep -q '"ph":"X"' "$fig3_trace"
grep -q '"cat":"span"' "$fig3_trace"
grep -q '"name":"request"' "$fig3_trace"
grep -q '"name":"task"' "$fig3_trace"
grep -q '"tenant":"httpd-worker' "$fig3_trace"
grep -q '"timeseries":{' "$fig3_json"
grep -q '"snapshots":\[{' "$fig3_json"
grep -q '"spans":{' "$fig3_json"
build/bench/lz_report "$fig3_json"

# Trace tier on vs off across a real workload: fig3's httpd run registers
# the sim.trace.* host counters with the tier on and none with it off, so
# the "host" sections legitimately differ while every simulated section
# must stay byte-identical — exactly what --require-sim-identical gates.
# (No --ts-period here: SMP sample timestamps are host-scheduling
# dependent, see EXPERIMENTS.md.)
fig3_on=/tmp/fig3.obs.trace_on.json
fig3_off=/tmp/fig3.obs.notrace.json
rm -f "$fig3_on" "$fig3_off"
build/bench/fig3_nginx --cores 4 --json "$fig3_on" >/dev/null
LZ_TRACE_TIER=0 build/bench/fig3_nginx --cores 4 --json "$fig3_off" >/dev/null
grep -q '"host":{"sim.trace.' "$fig3_on"
if grep -q '"host":' "$fig3_off"; then
  echo "ci.sh: tier-off run unexpectedly registered host counters" >&2
  exit 1
fi
build/bench/lz_report "$fig3_on" "$fig3_off" \
  --require-cycles-equal --require-sim-identical >/dev/null

# --metrics-out smoke: the per-tenant exposition must carry the per-worker
# rps and request-latency summaries plus the per-tenant/domain switch-cycle
# families, and two same-seed runs must render byte-identical snapshots
# (every series value is derived from simulated work only).
expo_a=/tmp/fig3.metrics.a.prom
expo_b=/tmp/fig3.metrics.b.prom
rm -f "$expo_a" "$expo_b"
build/bench/fig3_nginx --cores 4 --metrics-out "$expo_a" >/dev/null
build/bench/fig3_nginx --cores 4 --metrics-out "$expo_b" >/dev/null
cmp "$expo_a" "$expo_b"
grep -q '^httpd_rps{tenant="httpd-worker0",quantile="0.99"}' "$expo_a"
grep -q '^httpd_requests{tenant="httpd-worker3"}' "$expo_a"
grep -q '^httpd_request_cycles{tenant="httpd-worker0",quantile="0.5"}' "$expo_a"
grep -q '^lz_tenant_gate_switch_cycles{tenant=' "$expo_a"
grep -q '^lz_tenant_world_switch_cycles{tenant=' "$expo_a"

# Overhead self-audit, part 1: registering the labeled series (and the final
# exposition write) may not move a simulated cycle or counter — the armed
# table5 run must be sim-identical to the flagless baseline.
t5_metrics=/tmp/t5.metrics.json
t5_expo=/tmp/t5.metrics.prom
rm -f "$t5_metrics" "$t5_expo"
build/bench/table5_switch --json "$t5_metrics" --metrics-out "$t5_expo" \
  >/dev/null
test -s "$t5_expo"
grep -q '^lz_tenant_gate_switch_cycles{tenant=' "$t5_expo"
build/bench/lz_report "$v2_a" "$t5_metrics" \
  --require-cycles-equal --require-sim-identical >/dev/null

# Overhead self-audit, part 2: with --self-profile the obs stack attributes
# its own host wall-clock (sampling, rendering, live exposition rewrites)
# to host.self.obs. On the engine-heavy throughput bench with the
# exposition rewritten at every 10M-simulated-cycle sample, the obs stack
# must stay below 25% of the engine's own run-tier time — it may observe
# the engine, not crowd it out.
audit_expo=/tmp/throughput.audit.prom
rm -f "$audit_expo"
build/bench/throughput --iters 1 --metrics-out "$audit_expo" \
  --self-profile --ts-period 10000000 >/dev/null
awk '/^host_self_run_ticks/ { run = $2 }
     /^host_self_obs_ticks/ { obs = $2 }
     END {
       if (run == 0 || obs == 0) { print "self-audit: no ticks"; exit 1 }
       ratio = obs / run
       printf "self-audit: host.self.obs / host.self.run = %.4f\n", ratio
       exit ratio < 0.25 ? 0 : 1
     }' "$audit_expo"

# obs byte-identity gate: bench/obs_goldens.sha256 holds the sha256 of
# every artifact of two fully armed runs — table5 with the event trace,
# span and time-series rings all wrapping (so their drop counts are
# pinned), the profile, the report and the live-rewritten exposition; and
# the 4-core fig3 exposition + profile. The 17 MB trace is why hashes are
# stored instead of files. Any refactor of the obs stack must reproduce
# them byte for byte.
repo=$(pwd)
goldens=/tmp/obs_goldens
rm -rf "$goldens"
mkdir -p "$goldens"
(
  cd "$goldens"
  "$repo/build/bench/table5_switch" --json table5.json \
    --trace table5.trace.json --profile table5.folded \
    --metrics-out table5.prom --ts-period 200000 >/dev/null
  "$repo/build/bench/fig3_nginx" --cores 4 \
    --metrics-out fig3_cores4.prom --profile fig3_cores4.folded >/dev/null
  sha256sum --quiet -c "$repo/bench/obs_goldens.sha256"
)

# Trend gate: the checked-in bench history must accept a fresh table5 run
# (cycles.total is simulated, so the drift from the recorded median is
# exactly zero) and append it — run against a scratch copy so the tree
# stays clean.
trend_hist=/tmp/history.jsonl
cp bench/history/history.jsonl "$trend_hist"
build/bench/lz_report --trend "$v2_a" --history "$trend_hist" \
  --trend-max-drift 0.5 >/dev/null
test "$(wc -l < "$trend_hist")" -eq \
  "$(( $(wc -l < bench/history/history.jsonl) + 1 ))"

# SMP determinism smoke: the 4-core Table 5 run (per-core TLB hit rates,
# concurrent scheduler threads) must be byte-identical across two runs.
smp_a=/tmp/t5.smp.a.json
smp_b=/tmp/t5.smp.b.json
rm -f "$smp_a" "$smp_b"
build/bench/table5_switch --cores 4 --json "$smp_a" >/dev/null
build/bench/table5_switch --cores 4 --json "$smp_b" >/dev/null
cmp "$smp_a" "$smp_b"
grep -q '"sim.core3.tlb.l1_hit"' "$smp_a"
build/bench/lz_report "$smp_a"

# Differential fuzz gate (DESIGN.md section 10): >=10k seeded Table-2 ops
# across 4 cores through live module + shadow model. The binary exits
# non-zero on any status divergence, TLB-vs-walk divergence, non-byte-
# identical replay, or 1-vs-4-core counter drift.
build/bench/fuzz_table2 --seed 1 --cores 4 --ops 2600
build/bench/fuzz_table2 --seed 20260805 --cores 2 --ops 1500

# Encoded-A64 stream fuzz gate (DESIGN.md section 15): >=10k seeded
# instruction streams through the full entry/sanitizer/gate/fault path with
# the break-before-make and TLB-vs-walk oracles armed. Each invocation runs
# its streams twice on the requested topology (byte-identical replay) and
# once on 1 core (same outcomes, counters modulo the SMP-variant set); any
# oracle divergence aborts with a flight-recorder dump.
build/bench/fuzz_a64 --seed 1 --cores 4 --streams 2000
build/bench/fuzz_a64 --seed 20260808 --cores 2 --streams 1500

# Backend matrix (DESIGN.md section 14): every IsolationBackend runs the
# Table-5 program and a fuzz smoke through the identical op generator. The
# ttbr_pan leg is the refactor gate — routing the verbs through the
# interface may not move a byte of the checked-in golden. The model legs
# must emit schema-valid v2 reports and fuzz divergence-free.
for backend in ttbr_pan poe cca watchpoint lwc; do
  bk=/tmp/t5.backend.$backend.json
  rm -f "$bk"
  build/bench/table5_switch --backend "$backend" --json "$bk" >/dev/null
  build/bench/lz_report "$bk"
  build/bench/fuzz_table2 --backend "$backend" --seed 7 --cores 2 --ops 800
done
cmp /tmp/t5.backend.ttbr_pan.json BENCH_table5_v2.json
grep -q '"backend.poe.cortex_host.128.key_recycles"' /tmp/t5.backend.poe.json
grep -q '"backend.cca.cortex_host.128.gpt_walks"' /tmp/t5.backend.cca.json
tp_poe=/tmp/throughput.backend.poe.json
rm -f "$tp_poe"
build/bench/throughput --backend poe --json "$tp_poe" >/dev/null
build/bench/lz_report "$tp_poe"
grep -q '"backend.poe.avg_cycles"' "$tp_poe"

# Release (-O2) leg: the hot-path engine (L0 translation cache, decoded-page
# cache, batched accounting) must keep *simulated* cycle totals byte-stable,
# and with the profiler off (--sample-period 0) host throughput must stay
# within 10% of the checked-in baseline — the observability stack may not
# slow down the disabled path. Wall-clock noise is real, so the gate takes
# the best of three run-level medians (each already a median of three
# in-process repeats); noise only ever pushes MIPS down.
cmake -B build-release -G Ninja -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release --target throughput lz_report
for i in 1 2 3; do
  tp=/tmp/throughput.$i.json
  rm -f "$tp"
  build-release/bench/throughput --sample-period 0 --json "$tp" >/dev/null
  grep -q '"schema":"lz.bench.report.v2"' "$tp"
  build-release/bench/lz_report "$tp"
done
# lz_report takes the best of the three candidates against the checked-in
# baseline: the simulated cycle totals must match exactly, the MIPS median
# may not fall more than 10% below the baseline, and the trace-tier kernels
# (straight_line, tight_loop) must clear the absolute 500 host-MIPS floor
# the superblock tier was built to hit (DESIGN.md section 16).
build/bench/lz_report BENCH_throughput.json \
  /tmp/throughput.1.json /tmp/throughput.2.json /tmp/throughput.3.json \
  --require-cycles-equal --result-min straight_line.mips.median:10 \
  --result-floor straight_line.mips.median:500 \
  --result-floor tight_loop.mips.median:500

# TSan build: the whole test suite (SMP scheduler, per-core TLB
# shootdown, the obs registry and rings, the lock-free hot path, the
# PMU/profiler instruments, the BBM monitor, ...) must be clean under the
# thread sanitizer, with the trace tier forced on so its dispatch path, the
# DVM teardown hook and the generation-tag invalidation are covered on SMP
# topologies. The concurrent fuzz drivers and a 2-core throughput run ride
# along.
cmake -B build-tsan -G Ninja -DLZ_SANITIZE=thread >/dev/null
cmake --build build-tsan
LZ_TRACE_TIER=1 ctest --test-dir build-tsan --output-on-failure -j 4
build-tsan/bench/fuzz_table2 --seed 3 --cores 4 --ops 400
LZ_TRACE_TIER=1 build-tsan/bench/fuzz_a64 --seed 3 --cores 4 --streams 200
build-tsan/bench/throughput --iters 1 --cores 2 >/dev/null

# ASan+UBSan build: the whole suite must be memory-clean and free of
# undefined behaviour (halt_on_error turns every UBSan report into a
# failure). The fuzz drivers exercise free/refault paths hard (they are
# what caught the dangling-region use-after-free in lz_free).
cmake -B build-asan -G Ninja -DLZ_SANITIZE=address,undefined >/dev/null
cmake --build build-asan
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
LZ_TRACE_TIER=1 ctest --test-dir build-asan --output-on-failure -j 4
build-asan/bench/fuzz_table2 --seed 5 --cores 4 --ops 600
LZ_TRACE_TIER=1 build-asan/bench/fuzz_a64 --seed 5 --cores 4 --streams 200
unset UBSAN_OPTIONS

echo "ci.sh: OK"
