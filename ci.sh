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
v2_a=/tmp/t5.v2.a.json
rm -f "$v2_a"
build/bench/table5_switch --json "$v2_a" >/dev/null
test -s "$v2_a"
grep -q '"schema":"lz.bench.report.v2"' "$v2_a"
grep -q '"counters":{' "$v2_a"
grep -q '"mem.tlb.l1_hit"' "$v2_a"
grep -q '"histograms":{' "$v2_a"
grep -q '"lz.gate.switch_cycles"' "$v2_a"
grep -q '"p99":' "$v2_a"
grep -q '"profile":{' "$v2_a"
grep -q '"by_domain":{"vmid' "$v2_a"
build/bench/lz_report "$v2_a"

# The validator must refuse a damaged report: a truncated copy is malformed
# JSON, which lz_report rejects as a load error (exit 2).
head -c 2000 "$v2_a" > /tmp/t5.truncated.json
expect_exit 2 build/bench/lz_report /tmp/t5.truncated.json

# v2 determinism: everything in the simulated sections runs on the
# simulated clock (histogram percentiles, profile samples, hotspot tables
# included), so a tier-on and a tier-off run must agree on every
# simulation-derived byte. The optional "host" section (sim.trace.*) is the
# one legitimate difference between the two engines, so the gate is
# lz_report --require-sim-identical (strip "host", compare dumps) rather
# than a raw cmp.
v2_b=/tmp/t5.v2.b.json
rm -f "$v2_b"
LZ_TRACE_TIER=0 build/bench/table5_switch --json "$v2_b" >/dev/null
build/bench/lz_report "$v2_a" "$v2_b" --require-sim-identical >/dev/null
# Tier-off golden gate: the entire PMU/profiler/histogram stack is
# observe-only, and the interpreter-only run must reproduce every simulated
# byte of the checked-in golden (the tier-on byte-compare is the cmp in the
# backend matrix below).
build/bench/lz_report BENCH_table5_v2.json "$v2_b" \
  --require-sim-identical >/dev/null

# Paper goldens: each checked-in report was produced by the listed command
# (Table 4, the 4-core and per-backend Table-5 programs, Figures 3-5), and
# a fresh run must reproduce every simulated byte of it (the "host" section
# is the one allowed difference).
golden_leg() {
  local golden=$1 out=/tmp/${1%.json}.new.json
  shift
  rm -f "$out"
  "$@" --json "$out" >/dev/null
  build/bench/lz_report "$golden" "$out" --require-sim-identical >/dev/null
}
golden_leg BENCH_table4_v2.json build/bench/table4_traps
golden_leg BENCH_table5_cores4_v2.json build/bench/table5_switch --cores 4
for backend in poe cca watchpoint lwc; do
  golden_leg "BENCH_table5_${backend}_v2.json" build/bench/table5_switch \
    --backend "$backend"
done
golden_leg BENCH_fig3_v2.json build/bench/fig3_nginx
golden_leg BENCH_fig3_cores4_v2.json build/bench/fig3_nginx --cores 4
golden_leg BENCH_fig3_poe_v2.json build/bench/fig3_nginx --backend poe
golden_leg BENCH_fig3_cca_v2.json build/bench/fig3_nginx --backend cca
golden_leg BENCH_fig4_v2.json build/bench/fig4_mysql
golden_leg BENCH_fig5_v2.json build/bench/fig5_nvm
# Each core's cycle account has one writer thread; a charge lost to a second
# writer shows up as a cycle mismatch that one run can miss by luck. So the
# two 4-core goldens run a second time, which also gives the single-writer
# tripwire of the check builds a second chance on the concurrent paths.
golden_leg BENCH_table5_cores4_v2.json build/bench/table5_switch --cores 4
golden_leg BENCH_fig3_cores4_v2.json build/bench/fig3_nginx --cores 4

# Every golden rests on --require-sim-identical alone, so each lz_report
# gate must be shown able to fail (exit 1): a golden copy with one digit of
# a simulated counter changed, one with cycles.total changed, and a MIPS
# floor no run can reach. A gate value that is not a finite number in range
# (nan, inf, a regression allowance above 100%) is a usage error (exit 2).
# bump_digit REGEX IN OUT: OUT is IN with the last digit of REGEX's first
# match raised by one, mod 10.
bump_digit() {
  awk -v re="$1" '{
    if (match($0, re)) {
      p = RSTART + RLENGTH - 1
      $0 = substr($0, 1, p - 1) ((substr($0, p, 1) + 1) % 10) substr($0, p + 1)
    }
    print
  }' "$2" > "$3"
  if cmp -s "$2" "$3"; then
    echo "ci.sh: bump_digit: no match for '$1' in $2" >&2
    exit 1
  fi
}
bump_digit '"mem[.]tlb[.]l1_hit":[0-9]+' BENCH_table5_v2.json \
  /tmp/t5.l1_hit.json
expect_exit 1 build/bench/lz_report BENCH_table5_v2.json /tmp/t5.l1_hit.json \
  --require-sim-identical
bump_digit '"cycles":[{]"total":[0-9]+' BENCH_table5_v2.json \
  /tmp/t5.cycles.json
expect_exit 1 build/bench/lz_report BENCH_table5_v2.json /tmp/t5.cycles.json \
  --require-cycles-equal
expect_exit 1 build/bench/lz_report BENCH_throughput.json \
  BENCH_throughput.json --result-floor straight_line.mips.median:1e12
expect_exit 2 build/bench/lz_report BENCH_throughput.json \
  BENCH_throughput.json --result-floor straight_line.mips.median:nan
expect_exit 2 build/bench/lz_report BENCH_throughput.json \
  BENCH_throughput.json --result-min straight_line.mips.median:inf
expect_exit 2 build/bench/lz_report BENCH_throughput.json \
  BENCH_throughput.json --result-min straight_line.mips.median:150
# lz_report parses through the benches' strict FlagParser: an unknown
# flag or a gate flag without its value exits 2, and the --flag=V form
# works like --flag V.
expect_exit 2 build/bench/lz_report --no-such-flag
expect_exit 2 build/bench/lz_report BENCH_throughput.json \
  BENCH_throughput.json --result-min
build/bench/lz_report BENCH_throughput.json BENCH_throughput.json \
  --result-floor=straight_line.mips.median:0 >/dev/null

# The shared flag parser rejects unknown flags loudly (exit 2), so a typo
# can never silently run the wrong experiment — and --help documents the
# shared set on exit 0. A workload flag the binary does not read is
# rejected the same way (fig4 has no backend mode), and an artifact that
# cannot be written fails the run (exit 1).
expect_exit 2 build/bench/table5_switch --no-such-flag
expect_exit 2 build/bench/fig4_mysql --backend poe
# --cores sizes the live module's SMP machine only; the cost-model backends
# have no SMP run, so the pair is refused instead of dropping --cores.
expect_exit 2 build/bench/table5_switch --backend poe --cores 4
expect_exit 2 build/bench/fig3_nginx --backend cca --cores 2
expect_exit 2 build/bench/throughput --backend poe --cores 8
# A numeric value must be a whole non-negative decimal in range: trailing
# characters, letters and a sign (which strtoull would silently wrap) all
# exit 2 instead of running with a garbled value.
expect_exit 2 build/bench/table5_switch --sample-period abc
expect_exit 2 build/bench/table5_switch --ts-period 5x
expect_exit 2 build/bench/table5_switch --cores 3x
expect_exit 2 build/bench/table5_switch --sample-period=-1
expect_exit 2 build/bench/throughput --iters zz
expect_exit 2 build/bench/throughput --iters 0
# The fuzz mains parse through the same parser: a garbled value, --cores
# outside 1-64 and a zero-size campaign (which would pass vacuously) are
# all refused before a Machine is built.
expect_exit 2 build/bench/fuzz_table2 --ops 5x
expect_exit 2 build/bench/fuzz_table2 --seed 1x
expect_exit 2 build/bench/fuzz_table2 --cores 0
expect_exit 2 build/bench/fuzz_a64 --insns abc
expect_exit 2 build/bench/fuzz_a64 --streams 0
expect_exit 2 build/bench/fuzz_a64 --cores 65
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
# The tier-on run is the 4-core fig3 golden leg's output. (No --ts-period
# here: SMP sample timestamps are host-scheduling dependent, see
# EXPERIMENTS.md.)
fig3_on=/tmp/BENCH_fig3_cores4_v2.new.json
fig3_off=/tmp/fig3.obs.notrace.json
rm -f "$fig3_off"
LZ_TRACE_TIER=0 build/bench/fig3_nginx --cores 4 --json "$fig3_off" >/dev/null
grep -q '"host":{"sim.trace.' "$fig3_on"
if grep -q '"host":' "$fig3_off"; then
  echo "ci.sh: tier-off run unexpectedly registered host counters" >&2
  exit 1
fi
build/bench/lz_report "$fig3_on" "$fig3_off" --require-sim-identical \
  >/dev/null

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
build/bench/lz_report "$v2_a" "$t5_metrics" --require-sim-identical \
  >/dev/null

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
# every artifact of three fully armed runs — table5 with the event trace,
# span and time-series rings all wrapping (so their drop counts are
# pinned), the profile, the report and the live-rewritten exposition; the
# 4-core fig3 exposition + profile; and fig5's report, exposition and
# profile with the time-series sampler armed, which pins the host-side
# memory accesses (Core::mem_read) against a mid-loop snapshot the way
# table5 pins the call gate (Core::run_until). The 17 MB trace is why
# hashes are stored instead of files. Any refactor of the obs stack must
# reproduce them byte for byte.
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
  "$repo/build/bench/fig5_nvm" --json fig5.json --metrics-out fig5.prom \
    --profile fig5.folded --ts-period 200000 >/dev/null
  sha256sum --quiet -c "$repo/bench/obs_goldens.sha256"
)
# --metrics-out smoke: the pinned 4-core fig3 exposition must carry the
# per-worker rps and request-latency summaries plus the per-tenant/domain
# switch-cycle families.
expo=$goldens/fig3_cores4.prom
grep -q '^httpd_rps{tenant="httpd-worker0",quantile="0.99"}' "$expo"
grep -q '^httpd_requests{tenant="httpd-worker3"}' "$expo"
grep -q '^httpd_request_cycles{tenant="httpd-worker0",quantile="0.5"}' "$expo"
grep -q '^lz_tenant_gate_switch_cycles{tenant=' "$expo"
grep -q '^lz_tenant_world_switch_cycles{tenant=' "$expo"

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

# Backend matrix (DESIGN.md section 14): every IsolationBackend fuzzes
# divergence-free through the identical op generator; the golden legs above
# pin each model backend's Table-5 program. The default (ttbr_pan) table5
# run is the refactor gate — routing the verbs through the interface may
# not move a byte of the checked-in golden, its "host" section included.
cmp "$v2_a" BENCH_table5_v2.json
for backend in ttbr_pan poe cca watchpoint lwc; do
  build/bench/fuzz_table2 --backend "$backend" --seed 7 --cores 2 --ops 800
done
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
