#!/bin/sh
# Hot-path performance harness: runs the core microbenchmarks and the
# timed PROP/FM study over the largest suite circuits, writing the
# machine-readable report to BENCH_hotpath.json (committed alongside
# EXPERIMENTS.md so perf changes are diffable). The study also re-times
# PROP with a pass-level tracer attached and records the slowdown as
# trace_overhead_pct per circuit — the cost of turning telemetry on —
# plus the per-phase wall map aggregated from the traced runs
# (phase_wall_us) and the nil-tracer phase-emitter cost
# (disabled_phase_ns_per_op), the price every emit site pays with
# tracing off.
#
#	./scripts/bench.sh                 # refuses single-proc runs
#	./scripts/bench.sh -allow-serial   # accept GOMAXPROCS=1 timings
#
# Timings taken with one hardware thread are still valid single-thread
# measurements, but they silently miss parallel regressions (multi-start
# runs never overlap), so a serial environment must be acknowledged
# explicitly.
set -eu

cd "$(dirname "$0")/.."

allow_serial=0
for arg in "$@"; do
	case "$arg" in
	-allow-serial) allow_serial=1 ;;
	*)
		echo "usage: $0 [-allow-serial]" >&2
		exit 2
		;;
	esac
done

procs="${GOMAXPROCS:-$(nproc 2>/dev/null || echo 1)}"
if [ "$procs" -le 1 ] && [ "$allow_serial" -eq 0 ]; then
	echo "bench.sh: effective GOMAXPROCS is $procs — parallel code paths will not" >&2
	echo "be exercised. Re-run with -allow-serial to record single-proc timings." >&2
	exit 1
fi

echo "== pass-engine smoke (vs fm_pass_baseline_ns) =="
# The unified move engine must stay within 5% of the hand-inlined FM
# pass loop it replaced. The baseline is pinned in BENCH_hotpath.json
# (fm_pass_baseline_ns, measured at the unification commit) and carried
# forward by cmd/bench -hotpath, so this compares against the original
# loop, not a drifting previous run.
baseline=$(sed -n 's/.*"fm_pass_baseline_ns": *\([0-9]*\).*/\1/p' BENCH_hotpath.json)
if [ -z "$baseline" ]; then
	echo "bench.sh: fm_pass_baseline_ns missing from BENCH_hotpath.json" >&2
	exit 1
fi
smoke=$(go test -run=NONE -bench '^BenchmarkPassEngine$' -benchtime=10x -count=3 .)
echo "$smoke"
echo "$smoke" | awk -v base="$baseline" '
	/^BenchmarkPassEngine/ { if (n == 0 || $3 < got) got = $3; n++ }
	END {
		if (n == 0) { print "bench.sh: BenchmarkPassEngine produced no samples" > "/dev/stderr"; exit 1 }
		limit = base * 1.05
		printf "pass-engine smoke: %.0f ns/op (best of %d), baseline %d, limit %.0f\n", got, n, base, limit
		if (got > limit) {
			print "bench.sh: unified FM pass is more than 5% slower than the pre-unification baseline" > "/dev/stderr"
			exit 1
		}
	}'

echo "== core microbenchmarks =="
go test -run=NONE -bench 'BenchmarkGain|BenchmarkRebuild|BenchmarkRefine|BenchmarkPassFlat|BenchmarkEmitPass' \
	-benchmem ./internal/core

echo "== hot-path study (BENCH_hotpath.json) =="
go run ./cmd/bench -hotpath BENCH_hotpath.json -runs 3 -seed 7 -v

echo "== phase telemetry cost =="
# The study measures one StartPhase/End pair on a nil tracer — the fast
# path every instrumented site takes when tracing is off. It must stay
# in the low nanoseconds (the nil path allocates nothing); anything near
# a microsecond means a branch or allocation leaked into the hot path.
disabled=$(sed -n 's/.*"disabled_phase_ns_per_op": *\([0-9.]*\).*/\1/p' BENCH_hotpath.json)
if [ -z "$disabled" ]; then
	echo "bench.sh: disabled_phase_ns_per_op missing from BENCH_hotpath.json" >&2
	exit 1
fi
echo "disabled-tracer phase emit: ${disabled} ns/op"
ok=$(awk -v d="$disabled" 'BEGIN { print (d > 0 && d < 1000) ? 1 : 0 }')
if [ "$ok" -ne 1 ]; then
	echo "bench.sh: disabled-tracer phase emit ${disabled} ns/op is out of range (want < 1000)" >&2
	exit 1
fi
# Per-circuit phase wall map from the traced series (µs, slash-joined
# phase paths) — where the run wall actually goes, per stage.
awk '
	/"name":/        { gsub(/[",]/, "", $2); name = $2 }
	/"phase_wall_us"/ { grab = 1; next }
	grab && /}/      { grab = 0 }
	grab             { gsub(/[",:]/, ""); printf "  %-10s %-20s %s us\n", name, $1, $2 }
' BENCH_hotpath.json

echo "== incremental warm-vs-cold study (BENCH_incremental.json) =="
# ECO repartitioning: 1%/5%/10% perturbations per circuit, warm-start
# chain vs from-scratch multi-start. Committed so the time and cut
# ratios are diffable; the acceptance bar lives on the industry2 5% row.
go run ./cmd/bench -incremental BENCH_incremental.json -seed 1 -v

echo "== flow polish study (BENCH_flow.json) =="
# PROP vs PROP+flow on the five golden circuits with identical portfolios
# (same seeds and initial assignments). Committed so the quality/time
# trade-off stays diffable; the acceptance bar is "flow never worsens the
# best cut and strictly improves ≥ 3 of the 5 circuits".
go run ./cmd/bench -flow BENCH_flow.json -runs 3 -seed 7 -v
improved=$(sed -n 's/.*"improved": *\([0-9]*\).*/\1/p' BENCH_flow.json)
if [ -z "$improved" ] || [ "$improved" -lt 3 ]; then
	echo "bench.sh: flow polish improved only ${improved:-0}/5 golden circuits (want ≥ 3)" >&2
	exit 1
fi

echo "== n-level scale study (BENCH_scale.json) =="
# Nodes vs wall clock vs peak RSS for the in-place n-level path on
# generated circuits (default 10k/100k/1M; override here so the committed
# report stays reproducible but a quick machine can trim the series with
# BENCH_SCALE_SIZES). cmd/bench re-execs itself per row so VmHWM — the
# kernel's monotone peak-RSS counter — is accounted per size, and appends
# the golden-five quality gate (n-level vs V-cycle, same seeds). Gates:
# every row's independent recount must pass, the largest row must finish
# within 2x its CSR arena footprint, and n-level must not lose to the
# V-cycle on any golden circuit.
scaledir=$(mktemp -d)
go build -o "$scaledir/bench" ./cmd/bench
"$scaledir/bench" -scale BENCH_scale.json -seed 7 \
	${BENCH_SCALE_SIZES:+-scale-sizes "$BENCH_SCALE_SIZES"} -v
rm -rf "$scaledir"
awk '
	/"check_ok"/       { rows++; if ($2 !~ /true/) badcheck++ }
	/"rss_over_arena"/ { gsub(/[",]/, "", $2); rss = $2 + 0 }
	/"nlevel_worse"/   { gsub(/[",]/, "", $2); worse = $2 + 0 }
	END {
		if (rows == 0) { print "bench.sh: no scale rows in BENCH_scale.json" > "/dev/stderr"; exit 1 }
		if (badcheck > 0) { printf "bench.sh: %d scale rows failed the cut recount\n", badcheck > "/dev/stderr"; exit 1 }
		if (rss > 2.0) { printf "bench.sh: largest scale row peaked at %.2fx its arena footprint (want <= 2x)\n", rss > "/dev/stderr"; exit 1 }
		if (worse > 0) { printf "bench.sh: n-level lost to the V-cycle on %d golden circuits (want 0)\n", worse > "/dev/stderr"; exit 1 }
		printf "scale: %d rows, largest peaked at %.2fx arena, golden-five gate clean\n", rows, rss
	}
' BENCH_scale.json

echo "== serve study (BENCH_serve.json) =="
# Closed-loop serving curve: journal-backed propserve, two equal-demand
# tenants, cold-partition/warm-repartition mix through the durable batch
# + fair-share scheduler path, at 1×/10×/100× concurrency. Committed so
# the p50/p99/throughput curve is diffable. Gates: propload itself fails
# on a zero-throughput level, and no level may show a tenant starved
# (max/min completed ratio above 2).
servedir=$(mktemp -d)
trap 'rm -rf "$servedir"' EXIT
go build -o "$servedir/propserve" ./cmd/propserve
go build -o "$servedir/propload" ./cmd/propload
# -max-jobs 256: the 100× closed loop keeps 100 jobs outstanding, which
# the default 64 in-flight cap would answer with 429s instead of queueing.
"$servedir/propserve" -addr 127.0.0.1:0 -journal "$servedir/journal" \
	-max-jobs 256 2>"$servedir/serve.log" &
serve_pid=$!
serve_addr=
for _ in $(seq 1 100); do
	serve_addr=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$servedir/serve.log" | head -1)
	[ -n "$serve_addr" ] && break
	sleep 0.1
done
if [ -z "$serve_addr" ]; then
	echo "bench.sh: propserve never announced an address" >&2
	cat "$servedir/serve.log" >&2
	exit 1
fi
"$servedir/propload" -addr "http://$serve_addr" -mode async \
	-levels 1,10,100 -duration 5s -tenants 2 -out BENCH_serve.json
kill -TERM "$serve_pid"
wait "$serve_pid" || {
	echo "bench.sh: propserve exited non-zero after the serve study" >&2
	exit 1
}
awk '
	/"fairness_ratio"/ {
		gsub(/[",]/, "", $2)
		n++
		if ($2 + 0 > 2.0) bad++
	}
	END {
		if (n == 0) { print "bench.sh: no fairness_ratio rows in BENCH_serve.json" > "/dev/stderr"; exit 1 }
		if (bad > 0) { printf "bench.sh: %d/%d serve levels show a starved tenant (fairness ratio > 2)\n", bad, n > "/dev/stderr"; exit 1 }
		printf "serve fairness: %d levels, all within the 2.0x bar\n", n
	}
' BENCH_serve.json

echo "bench: done"
