#!/bin/sh
# Tier-1 verification: formatting, static checks, build, and the full test
# suite under the race detector. Run from the repository root:
#
#	./scripts/ci.sh
#
# Any failure exits non-zero.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== move-engine dupe guard =="
# The locked-move pass protocol (prefix-max rollback, convergence
# epsilon) lives in internal/moves and nowhere else. A copy of its
# comparison idioms in another package means the dedup regressed —
# point the offender at moves.PassLog / moves.Run instead.
dupes=$(grep -rn --include='*.go' \
	--exclude='*_test.go' --exclude-dir=moves \
	-E 'sum > gmax|gmax *\+ *1e-12|gmax *<= *1e-12|> *gmax *\+ *moves\.EpsGain' \
	. || true)
if [ -n "$dupes" ]; then
	echo "pass-loop logic reimplemented outside internal/moves:" >&2
	echo "$dupes" >&2
	exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== perfbench module =="
# perfbench/ is its own Go module (the benchmark of record), so the root
# ./... patterns skip it; it imports internal packages, so vet and test it
# here to catch API drift.
(cd perfbench && go vet ./... && go test ./...)

echo "== benchmark smoke =="
go test -run=NONE -bench=. -benchtime=1x ./...

echo "== trace smoke =="
# End-to-end telemetry check: a traced run must emit schema-valid JSONL
# and must not change the reported cut.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go run ./cmd/propart -suite balu -runs 2 -par 1 -q \
	-trace "$tracedir/trace.jsonl" >"$tracedir/cut.txt"
go run ./cmd/tracecheck "$tracedir/trace.jsonl"
go run ./cmd/propart -suite balu -runs 2 -par 1 -q >"$tracedir/cut_untraced.txt"
if ! cmp -s "$tracedir/cut.txt" "$tracedir/cut_untraced.txt"; then
	echo "trace smoke: traced cut differs from untraced cut" >&2
	exit 1
fi

echo "== fuzz smoke =="
# Short native-fuzz runs over the netlist readers: enough to replay the
# corpus and shake the obvious parser panics without stalling CI.
for target in FuzzReadHGR FuzzReadJSON FuzzReadNetAre; do
	go test -run=NONE -fuzz="^${target}\$" -fuzztime=10s ./internal/hgio
done

echo "== warm-start smoke =="
# Incremental golden check: partition, perturb with a delta, repartition
# warm from the saved sides, and verify the warm assignment stands on its
# own. PROP's prefix-rollback passes never end worse than their starting
# cut, so a crash, a broken projection, or an infeasible completion is
# what this would catch.
go run ./cmd/propart -suite balu -runs 2 -par 1 -out "$tracedir/balu.sides" -q >/dev/null
cat >"$tracedir/eco.json" <<'EOF'
{"add_nodes":[{"name":"eco0","weight":1},{"name":"eco1","weight":2}],
 "remove_nodes":[3,11],
 "add_nets":[{"name":"econet0","cost":1,"pins":[0,1,801]},
             {"name":"econet1","cost":2,"pins":[2,802]}],
 "recost":[{"net":5,"cost":3}]}
EOF
go run ./cmd/propart -suite balu -runs 2 -par 1 -q \
	-warm "$tracedir/balu.sides" -delta "$tracedir/eco.json" \
	-out "$tracedir/balu_warm.sides" >"$tracedir/warm_cut.txt"
if ! [ -s "$tracedir/warm_cut.txt" ] || ! [ -s "$tracedir/balu_warm.sides" ]; then
	echo "warm-start smoke: no output produced" >&2
	exit 1
fi

echo "== flow smoke =="
# Corridor max-flow polish: on the same portfolio (runs/seed), AlgoFlow's
# cut must never be worse than PROP's, and the flow sides must stand up to
# an independent recount + balance check (-check runs prop.Verify).
go run ./cmd/propart -suite balu -runs 2 -par 1 -q >"$tracedir/prop_cut.txt"
go run ./cmd/propart -suite balu -algo flow -runs 2 -par 1 -q \
	-out "$tracedir/balu_flow.sides" >"$tracedir/flow_cut.txt"
propcut=$(head -1 "$tracedir/prop_cut.txt")
flowcut=$(head -1 "$tracedir/flow_cut.txt")
if [ "$flowcut" -gt "$propcut" ]; then
	echo "flow smoke: flow cut $flowcut worse than PROP cut $propcut" >&2
	exit 1
fi
go run ./cmd/propart -suite balu -check "$tracedir/balu_flow.sides" >/dev/null
# A traced flow run must emit schema-valid events (pass + flow kinds).
go run ./cmd/propart -suite balu -algo flow -runs 2 -par 1 -q \
	-trace "$tracedir/flow_trace.jsonl" >/dev/null
go run ./cmd/tracecheck "$tracedir/flow_trace.jsonl"

echo "== run-report smoke =="
# Phase telemetry end to end: a traced multilevel run must pass the
# phase-nesting validator, aggregate into a run report, and diff clean
# against itself (the CI regression-gate path with zero drift).
go run ./cmd/propart -suite balu -algo ml-prop -q \
	-trace "$tracedir/ml_trace.jsonl" >/dev/null
go run ./cmd/tracecheck "$tracedir/ml_trace.jsonl"
go run ./cmd/tracestat -top 5 "$tracedir/ml_trace.jsonl"
go run ./cmd/tracestat -diff "$tracedir/ml_trace.jsonl" "$tracedir/ml_trace.jsonl"
# The flow trace from the previous smoke aggregates too (flow adoption
# rates plus the corridor/expand/dinic/adopt phase tree).
go run ./cmd/tracestat -top 5 "$tracedir/flow_trace.jsonl" >/dev/null
# propart -report prints the same aggregation to stderr after the run.
go run ./cmd/propart -suite balu -algo ml-prop -q -report \
	>/dev/null 2>"$tracedir/report.txt"
if ! grep -q "phase coverage" "$tracedir/report.txt"; then
	echo "run-report smoke: propart -report produced no report" >&2
	exit 1
fi

echo "== serve smoke =="
# Scale-out serving end to end: propserve on a free port with a journal,
# a two-tenant async propload burst through the batch/scheduler path,
# non-zero throughput, a clean SIGTERM drain, and a restart on the same
# journal that still serves (replay works on a non-empty journal).
go build -o "$tracedir/propserve" ./cmd/propserve
go build -o "$tracedir/propload" ./cmd/propload
"$tracedir/propserve" -addr 127.0.0.1:0 -journal "$tracedir/journal" \
	2>"$tracedir/serve.log" &
serve_pid=$!
serve_addr=
for _ in $(seq 1 100); do
	serve_addr=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$tracedir/serve.log" | head -1)
	[ -n "$serve_addr" ] && break
	sleep 0.1
done
if [ -z "$serve_addr" ]; then
	echo "serve smoke: propserve never announced an address" >&2
	cat "$tracedir/serve.log" >&2
	exit 1
fi
"$tracedir/propload" -addr "http://$serve_addr" -mode async \
	-levels 1,4 -duration 1s -tenants 2 -out "$tracedir/serve_smoke.json"
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
	echo "serve smoke: propserve exited non-zero after SIGTERM" >&2
	cat "$tracedir/serve.log" >&2
	exit 1
fi
if ! grep -q "drained cleanly" "$tracedir/serve.log"; then
	echo "serve smoke: no clean drain in the server log" >&2
	cat "$tracedir/serve.log" >&2
	exit 1
fi
if ! ls "$tracedir/journal"/*.ndjson >/dev/null 2>&1; then
	echo "serve smoke: the async burst left no journal segments" >&2
	exit 1
fi
# Second boot on the same journal: replay must come up and serve.
"$tracedir/propserve" -addr 127.0.0.1:0 -journal "$tracedir/journal" \
	2>"$tracedir/serve2.log" &
serve_pid=$!
serve_addr=
for _ in $(seq 1 100); do
	serve_addr=$(sed -n 's/.*listening on \([^ ]*\).*/\1/p' "$tracedir/serve2.log" | head -1)
	[ -n "$serve_addr" ] && break
	sleep 0.1
done
if [ -z "$serve_addr" ]; then
	echo "serve smoke: restart on the replayed journal failed" >&2
	cat "$tracedir/serve2.log" >&2
	exit 1
fi
"$tracedir/propload" -addr "http://$serve_addr" -mode sync \
	-levels 1 -duration 1s -tenants 2 -out "$tracedir/serve_smoke2.json"
kill -TERM "$serve_pid"
wait "$serve_pid" || {
	echo "serve smoke: second propserve exited non-zero" >&2
	exit 1
}

echo "== n-level scale smoke =="
# Million-node-class readiness on CI hardware: generate a 100k-node
# circuit on the fly (nothing checked in), run the in-place n-level
# 2-way partition in a dedicated subprocess, and hold it to a wall-clock
# budget. The row's check_ok field is the independent full recount plus
# the balance check, so a silently wrong cut fails here too.
go build -o "$tracedir/bench" ./cmd/bench
start=$(date +%s)
"$tracedir/bench" -scale-row 100000 -seed 7 >"$tracedir/scale_row.json"
elapsed=$(( $(date +%s) - start ))
if ! grep -q '"check_ok":true' "$tracedir/scale_row.json"; then
	echo "scale smoke: 100k-node n-level row failed its recount:" >&2
	cat "$tracedir/scale_row.json" >&2
	exit 1
fi
if [ "$elapsed" -gt 240 ]; then
	echo "scale smoke: 100k-node n-level row took ${elapsed}s (budget 240s)" >&2
	exit 1
fi
echo "scale smoke: 100k nodes in ${elapsed}s, recount ok"

echo "ci: all checks passed"
