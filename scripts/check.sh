#!/bin/sh
# Repository check gate: vet, build, race-enabled tests, the smokes, and
# the socket-level benchmark's smoke pass. `make check` runs this script.
set -eu

cd "$(dirname "$0")/.."

echo "== go vet =="
go vet ./...

echo "== gofmt =="
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
	echo "files not gofmt-formatted:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== wiring guard (adaptation pipeline single-homed in controlplane) =="
# The GRIDREDUCE -> GREEDYINCREMENT wiring must exist exactly once.
# Allowed qualified call sites outside tests: the control plane itself,
# partition's internal accuracy-gain helper, and the public facade
# passthrough. Anything else reintroduces the PR-4 duplication.
bad="$(grep -rn --include='*.go' -e 'throttler\.SetThrottlers(' -e 'partition\.GridReduce(' . \
	| grep -v '_test\.go' \
	| grep -v '^\./internal/controlplane/' \
	| grep -v '^\./internal/partition/partition\.go' \
	| grep -v '^\./lira\.go' || true)"
if [ -n "$bad" ]; then
	echo "adaptation pipeline wired outside internal/controlplane:" >&2
	echo "$bad" >&2
	exit 1
fi
echo "wiring single-homed"

# An engine is constructed only by the packages that define one, the
# factory, and the three loops that drive one: the netsvc tick,
# experiment.Run and plan.Simulate (plus the facade and the socket
# benchmark's traced pass). A hit anywhere else is a fourth hand-written
# ingest -> drain -> evaluate -> adapt loop.
bad="$(grep -rn --include='*.go' -e 'engine\.New(' -e 'shard\.New(' -e 'cqserver\.New(' . \
	| grep -v '_test\.go' \
	| grep -v -e '^\./internal/engine/' -e '^\./internal/shard/' -e '^\./internal/cqserver/' \
		-e '^\./internal/netsvc/' -e '^\./internal/experiment/' -e '^\./internal/plan/' \
		-e '^\./lira\.go' -e '^\./bench/' || true)"
if [ -n "$bad" ]; then
	echo "engine constructed outside the three drive loops:" >&2
	echo "$bad" >&2
	exit 1
fi
echo "three drive loops"

# A report enters an engine from the network at exactly one site:
# netsvc's ingestBatch, through the columnar primitive. A second call,
# or any use of the scalar helper there, is a second admission path.
sites="$(grep -rn --include='*.go' -e 'IngestShedOldest[A-Za-z]*(' internal/netsvc | grep -v '_test\.go' || true)"
if [ "$(printf '%s\n' "$sites" | grep -c 'IngestShedOldestColumns(')" -ne 1 ] \
	|| printf '%s\n' "$sites" | grep -qv 'IngestShedOldestColumns('; then
	echo "internal/netsvc must hold exactly one engine-ingest call, IngestShedOldestColumns(:" >&2
	echo "$sites" >&2
	exit 1
fi
echo "one admission site"

echo "== package docs (every package must carry a doc comment) =="
missing="$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./...)"
if [ -n "$missing" ]; then
	echo "packages missing a doc comment:" >&2
	echo "$missing" >&2
	exit 1
fi
echo "all $(go list ./... | wc -l | tr -d ' ') packages documented"

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== allocation gates (zero-alloc hot paths) =="
sh scripts/allocs_gate.sh

echo "== fuzz smoke (wire decoders, 5s each) =="
for t in FuzzDecodeHello FuzzDecodeAssignment FuzzDecodeQuery \
         FuzzDecodeResult FuzzDecodePing FuzzDecodeUpdateBatch \
         FuzzReadFrame; do
	echo "fuzz $t"
	go test -run '^$' -fuzz "^${t}\$" -fuzztime 5s ./internal/wire
done

echo "== chaos (race-enabled fault-injection suite) =="
go test -race -count 1 -run 'Chaos|LossDegrades|Reconnect|ClientErr|Overflow|DrainPerTick' ./internal/netsvc

echo "== bench smoke (Fig04, 1 iteration) =="
go test -run '^$' -bench Fig04 -benchtime 1x .

echo "== policy smoke (measured policy comparison, one seed) =="
go run ./cmd/lirabench -policy -nodes 600 -duration 60

echo "== telemetry smoke (introspection endpoints + zero-diff sim) =="
sh scripts/obs_smoke.sh

echo "== admission smoke (degradation ladder round trip over sockets) =="
sh scripts/admission_smoke.sh

echo "== spans smoke (trace endpoint, ledger conservation, SLO gauges) =="
sh scripts/spans_smoke.sh

echo "== plan smoke (liraplan tiny grid; feasible + verified + byte-deterministic) =="
sh scripts/plan_smoke.sh

echo "== measured smoke (measured comparison + liraplan -measured; lira beats baselines, byte-deterministic) =="
sh scripts/measured_smoke.sh

echo "== socket bench smoke (ingest_ramp: live K=2 lirad, ledger + oracle checks) =="
go run ./bench -smoke -workload ingest_ramp

echo "== socket bench smoke (shed_adapt: control-plane path, region count, budget, design split) =="
go run ./bench -smoke -workload shed_adapt

echo "check: OK"
