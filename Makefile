# Developer entry points. `make check` is the gate PRs must pass; it runs
# scripts/check.sh, which owns every gate step. The other targets are the
# ones the README names: partial gates worth running alone, the demo, and
# the artifact regenerators. Only deterministic artifacts have one:
# timings come from `go run ./bench`, and BENCH_PR1-8.json are frozen.

GO ?= go

.PHONY: check fuzz-smoke chaos obs-smoke obs-demo admission-smoke spans-smoke plan-smoke measured-smoke bench-report-policy bench-report-plan bench-report-measured

check:
	sh scripts/check.sh

# Short adversarial pass over every wire decoder and the frame reader:
# malformed input must error, never panic or over-allocate. `go test`
# accepts a single -fuzz target at a time, hence the loop.
FUZZ_TARGETS := FuzzDecodeHello FuzzDecodeAssignment FuzzDecodeQuery \
	FuzzDecodeResult FuzzDecodePing FuzzDecodeUpdateBatch FuzzReadFrame

fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		echo "fuzz $$t"; \
		$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 5s ./internal/wire || exit 1; \
	done

# Race-enabled fault-injection suite: deterministic chaos (reconnect,
# reconvergence, goroutine hygiene) plus graceful-degradation checks.
chaos:
	$(GO) test -race -count 1 -run 'Chaos|LossDegrades|Reconnect|ClientErr|Overflow|DrainPerTick' ./internal/netsvc

# Telemetry smoke: lirad introspection endpoints plus the zero-diff
# passivity check (same seed, same output, journal on or off).
obs-smoke:
	sh scripts/obs_smoke.sh

# Degradation-ladder smoke: lirad with -admission, a liranode flood past
# the shed threshold, and the full escalate → pre-shed → recover round
# trip asserted through /metrics and /debug/lira.
admission-smoke:
	sh scripts/admission_smoke.sh

# Span-tracing smoke: lirad with -spans and armed SLOs, the Perfetto
# trace endpoint, the record-conservation ledger (zero violations), and
# lirasim's byte-identical trace export under a fixed seed.
spans-smoke:
	sh scripts/spans_smoke.sh

# Capacity-planner smoke: liraplan over a tiny grid — a feasible,
# replay-verified plan with a stable schema and a byte-identical rerun.
plan-smoke:
	sh scripts/plan_smoke.sh

# Measured-evaluation smoke: the shrunk measured policy comparison plus
# liraplan -measured — schema-complete artifacts, lira no worse than the
# region-oblivious baselines on measured E^C, byte-identical reruns.
measured-smoke:
	sh scripts/measured_smoke.sh

# Interactive observability demo: boots lirad with /metrics and
# /debug/lira (plus pprof) on :17401 and leaves it running — curl away,
# ^C to stop. See README "Observability" for a sample session.
obs-demo:
	$(GO) run ./cmd/lirad -listen 127.0.0.1:17400 -http 127.0.0.1:17401 \
		-pprof -nodes 1000 -l 49 -side 5000 -adapt 5s -eval 2s

# Regenerate the measured policy-comparison artifact BENCH_PR10.json:
# every registry policy's measured E^C/E^P per (workload, z), byte-
# deterministic under the fixed seed.
bench-report-measured:
	$(GO) run ./cmd/lirabench -policy -policyjson BENCH_PR10.json

# Alias of bench-report-measured (the name the README's policy section
# uses): it writes BENCH_PR10.json, not the frozen BENCH_PR5.json.
bench-report-policy: bench-report-measured

# Regenerate the capacity-plan artifact: the default K × z × policy grid
# over the full scenario catalog against the default SLO.
bench-report-plan:
	$(GO) run ./cmd/liraplan -q -json BENCH_PR9.json
