#!/bin/sh
# Allocation gate: the ingest hot path's and the control plane's memory
# model, enforced. Runs the testing.AllocsPerRun gates that pin
# steady-state allocation counts — zero for IngestShedOldestColumns and its
# scalar helper IngestShedOldest, Drain, and Apply; at most one per
# Evaluate — on both the unsharded and the sharded engine, the wire layer's
# zero-alloc batch decode, and GRIDREDUCE / GREEDYINCREMENT allocating only
# the Partitioning and the Result they return.
set -eu

cd "$(dirname "$0")/.."

echo "-- engine allocation gates (cqserver, shard) --"
go test -count 1 -run 'TestAllocs' ./internal/cqserver ./internal/shard

echo "-- wire decode allocation gates --"
go test -count 1 -run 'ZeroAlloc' ./internal/wire

echo "-- control-plane allocation gates (GRIDREDUCE, GREEDYINCREMENT) --"
go test -count 1 -run 'TestAllocs' ./internal/partition ./internal/throttler

echo "allocs gate: OK"
