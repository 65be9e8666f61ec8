#!/bin/sh
# Allocation gate: the ingest hot path's and the control plane's memory
# model, enforced. Runs the testing.AllocsPerRun gates that pin
# steady-state allocation counts — zero for IngestShedOldestColumns and its
# scalar helper IngestShedOldest, Drain, Apply, EvaluateQuery (the
# registration path) and ObserveSelf (the tick's statistics refresh); at
# most one per Evaluate — on both the unsharded and the sharded engine
# (TestAllocs* in each engine package), the wire layer's
# zero-alloc batch decode, netsvc's server side of a report (ingestBatch plus
# an off-tick drain), and GRIDREDUCE / GREEDYINCREMENT allocating only the
# Partitioning and the Result they return.
set -eu

cd "$(dirname "$0")/.."

echo "-- engine allocation gates (cqserver, shard; EvaluateQuery and ObserveSelf included) --"
go test -count 1 -run 'TestAllocs' ./internal/cqserver ./internal/shard

echo "-- wire decode allocation gates --"
go test -count 1 -run 'ZeroAlloc' ./internal/wire

echo "-- netsvc ingest allocation gate (ingestBatch + off-tick drain, K=1 and K=2) --"
go test -count 1 -run 'TestAllocsIngestBatch' ./internal/netsvc

echo "-- control-plane allocation gates (GRIDREDUCE, GREEDYINCREMENT) --"
go test -count 1 -run 'TestAllocs' ./internal/partition ./internal/throttler

echo "allocs gate: OK"
