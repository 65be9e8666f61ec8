package shard

import (
	"fmt"

	"lira/internal/telemetry"
)

// shardTelemetry holds the sharded server's pre-resolved metric pointers,
// mirroring cqserver's scheme: hot paths pay one nil check plus one
// atomic per event, never a registry lookup. The global metrics reuse the
// cqserver metric names (one engine owns a hub, so there is no
// collision); per-shard gauges carry the shard index in the metric name
// because the registry is deliberately label-free. Nil when no Hub is
// configured.
type shardTelemetry struct {
	hub *telemetry.Hub

	evalHist    *telemetry.Histogram // lira_evaluate_seconds
	predictHist *telemetry.Histogram // lira_evaluate_predict_seconds
	scanHist    *telemetry.Histogram // lira_evaluate_scan_seconds

	gridNodes   *telemetry.Gauge // lira_statgrid_nodes (summed over shards)
	gridQueries *telemetry.Gauge // lira_statgrid_queries (summed over shards)

	applied     *telemetry.Counter // lira_updates_applied_total
	evals       *telemetry.Counter // lira_evaluations_total
	migrations  *telemetry.Counter // lira_shard_migrations_total
	compactions *telemetry.Counter // lira_shard_compactions_total

	// Per-shard gauges, indexed by shard: lira_shard<N>_…
	shardResidents []*telemetry.Gauge // resident count
	shardNodes     []*telemetry.Gauge // statistics-grid node mass
}

func newShardTelemetry(hub *telemetry.Hub, k int) *shardTelemetry {
	if hub == nil {
		return nil
	}
	r := hub.Registry
	t := &shardTelemetry{
		hub:            hub,
		evalHist:       r.Histogram("lira_evaluate_seconds", nil),
		predictHist:    r.Histogram("lira_evaluate_predict_seconds", nil),
		scanHist:       r.Histogram("lira_evaluate_scan_seconds", nil),
		gridNodes:      r.Gauge("lira_statgrid_nodes"),
		gridQueries:    r.Gauge("lira_statgrid_queries"),
		applied:        r.Counter("lira_updates_applied_total"),
		evals:          r.Counter("lira_evaluations_total"),
		migrations:     r.Counter("lira_shard_migrations_total"),
		compactions:    r.Counter("lira_shard_compactions_total"),
		shardResidents: make([]*telemetry.Gauge, k),
		shardNodes:     make([]*telemetry.Gauge, k),
	}
	for i := 0; i < k; i++ {
		t.shardResidents[i] = r.Gauge(fmt.Sprintf("lira_shard%d_residents", i))
		t.shardNodes[i] = r.Gauge(fmt.Sprintf("lira_shard%d_statgrid_nodes", i))
	}
	return t
}
