package engine_test

import (
	"testing"

	"lira/internal/cqserver"
	"lira/internal/engine"
	"lira/internal/rng"
)

// TestDegradedEvalEnginesAgree is the critical-rung differential: after
// the same warm-up, both engines switched to degraded (prediction-only)
// evaluation must answer every query bit-identically — to each other,
// and to the subset rule "previous result filtered by predicted
// containment". Results may only shrink, and flipping degradation off
// must restore full evaluation.
func TestDegradedEvalEnginesAgree(t *testing.T) {
	for _, seed := range []uint64{1, 7} {
		cfg := baseConfig()
		un, err := engine.New(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		sh, err := engine.New(cfg, 4)
		if err != nil {
			t.Fatal(err)
		}
		queries := testQueries(rng.New(seed * 11))
		un.RegisterQueries(queries)
		sh.RegisterQueries(queries)

		w := newWorkload(seed, cfg.Nodes)
		feed := func(ups []cqserver.Update) {
			for _, u := range ups {
				un.IngestShedOldest(u)
				sh.IngestShedOldest(u)
			}
			un.Drain(-1)
			sh.Drain(-1)
		}
		var now float64
		for step := 0; step < 5; step++ {
			now = float64(step)
			feed(w.step(now))
		}
		full := un.Evaluate(now)
		sh.Evaluate(now)

		// Critical rung: prediction-only evaluation at a later time — the
		// nodes have moved (predictively) but no updates were applied.
		un.SetDegradedEval(true)
		sh.SetDegradedEval(true)
		for _, later := range []float64{now + 1, now + 3, now + 9} {
			ru := un.Evaluate(later)
			rs := sh.Evaluate(later)
			if !equalResults(ru, rs) {
				t.Fatalf("seed %d t=%v: degraded engines disagree:\n un=%v\n sh=%v", seed, later, ru, rs)
			}
			for qi := range ru {
				if len(ru[qi]) > len(full[qi]) {
					t.Fatalf("seed %d q%d: degraded result grew: %d > %d", seed, qi, len(ru[qi]), len(full[qi]))
				}
				seen := map[int]bool{}
				for _, id := range full[qi] {
					seen[id] = true
				}
				for _, id := range ru[qi] {
					if !seen[id] {
						t.Fatalf("seed %d q%d: degraded result admitted node %d absent from the full result", seed, qi, id)
					}
				}
			}
			full = ru // the next degraded round filters this one
		}

		// Recovery: degradation off restores normal evaluation, and the
		// engines still agree (the index catches back up).
		un.SetDegradedEval(false)
		sh.SetDegradedEval(false)
		feed(w.step(now + 10))
		ru := un.Evaluate(now + 10)
		rs := sh.Evaluate(now + 10)
		if !equalResults(ru, rs) {
			t.Fatalf("seed %d: engines disagree after recovery:\n un=%v\n sh=%v", seed, ru, rs)
		}
	}
}

// TestCompactionDeferral: deferring compaction must not change results —
// it only postpones index maintenance — and lifting the deferral lets
// the sharded engine compact again.
func TestCompactionDeferral(t *testing.T) {
	cfg := baseConfig()
	normal, err := engine.New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	deferred, err := engine.New(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	queries := testQueries(rng.New(5))
	normal.RegisterQueries(queries)
	deferred.RegisterQueries(queries)
	deferred.SetCompactionDeferred(true)

	w1, w2 := newWorkload(3, cfg.Nodes), newWorkload(3, cfg.Nodes)
	for step := 0; step < 30; step++ {
		now := float64(step)
		for _, u := range w1.step(now) {
			normal.IngestShedOldest(u)
		}
		for _, u := range w2.step(now) {
			deferred.IngestShedOldest(u)
		}
		normal.Drain(-1)
		deferred.Drain(-1)
		rn := normal.Evaluate(now)
		rd := deferred.Evaluate(now)
		if !equalResults(rn, rd) {
			t.Fatalf("step %d: compaction deferral changed results:\n normal=%v\n deferred=%v", step, rn, rd)
		}
	}
	deferred.SetCompactionDeferred(false)
	now := 31.0
	for _, u := range w2.step(now) {
		deferred.IngestShedOldest(u)
	}
	deferred.Drain(-1)
	deferred.Evaluate(now) // must not panic with maintenance re-enabled
}
