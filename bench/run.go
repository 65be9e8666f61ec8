package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// setups is how many times a run boots lirad to the measured state; the
// reported setup_s is the median, and the last instance is measured.
const setups = 3

// liveCounts are the measured window's totals the traced pass scales its
// per-unit costs by to account for lirad's CPU seconds.
type liveCounts struct {
	Seconds       float64
	CPUSeconds    float64
	Offered       float64 // records
	Applied       float64
	BatchFrames   float64
	Ticks         float64 // background ticks
	Evaluations   float64 // Evaluate calls: one per tick and one per registration
	ResultFrames  float64
	Adaptations   float64
	Registrations float64
}

// result is one workload's outcome.
type result struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Argv      []string           `json:"lirad_argv"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Info      map[string]float64 `json:"info"` // sample counts and check values, not metrics
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	live      liveCounts
}

// runLive measures one workload through a live lirad child. minSamples is
// the fewest probe latencies a run may report a p99 from.
func runLive(bin string, s *spec, seed uint64, window time.Duration, nSetups, minSamples int) (*result, error) {
	var setupS []float64
	var r *liveRun
	for k := 0; k < nSetups; k++ {
		r = newLiveRun(s, seed)
		err := r.setup(bin)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("set-up %d: %w", k+1, err)
		}
		setupS = append(setupS, time.Since(r.d.started).Seconds())
		if k < nSetups-1 {
			r.close()
		}
	}
	defer r.close()
	if err := r.measure(window); err != nil {
		return nil, err
	}
	return r.score(setupS, window, minSamples)
}

// score turns what a measured run collected into the workload's metrics,
// or into an INVALID or check-failed error.
func (r *liveRun) score(setupS []float64, window time.Duration, minSamples int) (*result, error) {
	s, seed := r.s, r.seed
	rss, err := r.d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	res := &result{Workload: s.Name, Seed: seed, Argv: append([]string{"lirad"}, s.liradArgs()...),
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Info: map[string]float64{}}
	for _, d := range perLayer {
		res.PerLayer[d.Name] = 0 // a metric a workload does not exercise reads 0
	}
	a, err := r.snapAt(r.winStart)
	if err != nil {
		return nil, err
	}
	b, err := r.snapAt(r.winEnd)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return b.m[name] - a.m[name] }
	secs := b.at.Sub(a.at).Seconds()
	offered, applied := delta("lira_ledger_offered"), delta("lira_ledger_applied")
	shed := delta("lira_ledger_ringshed") + delta("lira_ledger_preshed") + delta("lira_ledger_invalid")
	cpu := b.cpu - a.cpu
	if offered <= 0 || applied <= 0 || cpu <= 0 {
		return nil, invalidf("empty window: offered=%v applied=%v cpu=%v", offered, applied, cpu)
	}
	regs := delta("lira_frames_read_query_total")
	res.live = liveCounts{Seconds: secs, CPUSeconds: cpu, Offered: offered, Applied: applied,
		BatchFrames: delta("lira_frames_read_update_batch_total"),
		Evaluations: delta("lira_evaluations_total"), Ticks: delta("lira_evaluations_total") - regs,
		ResultFrames: delta("lira_frames_sent_result_total"),
		Adaptations:  delta("lira_adaptations_total"), Registrations: regs}

	// Probe latencies: the whole window, or the reference steps of a ladder.
	// perStep keeps every step's latencies, +Inf for a miss.
	var lat []float64
	misses, flips := 0, 0
	perStep := make([][]float64, max(1, len(s.Ladder)))
	r.pmu.Lock() // the result reader is still running
	samples := append([]probeSample(nil), r.samples...)
	var frames int64
	for _, f := range r.frames {
		frames += f
	}
	r.pmu.Unlock()
	for _, ps := range samples {
		if ps.step < 0 {
			continue
		}
		perStep[ps.step] = append(perStep[ps.step], ps.ms)
		if s.Ladder != nil && ps.step >= s.RefStep {
			continue
		}
		flips++
		if math.IsInf(ps.ms, 1) {
			misses++
		} else {
			lat = append(lat, ps.ms)
		}
	}
	if len(lat) < minSamples {
		return nil, invalidf("%d probe latencies, need %d", len(lat), minSamples)
	}
	minReg := minSamples / 50 // 20 in a full run
	if len(r.regMs) < minReg {
		return nil, invalidf("%d registration latencies, need %d", len(r.regMs), minReg)
	}
	sort.Float64s(r.late)
	lateP99 := percentile(r.late, 99)
	busyShare := r.busy.Seconds() / window.Seconds()
	if lateP99 > 5 || busyShare > 0.5 {
		return nil, invalidf("generator ran late or hot: late_p99=%.2f ms busy_share=%.2f", lateP99, busyShare)
	}
	w := r.w
	if w.ecN == 0 || w.posErrN == 0 || w.shadowSent == 0 {
		return nil, invalidf("no containment, position-error or shadow samples")
	}
	if ec := w.ecSum / float64(w.ecN); ec >= 0.05 {
		return nil, fmt.Errorf("check failed: sampled containment error %.4f >= 0.05", ec)
	}

	// Sustainable rate: the highest step that shed nothing, met the
	// latency limit, missed no probe and left no growing backlog. Off the
	// ladder the whole window is the single step.
	depth := func(from, to time.Time) (first, second float64) {
		first, second = math.Inf(1), math.Inf(1)
		mid := from.Add(to.Sub(from) / 2)
		for _, sn := range r.snaps {
			if sn.at.Before(from) || !sn.at.Before(to) {
				continue
			}
			if d := sn.m["lira_queue_depth"]; sn.at.Before(mid) {
				first = math.Min(first, d)
			} else {
				second = math.Min(second, d)
			}
		}
		return
	}
	sustainable := 0.0
	for k, stepLat := range perStep {
		from := r.winStart.Add(time.Duration(k) * r.stepLen)
		to := from.Add(r.stepLen)
		sa, err := r.snapAt(from)
		if err != nil {
			return nil, err
		}
		sb, err := r.snapAt(to)
		if err != nil {
			return nil, err
		}
		d := func(name string) float64 { return sb.m[name] - sa.m[name] }
		stepShed := (d("lira_ledger_ringshed") + d("lira_ledger_preshed") + d("lira_ledger_invalid")) / math.Max(d("lira_ledger_offered"), 1)
		p99 := tailPercentile(stepLat, 99)
		missed := len(stepLat) > 0 && math.IsInf(slices.Max(stepLat), 1)
		first, second := depth(from, to)
		if stepShed <= 0.001 && p99 <= sustainP99Ms && !missed && second <= first+queueSize/10 {
			sustainable = d("lira_ledger_applied") / sb.at.Sub(sa.at).Seconds()
		}
		if s.Ladder != nil {
			res.PerLayer["netsvc.step_"+ladderRates[k]+"_p99_ms"] = math.Min(p99, float64(probeTimeout/time.Millisecond))
			res.PerLayer["netsvc.step_"+ladderRates[k]+"_shed_share"] = stepShed
		}
	}

	e := res.EndToEnd
	e["setup_s"] = quantile(setupS, 50)
	e["update_to_result_p50_ms"] = tailPercentile(lat, 50)
	e["update_to_result_p99_ms"] = tailPercentile(lat, 99)
	e["probe_hit_share"] = 1 - float64(misses)/float64(flips)
	e["applied_upd_per_s"] = applied / secs
	e["delivered_share"] = 1 - shed/offered
	e["sustainable_upd_per_s"] = sustainable
	e["server_cpu_s_per_mupd"] = cpu / (applied / 1e6)
	e["server_cpu_cores"] = cpu / secs
	e["server_rss_mb"] = rss
	e["query_pos_err_m"] = w.posErrSum / float64(w.posErrN)
	e["update_fraction"] = float64(w.sent) / float64(w.shadowSent)

	p := res.PerLayer
	p["netsvc.frames_read_batch"] = res.live.BatchFrames
	p["netsvc.records_offered"] = offered
	p["netsvc.records_invalid"] = delta("lira_ledger_invalid")
	p["netsvc.records_preshed"] = delta("lira_ledger_preshed")
	p["netsvc.result_frames_sent"] = delta("lira_frames_sent_result_total")
	p["netsvc.assignment_frames_sent"] = delta("lira_frames_sent_assignment_total")
	p["netsvc.ledger_violations"] = b.m["lira_ledger_violations_total"]
	p["netsvc.register_p50_ms"] = quantile(r.regMs, 50)
	p["netsvc.register_p95_ms"] = tailPercentile(r.regMs, 95)
	p["netsvc.ticks_per_s"] = float64(frames) / float64(s.Queries) / window.Seconds()
	peak := 0.0
	for _, sn := range r.snaps {
		if !sn.at.Before(r.winStart) && sn.at.Before(r.winEnd) {
			peak = math.Max(peak, sn.m["lira_queue_depth"])
		}
	}
	p["engine.queue_depth_peak"] = peak
	p["engine.ring_shed"] = delta("lira_ledger_ringshed")
	p["controlplane.adaptations"] = res.live.Adaptations
	p["gen.busy_share"] = busyShare
	p["gen.late_p99_ms"] = lateP99
	p["gen.sent"] = float64(w.sent + int64(flips))

	res.Attempted = flips + r.regAttempts
	res.Failed = misses + r.regFailed
	res.Info["probe_samples"] = float64(len(lat))
	res.Info["register_samples"] = float64(len(r.regMs))
	res.Info["containment_err"] = w.ecSum / float64(w.ecN)
	res.Info["pos_err_samples"] = float64(w.posErrN)
	for k, v := range setupS {
		res.Info[fmt.Sprintf("setup_%d_s", k+1)] = v
	}
	return res, nil
}
