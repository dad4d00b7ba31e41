package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime/pprof"

	"mptcpsim"
)

// layerTotals accumulates one workload's traced repetitions.
type layerTotals struct {
	runs       int
	roll       *mptcpsim.RollupSink
	counts     *countSink
	coldSolves int
	logBytes   int64
	profileNs  map[string]int64
	tracer     *tracer
	// Per-repetition samples: traced and untraced runs/s at one worker,
	// and GC cycles per run in the untraced repetitions.
	tracedRPS, plainRPS, gcPerRun []float64
}

// tracedPass measures the per-layer metrics. After one untraced warm-up at
// cfg.workers (the reference digest), it alternates, per workload, an
// untraced and a traced repetition at one worker. The traced one turns on
// Sweep.Telemetry with a RollupSink, records spans around Describe, each
// run, the run-log's Accept/Sync/Close and ReadRunLog, and takes a CPU
// profile. The untraced one gives the tracing overhead and GC counts. All
// of them must reproduce the warm-up's output digest, which proves that
// telemetry and the worker count only observe.
func tracedPass(cfg config, ws []*workloadRun) error {
	// Raise the LP cache bound so its size after a reset counts every
	// cold solve of a repetition.
	mptcpsim.SetBaselineCacheCap(1 << 20)
	defer mptcpsim.SetBaselineCacheCap(0)

	tot := map[*workloadRun]*layerTotals{}
	for _, w := range ws {
		r, err := runRep(w.grid, w.log, cfg.workers, nil)
		if err := w.record(r, err, "warm-up"); err != nil {
			return err
		}
		tot[w] = &layerTotals{roll: &mptcpsim.RollupSink{}, counts: &countSink{},
			profileNs: map[string]int64{}, tracer: newTracer()}
	}
	err := measureLoop(cfg.seconds, ws, func(w *workloadRun) error {
		t := tot[w]
		r, err := runRep(w.grid, w.log, 1, nil)
		if err := w.record(r, err, "untraced 1-worker repetition"); err != nil {
			return err
		}
		t.plainRPS = append(t.plainRPS, float64(r.runs)/r.wall.Seconds())
		t.gcPerRun = append(t.gcPerRun, float64(r.gcCycles)/float64(r.runs))
		return tracedRep(w, t)
	})
	for _, w := range ws {
		t := tot[w]
		if t == nil || t.runs == 0 {
			continue
		}
		w.metrics = t.metrics()
		if werr := t.tracer.write(filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.ndjson", w.name, cfg.seed))); werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

// tracedRep runs one traced repetition at one worker.
func tracedRep(w *workloadRun, t *layerTotals) error {
	tr := t.tracer
	tr.rep++
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	root := tr.begin("rep")
	r, err := runRep(w.grid, w.log, 1, tr, t.roll, t.counts)
	tr.end(root)
	pprof.StopCPUProfile()
	if err := w.record(r, err, "traced repetition"); err != nil {
		return err
	}
	samples, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for l, ns := range foldByLayer(samples) {
		t.profileNs[l] += ns
	}
	t.runs += r.runs
	t.coldSolves += r.coldSolves
	t.logBytes += r.logBytes
	t.tracedRPS = append(t.tracedRPS, float64(r.runs)/r.wall.Seconds())
	return nil
}

// metrics derives the per-layer metrics from the traced repetitions.
func (t *layerTotals) metrics() map[string]metric {
	runs := float64(t.runs)
	roll := t.roll.Rollup
	var profTotal int64
	for _, ns := range t.profileNs {
		profTotal += ns
	}
	share := func(layer string) float64 {
		if profTotal == 0 {
			return 0
		}
		return 100 * float64(t.profileNs[layer]) / float64(profTotal)
	}
	per := func(ns int64, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(ns) / n
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	sp := t.tracer.summary()
	v := map[string]float64{
		"sim.events_per_run":          float64(t.counts.events) / runs,
		"sim.stale_ratio":             1 - ratio(roll.EventsFired, roll.EventsScheduled),
		"sim.heap_peak":               float64(roll.HeapPeak),
		"sim.ns_per_event":            per(t.profileNs["sim"], float64(t.counts.events)),
		"netem.tx_packets_per_run":    float64(roll.TxPackets) / runs,
		"netem.drop_ratio":            ratio(roll.Drops, roll.Offered),
		"netem.ns_per_packet":         per(t.profileNs["netem"], float64(roll.TxPackets)),
		"tcp.retransmits_per_run":     float64(roll.Retransmits) / runs,
		"tcp.rtos_per_run":            float64(roll.RTOs) / runs,
		"tcp.fast_recoveries_per_run": float64(roll.FastRecoveries) / runs,
		"mptcp.sched_picks_per_run":   float64(roll.SchedPicks) / runs,
		"mptcp.dup_ratio":             ratio(t.counts.duplicate, t.counts.delivered+t.counts.duplicate),
		"lp.cold_solves_per_run":      float64(t.coldSolves) / runs,
		"lp.us_per_cold_solve":        per(t.profileNs["lp"], float64(t.coldSolves)) / 1e3,
		"sweep.describe_ms":           sp.describeMs,
		"sweep.run_ms_p50":            sp.runMsP50,
		"sweep.run_ms_p95":            sp.runMsP95,
		"runlog.accept_us_per_record": sp.acceptUs,
		"runlog.bytes_per_record":     float64(t.logBytes) / runs,
		"runlog.sync_ms_total":        sp.syncMsPerRep,
		"runlog.read_us_per_record":   sp.readUs,
		"gc.cycles_per_run":           median(t.gcPerRun),
		"trace.overhead_pct":          100 * (1 - median(t.tracedRPS)/median(t.plainRPS)),
	}
	for _, l := range layers {
		v[l+".self_pct"] = share(l)
	}
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}
