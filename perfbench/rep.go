package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mptcpsim"
	"mptcpsim/internal/lp"
)

// rep is the outcome of one repetition: one whole sweep of a workload's
// grid, driven the way `sweep -stream` drives it.
type rep struct {
	runs, failed int
	wall         time.Duration // Sweep.Stream, fsync'd run-log included
	cpu          time.Duration // process user+sys over the Stream
	allocBytes   uint64
	allocs       uint64
	gcCycles     uint32
	digest       string // hash of the run-log records sorted by index
	meanGapPct   float64
	coldSolves   int   // LP baselines solved (cache size after the reset)
	logBytes     int64 // run-log size without the header
}

// runRep executes one repetition of the grid stored at gridPath with the
// given worker count, then reads the run-log back and checks it. A check
// failure is returned as an error. With a tracer the repetition is the
// traced one: Sweep.Telemetry is on, the extra sinks see every run after
// the run-log and the AggSink, and spans are recorded around Describe,
// each run, the run-log's Accept/Sync/Close and ReadRunLog.
func runRep(gridPath, logPath string, workers int, tr *tracer, extra ...mptcpsim.RunSink) (rep, error) {
	var out rep
	mptcpsim.ResetBaselineCache()
	// Start every repetition from a collected heap, so GC work left over
	// from the previous one is not charged to this one.
	runtime.GC()

	sweep := &mptcpsim.Sweep{Workers: workers, Telemetry: tr != nil}
	su, err := setUp(sweep, gridPath, logPath, tr)
	if err != nil {
		return out, err
	}
	defer su.f.Close()
	grid, digest, total, f := su.grid, su.digest, su.total, su.f

	var sink mptcpsim.RunSink = su.sink
	var spans *spanSink
	if tr != nil {
		spans = &spanSink{t: tr, inner: su.sink}
		sink = spans
	}
	agg := &mptcpsim.AggSink{}
	chain := mptcpsim.MultiSink(append([]mptcpsim.RunSink{sink, agg}, extra...)...)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	if spans != nil {
		spans.lastDone = tr.now()
	}
	t1 := time.Now()
	if err := sweep.Stream(grid, mptcpsim.StreamSpec{}, chain); err != nil {
		return out, err
	}
	out.wall = time.Since(t1)
	out.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	out.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	out.allocs = ms1.Mallocs - ms0.Mallocs
	out.gcCycles = ms1.NumGC - ms0.NumGC
	out.coldSolves = lp.BaselineCacheSize()
	if err := f.Close(); err != nil {
		return out, err
	}

	var log *mptcpsim.RunLog
	if err := tr.do("runlog.read", func() error {
		rf, err := os.Open(logPath)
		if err != nil {
			return err
		}
		defer rf.Close()
		log, err = mptcpsim.ReadRunLog(rf)
		return err
	}); err != nil {
		return out, fmt.Errorf("run-log does not read back: %w", err)
	}
	out.runs = len(log.Runs)
	out.failed = log.Errs()
	if agg.Errors > out.failed {
		out.failed = agg.Errors
	}
	if agg.Gap.N > 0 {
		out.meanGapPct = 100 * agg.Gap.Mean
	}
	if out.digest, err = checkLog(log, digest, total); err != nil {
		return out, err
	}
	if agg.Runs+agg.Errors != total {
		return out, fmt.Errorf("aggregate saw %d runs, grid has %d", agg.Runs+agg.Errors, total)
	}
	st, err := os.Stat(logPath)
	if err != nil {
		return out, err
	}
	out.logBytes = st.Size() - su.headerBytes
	return out, nil
}

// setup is what a user waits for before the first run is dispatched: the
// grid loaded, expanded and digested, and the run-log created with its
// header synced.
type setup struct {
	grid        *mptcpsim.Grid
	digest      string
	total       int
	f           *os.File
	sink        *mptcpsim.LogSink
	headerBytes int64
}

// setUp performs the set-up. On success the caller owns su.f.
func setUp(sweep *mptcpsim.Sweep, gridPath, logPath string, tr *tracer) (su setup, err error) {
	gf, err := os.Open(gridPath)
	if err != nil {
		return su, err
	}
	su.grid, err = mptcpsim.LoadGrid(gf)
	gf.Close()
	if err != nil {
		return su, err
	}
	if err := tr.do("describe", func() (err error) {
		su.digest, su.total, err = sweep.Describe(su.grid)
		return err
	}); err != nil {
		return su, err
	}
	if su.f, err = os.Create(logPath); err != nil {
		return su, err
	}
	syncFn := su.f.Sync
	if tr != nil {
		syncFn = func() error { return tr.do("runlog.sync", su.f.Sync) }
	}
	header := mptcpsim.RunLogHeader{Version: mptcpsim.RunLogVersion, GridDigest: su.digest, K: 0, N: 1, Total: su.total}
	if su.sink, err = mptcpsim.NewLogSink(su.f, header, mptcpsim.LogOptions{Sync: syncFn}); err != nil {
		su.f.Close()
		return su, err
	}
	if su.headerBytes, err = su.f.Seek(0, io.SeekCurrent); err != nil {
		su.f.Close()
		return su, err
	}
	return su, nil
}

// setupOnly performs one set-up without running the sweep.
func setupOnly(gridPath, logPath string) error {
	su, err := setUp(&mptcpsim.Sweep{}, gridPath, logPath, nil)
	if err != nil {
		return err
	}
	return su.f.Close()
}

// checkLog verifies a read-back run-log against the sweep's Describe
// output and returns the digest of its records sorted by index.
func checkLog(log *mptcpsim.RunLog, digest string, total int) (string, error) {
	if log.Torn() {
		return "", fmt.Errorf("run-log torn at byte %d", log.TornTail)
	}
	if log.Header.GridDigest != digest || log.Header.Total != total {
		return "", fmt.Errorf("run-log header (digest %.12s, total %d) does not match Describe (%.12s, %d)",
			log.Header.GridDigest, log.Header.Total, digest, total)
	}
	if len(log.Runs) != total {
		return "", fmt.Errorf("run-log holds %d records, grid has %d runs", len(log.Runs), total)
	}
	recs := append([]mptcpsim.RunRecord(nil), log.Runs...)
	sort.Slice(recs, func(i, j int) bool { return recs[i].Run.Index < recs[j].Run.Index })
	h := sha256.New()
	for i, rec := range recs {
		// ReadRunLog refuses duplicate indices, so total records sorted by
		// index cover 0..total-1 exactly once iff each sits at its slot.
		if rec.Run.Index != i {
			return "", fmt.Errorf("run-log is missing run index %d", i)
		}
		if rec.Run.Err != "" {
			return "", fmt.Errorf("run %d failed: %s", i, rec.Run.Err)
		}
		b, err := json.Marshal(rec)
		if err != nil {
			return "", err
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeGrid generates a workload's grid from the seed and writes it as the
// JSON the simulator loads.
func writeGrid(dir, workload string, seed uint64) (string, error) {
	g := generators[workload](seed)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(g); err != nil {
		return "", err
	}
	p := filepath.Join(dir, fmt.Sprintf("grid-%s-%d.json", workload, seed))
	return p, os.WriteFile(p, buf.Bytes(), 0o644)
}
