// Command sweep runs a parameter grid of experiments in parallel and
// reports per-run optimality gaps against the LP baseline plus aggregate
// statistics per (scenario, perturbation, cc, scheduler) cell.
//
// Without -grid it runs the paper question as a batch: every
// congestion-control algorithm crossed with four subflow orderings on the
// Fig. 1a network (24 runs). A JSON grid spec (see mptcpsim.Grid) selects
// arbitrary axes, including scenario files and link perturbations:
//
//	{
//	  "ccs": ["cubic", "olia"],
//	  "orders": [[2,1,3], [1,2,3]],
//	  "seeds": [1, 2, 3],
//	  "perturbations": [
//	    {"name": "base"},
//	    {"name": "lossy", "loss": 0.005},
//	    {"name": "shallow", "queue_scale": 0.25}
//	  ],
//	  "events": [
//	    {"name": "static"},
//	    {"name": "outage", "events": [
//	      {"at_ms": 2000, "type": "link_down", "a": "s", "b": "v1"}]}
//	  ],
//	  "scenarios": [{"name": "paper", "paper": true},
//	                {"name": "mine", "file": "mine.json"}]
//	}
//
// Output is deterministic for a given grid regardless of -workers: run
// indices follow grid expansion order and contain no wall-clock data.
// -check attaches the invariant oracle to every run; a violation fails
// the run like any other error.
//
// Grids too large to hold in memory stream instead: -stream appends one
// NDJSON record per run to a run-log as runs complete (fsync'd in
// batches), keeping peak memory flat in grid size, then renders the
// report and output files from the log in a merge-style second pass —
// byte-identical to the in-memory sweep. A killed sweep continues with
// -resume, which skips already-logged runs and rewrites a torn trailing
// record.
//
// Large grids shard across processes or machines: -shard k/n streams the
// deterministic 1/n slice of the grid (expansion index % n == k) into its
// run-log, and -merge reassembles the n run-logs into output
// byte-identical to the unsharded sweep:
//
//	sweep -grid grid.json -stream sweep.ndjson -json sweep.json
//	sweep -grid grid.json -resume sweep.ndjson -json sweep.json  # after a crash
//	sweep -grid grid.json -shard 0/4 -q -stream shard-0.ndjson   # x4, anywhere
//	sweep -merge -json sweep.json shard-*.ndjson
//
// Examples:
//
//	sweep -workers 8
//	sweep -grid grid.json -csv runs.csv -groups groups.csv -json sweep.json
//	sweep -seeds 5 -duration 8s -quiet -check
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"mptcpsim"
	"mptcpsim/internal/cli"
	"mptcpsim/internal/fleet"
	"mptcpsim/internal/prof"
	"mptcpsim/internal/telemetry"
)

// usageMatrix documents which flag combinations form a mode; flag.Usage
// prints it above the per-flag help.
const usageMatrix = `Modes and supported flag combinations:

  sweep [flags]                  in-memory sweep: report to stdout, plus
                                 -csv/-groups/-json output files
  sweep -stream f.ndjson         flat-memory sweep: every run appended to an
                                 NDJSON run-log, report and output files
                                 rendered from the log in a second pass,
                                 byte-identical to the in-memory sweep
  sweep -resume f.ndjson         continue an interrupted -stream sweep:
                                 logged runs are skipped, a torn trailing
                                 record is truncated and re-executed
  sweep -shard k/n -stream f     one grid slice -> mergeable run-log
                                 (aggregate outputs refused; use -merge;
                                 -resume continues it like any run-log)
  sweep -merge a.ndjson b.ndjson merge shard run-logs with matching grid
                                 digests into the full output

-stream and -resume are mutually exclusive.

Flags:
`

// config carries the resolved command line.
type config struct {
	gridPath     string
	workers      int
	seeds        int
	duration     time.Duration
	csvPath      string
	groupsPath   string
	jsonPath     string
	quiet        bool
	check        bool
	shard        string
	merge        bool
	shardPaths   []string
	telemetry    bool
	progressPath string
	httpAddr     string
	flightDir    string
	eventLimit   uint64
	streamPath   string
	resumePath   string
	workerID     string
	lease        int
}

func main() {
	var cfg config
	flag.StringVar(&cfg.gridPath, "grid", "", "JSON grid spec (default: built-in paper grid, all CCs x 4 orderings)")
	flag.IntVar(&cfg.workers, "workers", runtime.GOMAXPROCS(0), "parallel worker goroutines")
	flag.IntVar(&cfg.seeds, "seeds", 1, "seeds 1..n (ignored when the grid file lists seeds)")
	flag.DurationVar(&cfg.duration, "duration", 0, "traffic duration override (0 = grid / 4s default)")
	flag.StringVar(&cfg.csvPath, "csv", "", "write the per-run table to this CSV file")
	flag.StringVar(&cfg.groupsPath, "groups", "", "write the aggregate table to this CSV file")
	flag.StringVar(&cfg.jsonPath, "json", "", "write the full result (runs + groups) to this JSON file")
	flag.BoolVar(&cfg.quiet, "quiet", false, "suppress per-run progress lines")
	flag.BoolVar(&cfg.quiet, "q", false, "shorthand for -quiet")
	flag.BoolVar(&cfg.check, "check", false, "validate correctness invariants on every run")
	flag.StringVar(&cfg.shard, "shard", "", "run only the k/n slice of the grid (e.g. 0/4) into the -stream run-log")
	flag.BoolVar(&cfg.merge, "merge", false, "merge the shard run-logs named as arguments instead of sweeping")
	flag.BoolVar(&cfg.telemetry, "telemetry", false, "collect engine counters per run and report the sweep-wide rollup")
	flag.StringVar(&cfg.progressPath, "progress", "", "stream NDJSON progress heartbeats to this file (- = stderr)")
	flag.StringVar(&cfg.httpAddr, "http", "", "serve expvar + pprof debug endpoints on this address (e.g. :6060)")
	flag.StringVar(&cfg.flightDir, "flightdir", "", "dump failed runs' flight-recorder tails to this directory (implies -telemetry)")
	flag.Uint64Var(&cfg.eventLimit, "eventlimit", 0, "abort any run after this many simulation events (0 = no limit)")
	flag.StringVar(&cfg.streamPath, "stream", "", "stream the sweep to this NDJSON run-log and render outputs from it (flat memory)")
	flag.StringVar(&cfg.resumePath, "resume", "", "resume an interrupted -stream sweep from this run-log, skipping logged runs")
	flag.StringVar(&cfg.workerID, "worker-id", "", "stamp this fleet worker id into the run-log header (provenance only)")
	flag.IntVar(&cfg.lease, "lease", 0, "stamp this fleet lease epoch into the run-log header (provenance only)")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
	memProf := flag.String("memprofile", "", "write an allocation profile to this file at exit")
	flag.Usage = func() {
		w := flag.CommandLine.Output()
		fmt.Fprintf(w, "Usage of %s:\n\n", os.Args[0])
		fmt.Fprint(w, usageMatrix)
		flag.PrintDefaults()
	}
	flag.Parse()
	cfg.shardPaths = flag.Args()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	runErr := run(cfg, os.Stdout, os.Stderr)
	if runErr != nil {
		// Report before the profile teardown so a failing teardown cannot
		// mask the sweep's own diagnostic.
		fmt.Fprintln(os.Stderr, "sweep:", runErr)
	}
	if err := stopProf(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
	if runErr != nil {
		os.Exit(1)
	}
}

// run executes the whole command against the given streams: progress and
// timing go to stderr, the deterministic report to stdout.
func run(cfg config, stdout, stderr io.Writer) error {
	if cfg.merge {
		return runMerge(cfg, stdout)
	}
	if len(cfg.shardPaths) > 0 {
		return fmt.Errorf("unexpected arguments %v (shard run-logs are only read with -merge)", cfg.shardPaths)
	}
	if cfg.streamPath != "" && cfg.resumePath != "" {
		return fmt.Errorf("-stream starts a fresh run-log and -resume continues one; pass exactly one")
	}
	shard := mptcpsim.Shard{K: 0, N: 1}
	if cfg.shard != "" {
		var err error
		if shard, err = mptcpsim.ParseShard(cfg.shard); err != nil {
			return err
		}
		if cfg.csvPath != "" || cfg.groupsPath != "" || cfg.jsonPath != "" {
			return fmt.Errorf("-csv/-groups/-json aggregate the whole grid; write them from -merge, not a shard")
		}
		if cfg.streamPath == "" && cfg.resumePath == "" {
			return fmt.Errorf("-shard writes its slice as a mergeable run-log: name it with -stream shard-%d.ndjson (or -resume)", shard.K)
		}
	}
	grid, err := cli.LoadGrid(cfg.gridPath)
	if err != nil {
		return err
	}
	if len(grid.Seeds) == 0 && cfg.seeds > 1 {
		for s := 1; s <= cfg.seeds; s++ {
			grid.Seeds = append(grid.Seeds, int64(s))
		}
	}
	if cfg.duration > 0 {
		grid.DurationMs = float64(cfg.duration) / float64(time.Millisecond)
	}
	if cfg.eventLimit > 0 {
		grid.Base.EventLimit = cfg.eventLimit
	}
	if cfg.flightDir != "" {
		// Flight dumps need the recorder attached to every run.
		cfg.telemetry = true
	}
	sweep := &mptcpsim.Sweep{Workers: cfg.workers, ValidateInvariants: cfg.check,
		Telemetry: cfg.telemetry}

	// Everything the command shows per run rides the sweep's sink chain
	// after the results sinks: flight dumps, the -progress meter, and the
	// progress lines.
	var hooks []mptcpsim.RunSink
	if cfg.flightDir != "" {
		if err := os.MkdirAll(cfg.flightDir, 0o777); err != nil {
			return err
		}
		hooks = append(hooks, flightSink(cfg.flightDir, stderr))
	}
	var meter *telemetry.Meter
	if cfg.progressPath != "" {
		specs, err := grid.Expand()
		if err != nil {
			return err
		}
		m, stopMeter, err := cli.StartMeter(cfg.progressPath, shard.Len(len(specs)), cfg.workers, stderr)
		if err != nil {
			return err
		}
		defer stopMeter()
		meter = m
		hooks = append(hooks, sinkFunc(func(_, _ int, r mptcpsim.RunSummary, _ *mptcpsim.Result) {
			m.Record(r.Err != "")
		}))
	}
	if !cfg.quiet {
		hooks = append(hooks, progressSink(stderr))
	}
	if cfg.httpAddr != "" {
		addr, closeSrv, err := telemetry.DebugServer(cfg.httpAddr)
		if err != nil {
			return err
		}
		defer closeSrv()
		fmt.Fprintf(stderr, "debug endpoint on http://%s/debug/vars\n", addr)
	}

	if cfg.streamPath != "" || cfg.resumePath != "" {
		return runStream(cfg, grid, shard, sweep, meter, hooks, stdout, stderr)
	}
	start := time.Now()
	res, err := sweep.Run(grid, hooks...)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "completed %d runs in %v with %d workers\n",
		len(res.Runs), time.Since(start).Round(time.Millisecond), cfg.workers)
	return cli.Report(res, cfg.outputs(), stdout)
}

// outputs collects the output-file flags.
func (cfg config) outputs() cli.Outputs {
	return cli.Outputs{CSV: cfg.csvPath, Groups: cfg.groupsPath, JSON: cfg.jsonPath}
}

// sinkFunc adapts a per-run callback to a mptcpsim.RunSink with nothing
// to flush or close.
type sinkFunc func(done, total int, r mptcpsim.RunSummary, full *mptcpsim.Result)

func (f sinkFunc) Accept(done, total int, r mptcpsim.RunSummary, full *mptcpsim.Result) error {
	f(done, total, r, full)
	return nil
}

func (sinkFunc) Flush() error { return nil }
func (sinkFunc) Close() error { return nil }

// progressSink prints one line per completed run.
func progressSink(stderr io.Writer) sinkFunc {
	return func(done, total int, r mptcpsim.RunSummary, _ *mptcpsim.Result) {
		status := fmt.Sprintf("gap %5.1f%%", r.Gap*100)
		if r.Converged {
			status += fmt.Sprintf(", converged at %.2fs", r.ConvergedAtS)
		}
		if r.Err != "" {
			status = "error: " + r.Err
		}
		fmt.Fprintf(stderr, "[%3d/%d] %s/%s/%s cc=%-6s sched=%-10s order=%-7s seed=%d  %s\n",
			done, total, r.Scenario, r.Perturbation, r.Events, r.CC,
			r.Scheduler, r.OrderString(), r.Seed, status)
	}
}

// flightSink dumps each failed run's flight-recorder tail into dir.
func flightSink(dir string, stderr io.Writer) sinkFunc {
	return func(_, _ int, r mptcpsim.RunSummary, res *mptcpsim.Result) {
		if r.Err == "" || res == nil || res.FlightEvents() == 0 {
			return
		}
		path := filepath.Join(dir, fmt.Sprintf("flight-%d.ndjson", r.Index))
		if err := cli.WriteFile(path, res.WriteFlightRecorder); err != nil {
			fmt.Fprintf(stderr, "flight dump %s: %v\n", path, err)
			return
		}
		fmt.Fprintf(stderr, "run %d failed; flight tail in %s\n", r.Index, path)
	}
}

// runStream executes the sweep through the flat-memory run-log path: every
// completed run is appended to the NDJSON log (and nothing is retained in
// memory), then the report and output files are rendered from the log in a
// merge-style second pass — byte-identical to the in-memory sweep. With
// -resume the log's already-recorded runs are skipped and a torn trailing
// record (the signature of a killed writer) is truncated and re-executed.
// A sharded stream stops at the log: it is the mergeable artifact.
func runStream(cfg config, grid *mptcpsim.Grid, shard mptcpsim.Shard, sweep *mptcpsim.Sweep, meter *telemetry.Meter, hooks []mptcpsim.RunSink, stdout, stderr io.Writer) error {
	path := cfg.streamPath
	if path == "" {
		path = cfg.resumePath
	} else if err := os.Truncate(path, 0); err != nil && !errors.Is(err, fs.ErrNotExist) {
		// A fresh -stream discards whatever the file held.
		return err
	}
	digest, total, err := sweep.Describe(grid)
	if err != nil {
		return err
	}
	header := mptcpsim.RunLogHeader{GridDigest: digest, K: shard.K, N: shard.N, Total: total,
		Worker: cfg.workerID, Lease: cfg.lease}
	f, skip, prevErrs, onDisk, err := fleet.OpenShardLog(path, header, stderr)
	if err != nil {
		return err
	}
	defer func() {
		if f != nil {
			f.Close()
		}
	}()
	sink, err := mptcpsim.NewLogSink(f, header, mptcpsim.LogOptions{Sync: f.Sync, Resume: onDisk})
	if err != nil {
		return err
	}
	roll := &mptcpsim.RollupSink{}
	if meter != nil && len(skip) > 0 {
		meter.Resume(len(skip), prevErrs)
	}

	start := time.Now()
	spec := mptcpsim.StreamSpec{Shard: shard}
	if len(skip) > 0 {
		spec.Skip = func(index int) bool { return skip[index] }
	}
	if err := sweep.Stream(grid, spec, mptcpsim.MultiSink(append([]mptcpsim.RunSink{sink, roll}, hooks...)...)); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	f = nil

	// Read the committed log back: the second pass trusts only what is on
	// disk, so the rendered outputs are exactly what a later -merge of this
	// log would produce.
	log, err := readRunLog(path)
	if err != nil {
		return err
	}
	if log.Torn() {
		return fmt.Errorf("%s: torn trailing record after a completed sweep (is something else writing it?)", path)
	}
	fmt.Fprintf(stderr, "streamed %d runs (%d resumed from log) in %v with %d workers\n",
		len(log.Runs)-len(skip), len(skip), time.Since(start).Round(time.Millisecond), cfg.workers)

	if shard.N > 1 {
		fmt.Fprintln(stdout, "wrote", path)
		if n := log.Errs(); n > 0 {
			return fmt.Errorf("%d of %d shard runs failed", n, len(log.Runs))
		}
		return nil
	}
	res, err := mptcpsim.MergeShards(log)
	if err != nil {
		return err
	}
	if cfg.telemetry {
		if len(skip) > 0 {
			// The rollup covers only this execution's runs; attaching it
			// after a resume would report a partial grid as the whole.
			fmt.Fprintln(stderr, "telemetry rollup omitted: resume re-executed only the unlogged runs")
		} else {
			res.Telemetry = &roll.Rollup
		}
	}
	return cli.Report(res, cfg.outputs(), stdout)
}

// readRunLog parses the run-log at path.
func readRunLog(path string) (*mptcpsim.RunLog, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	log, err := mptcpsim.ReadRunLog(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return log, nil
}

// runMerge reassembles shard run-logs into the unsharded sweep result and
// renders the usual report and output files from it. A torn log is
// refused: its sweep was interrupted, and -resume finishes it.
func runMerge(cfg config, stdout io.Writer) error {
	if cfg.gridPath != "" || cfg.shard != "" || cfg.streamPath != "" || cfg.resumePath != "" {
		return fmt.Errorf("-merge reads shard run-logs; it takes none of -grid/-shard/-stream/-resume")
	}
	if len(cfg.shardPaths) == 0 {
		return fmt.Errorf("-merge needs at least one shard artifact (run-log) argument")
	}
	logs := make([]*mptcpsim.RunLog, len(cfg.shardPaths))
	for i, path := range cfg.shardPaths {
		log, err := readRunLog(path)
		if err != nil {
			return err
		}
		if log.Torn() {
			return fmt.Errorf("%s: torn trailing record at byte %d — the sweep was interrupted; finish it with -resume %s before merging",
				path, log.TornTail, path)
		}
		logs[i] = log
	}
	res, err := mptcpsim.MergeShards(logs...)
	if err != nil {
		return err
	}
	return cli.Report(res, cfg.outputs(), stdout)
}
