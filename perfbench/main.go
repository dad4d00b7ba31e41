// Command perfbench is the repository benchmark: it times whole sweeps of
// the paper's experiment the way `sweep -stream` runs them, checks every
// output, and in a separate traced pass splits the cost by layer. See
// README.md in this directory for the workloads and metrics.
//
//	bash perfbench/run.sh --workload paper_bulk --seed 1 --seconds 30 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 60
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is non-zero
// when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is the parsed command line.
type config struct {
	workloads []string
	seed      uint64
	seconds   float64
	trace     bool
	workdir   string
	// workers is the end-to-end pass's Sweep.Workers: one per CPU, a
	// closed loop that hands a worker its next run when its last one ends.
	workers int
}

// result is the machine-readable last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var (
		cfg      = config{workers: runtime.NumCPU()}
		workload string
		trace    int
	)
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&workload, "workload", "all", "workload name, a comma-separated list run interleaved, or all: "+strings.Join(workloadNames, ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same grids")
	fs.Float64Var(&cfg.seconds, "seconds", 30, "measuring time after the warm-up")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced pass with per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "perfbench", "work"), "directory for grids, run-logs and span files")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace takes 0 or 1, not %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.seconds < 0 {
		return cfg, fmt.Errorf("-seconds must be >= 0")
	}
	if workload == "all" {
		cfg.workloads = workloadNames
	} else {
		seen := map[string]bool{}
		for _, w := range strings.Split(workload, ",") {
			if generators[w] == nil {
				return cfg, fmt.Errorf("unknown workload %q (have %s)", w, strings.Join(workloadNames, ", "))
			}
			if seen[w] {
				return cfg, fmt.Errorf("workload %q listed twice", w)
			}
			seen[w] = true
			cfg.workloads = append(cfg.workloads, w)
		}
	}
	return cfg, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	ws := make([]*workloadRun, len(cfg.workloads))
	for i, name := range cfg.workloads {
		grid, err := writeGrid(cfg.workdir, name, cfg.seed)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		ws[i] = &workloadRun{name: name, grid: grid, log: filepath.Join(cfg.workdir, name+".ndjson")}
	}

	var runErr error
	if cfg.trace {
		runErr = tracedPass(cfg, ws)
	} else {
		runErr = timedPass(cfg, ws)
	}

	res := result{Correct: runErr == nil, Metrics: map[string]metric{}}
	for _, w := range ws {
		res.Attempted += w.attempted
		res.Failed += w.failed
		prefix := ""
		if len(ws) > 1 {
			prefix = w.name + "."
		}
		for k, v := range w.metrics {
			res.Metrics[prefix+k] = v
		}
		w.print(stdout, cfg)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if runErr != nil {
		fmt.Fprintln(stderr, "perfbench: output check failed:", runErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// workloadRun accumulates one workload's repetitions.
type workloadRun struct {
	name, grid, log string
	runsPerRep      int
	reps            int
	attempted       int
	failed          int
	digest          string // the reference output digest (warm-up)
	meanGapPct      float64
	metrics         map[string]metric

	// samples holds the end-to-end samples by metric name: one per timed
	// repetition, and for setup_s one per set-up batch.
	samples map[string][]float64
}

// record checks a repetition against the reference digest and counts it.
func (w *workloadRun) record(r rep, err error, what string) error {
	w.attempted += r.runs
	w.failed += r.failed
	w.reps++
	if err != nil {
		return fmt.Errorf("%s %s: %w", w.name, what, err)
	}
	if w.digest == "" {
		w.digest, w.runsPerRep, w.meanGapPct = r.digest, r.runs, r.meanGapPct
	} else if r.digest != w.digest {
		return fmt.Errorf("%s %s: output digest %.16s differs from the warm-up's %.16s", w.name, what, r.digest, w.digest)
	}
	return nil
}

// measureLoop runs step for every workload in turn (A B C A B C ...)
// until the time is up, at least once each.
func measureLoop(seconds float64, ws []*workloadRun, step func(*workloadRun) error) error {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		for _, w := range ws {
			if err := step(w); err != nil {
				return err
			}
		}
	}
	return nil
}

// Set-up takes milliseconds, so it is timed apart from the repetitions,
// in batches of setupsPerBatch back-to-back set-ups: setupBatches after the
// warm-up and one more after each timed repetition, so the samples span
// the whole measuring time. A batch averages out sub-millisecond scheduler
// and cache jitter; setup_s is the median batch's time per set-up. No GC is
// forced before a batch: a freshly collected heap makes every set-up fault
// its pages in again, which on a shared VM adds the host's noise.
const (
	setupBatches   = 15
	setupsPerBatch = 8
)

// timeSetups appends n set-up batch samples to w.samples["setup_s"].
func (w *workloadRun) timeSetups(n int) error {
	for i := 0; i < n; i++ {
		t0 := time.Now()
		for j := 0; j < setupsPerBatch; j++ {
			if err := setupOnly(w.grid, w.log); err != nil {
				return fmt.Errorf("%s set-up: %w", w.name, err)
			}
		}
		w.samples["setup_s"] = append(w.samples["setup_s"], time.Since(t0).Seconds()/setupsPerBatch)
	}
	return nil
}

// timedPass measures the end-to-end metrics with tracing off at
// cfg.workers workers: a warm-up repetition and set-up batches per
// workload, then interleaved timed repetitions, each from a cold LP cache
// and followed by one more set-up batch.
func timedPass(cfg config, ws []*workloadRun) error {
	for _, w := range ws {
		r, err := runRep(w.grid, w.log, cfg.workers, nil)
		if err := w.record(r, err, "warm-up"); err != nil {
			return err
		}
		w.samples = map[string][]float64{}
		if err := w.timeSetups(setupBatches); err != nil {
			return err
		}
	}
	err := measureLoop(cfg.seconds, ws, func(w *workloadRun) error {
		r, err := runRep(w.grid, w.log, cfg.workers, nil)
		if err := w.record(r, err, "repetition"); err != nil {
			return err
		}
		n := float64(r.runs)
		for name, v := range map[string]float64{
			"runs_per_s":          n / r.wall.Seconds(),
			"cpu_ms_per_run":      float64(r.cpu) / 1e6 / n,
			"alloc_bytes_per_run": float64(r.allocBytes) / n,
			"allocs_per_run":      float64(r.allocs) / n,
		} {
			w.samples[name] = append(w.samples[name], v)
		}
		return w.timeSetups(1)
	})
	for _, w := range ws {
		if len(w.samples["runs_per_s"]) == 0 {
			continue
		}
		w.metrics = map[string]metric{}
		for _, m := range endToEnd {
			w.metrics[m.name] = metric{median(w.samples[m.name]), m.unit}
		}
	}
	return err
}

// print writes the human-readable block for one workload.
func (w *workloadRun) print(out io.Writer, cfg config) {
	mode := fmt.Sprintf("end-to-end, %d workers", cfg.workers)
	if cfg.trace {
		mode = "traced, 1 worker"
	}
	fmt.Fprintf(out, "%s seed %d (%s): %d runs per repetition, %d repetitions incl. warm-up\n",
		w.name, cfg.seed, mode, w.runsPerRep, w.reps)
	specs := endToEnd
	if cfg.trace {
		specs = perLayer
	}
	for _, m := range specs {
		v, ok := w.metrics[m.name]
		if !ok {
			continue
		}
		fmt.Fprintf(out, "  %-30s %14.6g %-6s", m.name, v.Value, v.Unit)
		if xs := w.samples[m.name]; len(xs) > 0 {
			fmt.Fprintf(out, "  quartiles [%.6g, %.6g] of %d", quantile(xs, 0.25), quantile(xs, 0.75), len(xs))
		}
		fmt.Fprintln(out)
	}
	fmt.Fprintf(out, "  %-30s %14.16s\n", "output_digest", w.digest)
	fmt.Fprintf(out, "  %-30s %14.6g %%\n", "mean_gap_pct", w.meanGapPct)
}
