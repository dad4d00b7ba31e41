package main

import (
	"bytes"
	"encoding/json"
	"io"
	"sort"
	"strings"
	"testing"

	"mptcpsim"
)

func TestParseFlags(t *testing.T) {
	cfg, err := parseFlags([]string{"--workload", "all", "--trace", "1"}, io.Discard)
	if err != nil || len(cfg.workloads) != len(workloadNames) || !cfg.trace {
		t.Fatalf("all: %+v, %v", cfg, err)
	}
	cfg, err = parseFlags([]string{"--workload", "longfat_lossy,paper_bulk"}, io.Discard)
	if err != nil || strings.Join(cfg.workloads, ",") != "longfat_lossy,paper_bulk" {
		t.Fatalf("list: %+v, %v", cfg, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "paper_bulk,paper_bulk"},
		{"--trace", "2"},
		{"--seconds", "-1"},
		{"extra"},
	} {
		if _, err := parseFlags(bad, io.Discard); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}

func TestCheckLog(t *testing.T) {
	good := func() *mptcpsim.RunLog {
		l := &mptcpsim.RunLog{TornTail: -1, Header: mptcpsim.RunLogHeader{GridDigest: "d", Total: 3, N: 1}}
		for _, i := range []int{2, 0, 1} {
			l.Runs = append(l.Runs, mptcpsim.RunRecord{Run: mptcpsim.RunSummary{Index: i, Gap: float64(i)}})
		}
		return l
	}
	d1, err := checkLog(good(), "d", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Completion order does not change the digest; content does.
	l := good()
	l.Runs[0], l.Runs[2] = l.Runs[2], l.Runs[0]
	if d2, err := checkLog(l, "d", 3); err != nil || d2 != d1 {
		t.Errorf("reordered log: %v, digest changed %v", err, d2 != d1)
	}
	l = good()
	l.Runs[1].Run.Gap = 0.5
	if d3, _ := checkLog(l, "d", 3); d3 == d1 {
		t.Error("changed record kept the digest")
	}

	bad := map[string]func(*mptcpsim.RunLog){
		"torn":          func(l *mptcpsim.RunLog) { l.TornTail = 10 },
		"digest":        func(l *mptcpsim.RunLog) { l.Header.GridDigest = "e" },
		"missing index": func(l *mptcpsim.RunLog) { l.Runs[0].Run.Index = 7 },
		"short":         func(l *mptcpsim.RunLog) { l.Runs = l.Runs[:2] },
		"failed run":    func(l *mptcpsim.RunLog) { l.Runs[1].Run.Err = "boom" },
	}
	for name, mutate := range bad {
		l := good()
		mutate(l)
		if _, err := checkLog(l, "d", 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// runJSON runs the benchmark and decodes its last output line.
func runJSON(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args = append(args, "--workdir", t.TempDir())
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted == 0 || r.Failed != 0 {
		t.Fatalf("result %+v", r)
	}
	return r
}

func metricNames(specs []metricSpec) []string {
	var out []string
	for _, m := range specs {
		out = append(out, m.name)
	}
	sort.Strings(out)
	return out
}

func resultNames(r result) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func TestRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sweeps")
	}
	r := runJSON(t, "--workload", "longfat_lossy", "--seconds", "0", "--trace", "0")
	if got, want := resultNames(r), metricNames(endToEnd); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("end-to-end metrics %v, want %v", got, want)
	}
	for k, m := range r.Metrics {
		if m.Value <= 0 {
			t.Errorf("%s = %v", k, m.Value)
		}
	}
	r = runJSON(t, "--workload", "longfat_lossy", "--seconds", "0", "--trace", "1")
	if got, want := resultNames(r), metricNames(perLayer); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("per-layer metrics %v, want %v", got, want)
	}
	if v := r.Metrics["mptcp.dup_ratio"].Value; v <= 0 {
		t.Errorf("longfat_lossy mptcp.dup_ratio = %v, want > 0 (redundant scheduler)", v)
	}
}
