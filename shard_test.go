package mptcpsim

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// renderAll renders every serialisation of a sweep result — the formats
// the shard/merge contract promises are byte-identical to an unsharded
// run.
func renderAll(t *testing.T, res *SweepResult) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, 4)
	for name, fn := range map[string]func(w *bytes.Buffer) error{
		"json":   func(w *bytes.Buffer) error { return res.WriteJSON(w) },
		"csv":    func(w *bytes.Buffer) error { return res.WriteCSV(w) },
		"groups": func(w *bytes.Buffer) error { return res.WriteGroupsCSV(w) },
		"report": func(w *bytes.Buffer) error { return res.Report(w) },
	} {
		var buf bytes.Buffer
		if err := fn(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// shardGrids are the property-test grids: a plain multi-seed grid, a grid
// exercising every label axis (perturbations, events, schedulers), and a
// grid whose runs all fail — failed cells must survive sharding too.
func shardGrids(short bool) map[string]*Grid {
	grids := map[string]*Grid{
		"static": {
			CCs:        []string{"cubic", "olia"},
			Orders:     [][]int{{2, 1, 3}},
			Seeds:      []int64{1, 2, 3},
			DurationMs: 200,
		},
		"errors": {
			CCs:        []string{"cubic", "olia"},
			DurationMs: 100,
			Base:       Options{CrossTCP: []int{9}},
		},
	}
	if !short {
		grids["axes"] = &Grid{
			CCs:        []string{"cubic", "lia"},
			Schedulers: []string{"minrtt", "roundrobin"},
			DurationMs: 300,
			Perturbations: []Perturbation{
				{Name: "base"},
				{Name: "lossy", Loss: 0.005},
			},
			Events: []EventSet{
				{Name: "static"},
				{Name: "outage", Events: []ScenarioEvent{
					{AtMs: 100, Type: EventLinkDown, A: "s", B: "v1"},
					{AtMs: 200, Type: EventLinkUp, A: "s", B: "v1"},
				}},
			},
		}
	}
	return grids
}

// streamShard streams one shard of the grid into a run-log and reads it
// back through ReadRunLog — the disk round trip every merge input takes.
func streamShard(t *testing.T, s *Sweep, g *Grid, shard Shard, opt LogOptions) *RunLog {
	t.Helper()
	digest, total, err := s.Describe(g)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink, err := NewLogSink(&buf, RunLogHeader{GridDigest: digest, K: shard.K, N: shard.N, Total: total}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Stream(g, StreamSpec{Shard: shard}, sink); err != nil {
		t.Fatal(err)
	}
	log, err := ReadRunLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestShardMergeByteIdentical is the distributed-determinism contract:
// for every grid and every shard count, streaming the N shards
// independently into run-logs (round-tripped through their disk format,
// merged in arbitrary order) reproduces the unsharded SweepResult
// byte-identically in all four output formats.
func TestShardMergeByteIdentical(t *testing.T) {
	ns := []int{1, 2, 3, 5, 7}
	if testing.Short() {
		ns = []int{3}
	}
	for name, grid := range shardGrids(testing.Short()) {
		t.Run(name, func(t *testing.T) {
			full, err := (&Sweep{Workers: 4}).Run(grid)
			if err != nil {
				t.Fatal(err)
			}
			want := renderAll(t, full)
			for _, n := range ns {
				logs := make([]*RunLog, 0, n)
				total := 0
				// Reverse K order: MergeShards must not care how the
				// logs are listed.
				for k := n - 1; k >= 0; k-- {
					log := streamShard(t, &Sweep{Workers: 2}, grid, Shard{K: k, N: n}, LogOptions{})
					logs = append(logs, log)
					total += len(log.Runs)
				}
				if total != len(full.Runs) {
					t.Fatalf("n=%d: shards hold %d runs, grid has %d", n, total, len(full.Runs))
				}
				merged, err := MergeShards(logs...)
				if err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				got := renderAll(t, merged)
				for format, wantBytes := range want {
					if !bytes.Equal(got[format], wantBytes) {
						t.Errorf("n=%d: merged %s differs from unsharded output:\n--- merged ---\n%s\n--- unsharded ---\n%s",
							n, format, got[format], wantBytes)
					}
				}
			}
		})
	}
}

// TestRunShardDeterminism: a shard's run-log records the same header and
// the same runs across worker counts and repeated executions, like the
// unsharded sweep. Records land in completion order, so they are compared
// in index order.
func TestRunShardDeterminism(t *testing.T) {
	grid := &Grid{
		CCs:        []string{"cubic", "olia"},
		Seeds:      []int64{1, 2, 3},
		DurationMs: 200,
	}
	var outputs []string
	for _, workers := range []int{1, 8, 8} {
		log := streamShard(t, &Sweep{Workers: workers}, grid, Shard{K: 1, N: 2}, LogOptions{Hash: true})
		sort.Slice(log.Runs, func(a, b int) bool { return log.Runs[a].Run.Index < log.Runs[b].Run.Index })
		js, err := json.Marshal(log)
		if err != nil {
			t.Fatal(err)
		}
		outputs = append(outputs, string(js))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("shard run-log differs between 1 and 8 workers:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			outputs[0], outputs[1])
	}
	if outputs[1] != outputs[2] {
		t.Fatal("shard run-log differs between two identical executions")
	}
}

func TestShardPreservesGlobalIndices(t *testing.T) {
	grid := &Grid{CCs: []string{"cubic", "olia", "lia"}, DurationMs: 100}
	log := streamShard(t, &Sweep{Workers: 2}, grid, Shard{K: 1, N: 2}, LogOptions{})
	if log.Header.Total != 3 || len(log.Runs) != 1 {
		t.Fatalf("shard 1/2 of 3 runs holds %d of %d", len(log.Runs), log.Header.Total)
	}
	if log.Runs[0].Run.Index != 1 {
		t.Fatalf("shard run carries index %d, want the global expansion index 1", log.Runs[0].Run.Index)
	}
}

func TestShardLen(t *testing.T) {
	for _, tc := range []struct{ k, n, total, want int }{
		{0, 1, 0, 0}, {0, 1, 5, 5}, {0, 2, 5, 3}, {1, 2, 5, 2},
		{3, 4, 1, 0}, {3, 4, 4, 1}, {0, 4, 9, 3},
		{0, 1, math.MaxInt, math.MaxInt}, {1, math.MaxInt, math.MaxInt, 1},
	} {
		if got := (Shard{K: tc.k, N: tc.n}).Len(tc.total); got != tc.want {
			t.Errorf("Shard{%d, %d}.Len(%d) = %d, want %d", tc.k, tc.n, tc.total, got, tc.want)
		}
	}
}

func TestParseShard(t *testing.T) {
	for spec, want := range map[string]Shard{
		"0/4": {K: 0, N: 4},
		"3/4": {K: 3, N: 4},
		"0/1": {K: 0, N: 1},
	} {
		got, err := ParseShard(spec)
		if err != nil {
			t.Errorf("ParseShard(%q): %v", spec, err)
		} else if got != want {
			t.Errorf("ParseShard(%q) = %+v, want %+v", spec, got, want)
		}
	}
	for _, spec := range []string{"", "3", "1/2/3", "a/4", "1/b", "4/4", "-1/4", "0/0", "0/-2"} {
		if _, err := ParseShard(spec); err == nil {
			t.Errorf("ParseShard(%q) accepted", spec)
		}
	}
}

// TestRunShardRejectsInvalidShard: a shard run refuses coordinates
// outside 0 <= K < N before executing anything. (The zero Shard selects
// the whole grid, so N = 0 is not among them.)
func TestRunShardRejectsInvalidShard(t *testing.T) {
	grid := &Grid{DurationMs: 100}
	for _, shard := range []Shard{{K: 0, N: -1}, {K: 2, N: 2}, {K: -1, N: 2}} {
		if err := (&Sweep{}).Stream(grid, StreamSpec{Shard: shard}, &MemorySink{}); err == nil {
			t.Errorf("Stream accepted shard %+v", shard)
		}
	}
}

func TestGridDigestIdentifiesGrid(t *testing.T) {
	a := &Grid{CCs: []string{"cubic"}, Seeds: []int64{1, 2}, DurationMs: 100}
	d1, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	d2, err := a.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("digest not stable: %s vs %s", d1, d2)
	}
	b := &Grid{CCs: []string{"cubic"}, Seeds: []int64{1, 3}, DurationMs: 100}
	d3, err := b.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if d3 == d1 {
		t.Fatal("different grids share a digest")
	}
}

// fabShard builds a hand-made run-log for the merge error-path tests —
// MergeShards validates structure, so no runs need executing.
func fabShard(digest string, k, n, total int, indices ...int) *RunLog {
	log := &RunLog{Header: RunLogHeader{Version: RunLogVersion, GridDigest: digest, K: k, N: n, Total: total}, TornTail: -1}
	for _, i := range indices {
		log.Runs = append(log.Runs, RunRecord{Run: RunSummary{Index: i}})
	}
	return log
}

func TestMergeShardsDiagnostics(t *testing.T) {
	cases := map[string]struct {
		shards []*RunLog
		want   string
	}{
		"no shards": {nil, "no shard run-logs"},
		"digest mismatch": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("bbb", 1, 2, 4, 1, 3)},
			"grid digest mismatch",
		},
		"shard count mismatch": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 3, 4, 1)},
			"shape mismatch",
		},
		"total mismatch": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 2, 6, 1, 3, 5)},
			"shape mismatch",
		},
		"invalid shard coordinates": {
			[]*RunLog{fabShard("aaa", 2, 2, 4, 0)},
			"out of range",
		},
		"missing shard": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 2)},
			"shard(s) 1 of 2",
		},
		"incomplete shard": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 2, 4, 1)},
			"missing",
		},
		"duplicate shard": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 0, 2, 4, 0, 2), fabShard("aaa", 1, 2, 4, 1, 3)},
			"duplicate run index 0",
		},
		"foreign index": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 1), fabShard("aaa", 1, 2, 4, 1, 3)},
			"does not belong to shard 0/2",
		},
		"index out of range": {
			[]*RunLog{fabShard("aaa", 0, 2, 4, 0, 99), fabShard("aaa", 1, 2, 4, 1, 3)},
			"outside 0..3",
		},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := MergeShards(tc.shards...)
			if err == nil {
				t.Fatal("merge accepted a broken shard set")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// hugeTotalLog is a run-log whose header claims the largest possible grid
// — valid as far as ReadRunLog can tell, so a merge sees it as is.
const hugeTotalLog = `{"run_log":1,"grid_digest":"d","k":0,"n":1,"total":9223372036854775807}` + "\n"

// TestMergeShardsUntrustedTotal: a header's total comes off disk, so a
// merge must count the supplied runs before sizing anything by it. The
// largest total is an error, not a makeslice panic; a large one allocates
// nothing in proportion; and a shard count as large as the total still
// yields a bounded diagnostic.
func TestMergeShardsUntrustedTotal(t *testing.T) {
	log, err := ReadRunLog(strings.NewReader(hugeTotalLog))
	if err != nil {
		t.Fatalf("ReadRunLog refused the header: %v", err)
	}
	_, err = MergeShards(log)
	if err == nil || !strings.Contains(err.Error(), "9223372036854775807 of 9223372036854775807 run indices missing") ||
		!strings.Contains(err.Error(), "shard(s) 0 of 1") {
		t.Fatalf("huge-total merge: err = %v, want the missing-indices diagnostic", err)
	}

	const total = 1 << 18
	big := fabShard("d", 0, 1, total, 0, 1, 3)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = MergeShards(big)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "(first: 2)") {
		t.Fatalf("sparse merge: err = %v, want the first missing index 2", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("merging 3 of %d runs allocated %d bytes", total, grew)
	}

	wide := fabShard("d", 5, math.MaxInt, math.MaxInt, 5)
	_, err = MergeShards(wide)
	if err == nil || !strings.HasSuffix(err.Error(), ",... of 9223372036854775807") {
		t.Fatalf("wide merge: err = %v, want a truncated shard list", err)
	}
}

// TestMergeRejectsMixedValidateInvariants: the sweep-level oracle flag
// changes what a run can report (violations become Errs), so shards
// swept with and without it carry different digests and must not merge.
func TestMergeRejectsMixedValidateInvariants(t *testing.T) {
	grid := &Grid{CCs: []string{"cubic", "olia"}, DurationMs: 100}
	plain := streamShard(t, &Sweep{Workers: 1}, grid, Shard{K: 0, N: 2}, LogOptions{})
	checked := streamShard(t, &Sweep{Workers: 1, ValidateInvariants: true}, grid, Shard{K: 1, N: 2}, LogOptions{})
	if plain.Header.GridDigest == checked.Header.GridDigest {
		t.Fatal("validated and unvalidated shards share a grid digest")
	}
	if _, err := MergeShards(plain, checked); err == nil || !strings.Contains(err.Error(), "digest mismatch") {
		t.Fatalf("mixed-provenance merge not rejected: %v", err)
	}
	// Two validated shards still merge.
	other := streamShard(t, &Sweep{Workers: 2, ValidateInvariants: true}, grid, Shard{K: 0, N: 2}, LogOptions{})
	if _, err := MergeShards(checked, other); err != nil {
		t.Fatal(err)
	}
}
