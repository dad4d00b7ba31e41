package mptcpsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Shard selects a deterministic 1/N slice of an expanded grid: the runs
// whose expansion index i satisfies i % N == K. Because expansion order is
// deterministic and documented (see Grid), the same grid spec sharded on
// different machines partitions into the same N disjoint run sets, and
// MergeShards can reassemble their run-logs into the exact unsharded
// SweepResult.
type Shard struct {
	// K is the shard coordinate, 0 <= K < N.
	K int `json:"k"`
	// N is the shard count; 1 means the whole grid.
	N int `json:"n"`
}

// Validate reports whether the shard coordinates are usable.
func (s Shard) Validate() error {
	if s.N < 1 {
		return fmt.Errorf("mptcpsim: shard count %d (want >= 1)", s.N)
	}
	if s.K < 0 || s.K >= s.N {
		return fmt.Errorf("mptcpsim: shard index %d out of range 0..%d", s.K, s.N-1)
	}
	return nil
}

// Len returns how many runs of a total-run grid the (valid) shard owns:
// the indices i < total with i % N == K.
func (s Shard) Len(total int) int {
	if s.K >= total {
		return 0
	}
	return (total-1-s.K)/s.N + 1
}

// String renders the shard in the CLI's k/n form.
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.K, s.N) }

// ParseShard parses the CLI form "k/n" (e.g. "0/4") into a Shard.
func ParseShard(spec string) (Shard, error) {
	k, n, ok := strings.Cut(spec, "/")
	if !ok {
		return Shard{}, fmt.Errorf("mptcpsim: shard %q is not of the form k/n", spec)
	}
	ki, err := strconv.Atoi(k)
	if err != nil {
		return Shard{}, fmt.Errorf("mptcpsim: shard %q: bad index: %v", spec, err)
	}
	ni, err := strconv.Atoi(n)
	if err != nil {
		return Shard{}, fmt.Errorf("mptcpsim: shard %q: bad count: %v", spec, err)
	}
	s := Shard{K: ki, N: ni}
	if err := s.Validate(); err != nil {
		return Shard{}, err
	}
	return s, nil
}

// expandFolded expands the grid with the sweep-level oracle flag folded
// into every spec: a run whose invariant violation becomes its Err is not
// the same run as an unvalidated one, so the digest Describe computes over
// these specs keeps shards swept with different ValidateInvariants
// settings from merging under one identity.
func (s *Sweep) expandFolded(g *Grid) ([]RunSpec, error) {
	specs, err := g.Expand()
	if err != nil {
		return nil, err
	}
	if s.ValidateInvariants {
		for i := range specs {
			specs[i].Options.ValidateInvariants = true
		}
	}
	return specs, nil
}

// MergeShards reassembles shard run-logs into the SweepResult of the
// unsharded sweep. It accepts the logs in any order but insists on a
// complete, consistent set: one grid digest, one (N, Total) shape, valid
// shard coordinates, and every run index 0..Total-1 present exactly once,
// each inside the shard that owns it. Groups and the overall Gap are
// recomputed from the full run list (medians and standard deviations do
// not compose from per-shard aggregates), so the merged value — and every
// serialisation of it — is byte-identical to Sweep.Run on the same grid.
//
// Headers come off disk, so Total is not trusted for sizing: nothing
// Total-sized is allocated until the logs are known to supply that many
// distinct runs.
func MergeShards(logs ...*RunLog) (*SweepResult, error) {
	if len(logs) == 0 {
		return nil, fmt.Errorf("mptcpsim: merge: no shard run-logs")
	}
	ref := logs[0].Header
	if ref.Total < 0 {
		return nil, fmt.Errorf("mptcpsim: merge: shard %d/%d reports negative total %d", ref.K, ref.N, ref.Total)
	}
	supplied := 0
	for _, l := range logs {
		supplied += len(l.Runs)
	}
	byIndex := make(map[int]*RunSummary, supplied)
	present := make(map[int]int) // shard K -> distinct runs supplied
	for i, l := range logs {
		h := l.Header
		if h.GridDigest != ref.GridDigest {
			return nil, fmt.Errorf("mptcpsim: merge: grid digest mismatch: shard %d/%d has %s, shard %d/%d has %s (run-logs from different grids?)",
				h.K, h.N, h.GridDigest, ref.K, ref.N, ref.GridDigest)
		}
		if h.N != ref.N || h.Total != ref.Total {
			return nil, fmt.Errorf("mptcpsim: merge: shard shape mismatch: run-log %d is shard %d/%d of %d runs, run-log 0 is shard %d/%d of %d",
				i, h.K, h.N, h.Total, ref.K, ref.N, ref.Total)
		}
		if err := (Shard{K: h.K, N: h.N}).Validate(); err != nil {
			return nil, fmt.Errorf("mptcpsim: merge: %w", err)
		}
		for j := range l.Runs {
			run := &l.Runs[j].Run
			if run.Index < 0 || run.Index >= ref.Total {
				return nil, fmt.Errorf("mptcpsim: merge: shard %d/%d contains run index %d outside 0..%d",
					h.K, h.N, run.Index, ref.Total-1)
			}
			if run.Index%h.N != h.K {
				return nil, fmt.Errorf("mptcpsim: merge: run index %d does not belong to shard %d/%d (index %% %d = %d)",
					run.Index, h.K, h.N, h.N, run.Index%h.N)
			}
			if _, dup := byIndex[run.Index]; dup {
				return nil, fmt.Errorf("mptcpsim: merge: duplicate run index %d (shard %d/%d supplied twice?)",
					run.Index, h.K, h.N)
			}
			byIndex[run.Index] = run
			present[h.K]++
		}
	}
	if missing := ref.Total - len(byIndex); missing > 0 {
		return nil, fmt.Errorf("mptcpsim: merge: %d of %d run indices missing (first: %d); incomplete or absent shard(s) %s of %d",
			missing, ref.Total, firstMissing(byIndex), missingShards(present, ref.N, ref.Total), ref.N)
	}
	// Every index is in range and distinct, so Total == len(byIndex) here.
	runs := make([]RunSummary, ref.Total)
	for i, run := range byIndex {
		runs[i] = *run
	}
	res := &SweepResult{Runs: runs}
	res.aggregate()
	return res, nil
}

// firstMissing returns the smallest index absent from a set of distinct
// non-negative indices.
func firstMissing(byIndex map[int]*RunSummary) int {
	idx := make([]int, 0, len(byIndex))
	for i := range byIndex {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	for want, i := range idx {
		if i != want {
			return want
		}
	}
	return len(idx)
}

// maxListedShards caps how many shard coordinates an incomplete-merge
// diagnostic lists; a header can claim any shard count.
const maxListedShards = 32

// missingShards names the shard coordinates that own missing indices,
// e.g. "1,3" — the actionable half of an incomplete-merge diagnostic.
// present counts the distinct runs supplied per shard. Every complete
// shard was supplied at least one run, so the scan stops after at most
// len(present)+maxListedShards coordinates however large n and total are.
func missingShards(present map[int]int, n, total int) string {
	var parts []string
	for k := 0; k < n && k < total; k++ {
		if present[k] == (Shard{K: k, N: n}).Len(total) {
			continue
		}
		if len(parts) == maxListedShards {
			parts = append(parts, "...")
			break
		}
		parts = append(parts, strconv.Itoa(k))
	}
	return strings.Join(parts, ",")
}

// Digest expands the grid and returns its canonical digest — the value
// every run-log header of this grid carries as GridDigest.
func (g *Grid) Digest() (string, error) {
	specs, err := g.Expand()
	if err != nil {
		return "", err
	}
	return specsDigest(specs), nil
}

// specsDigest computes a canonical SHA-256 over an expanded run list:
// every run's index, cell labels, complete options and resolved topology
// (events included). Two grid specs digest equally exactly when they
// expand to the same runs in the same order — the identity MergeShards
// checks before trusting that shard index sets partition one grid.
func specsDigest(specs []RunSpec) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, sp := range specs {
		rec := struct {
			Index        int           `json:"index"`
			Scenario     string        `json:"scenario"`
			Perturbation string        `json:"perturbation"`
			Events       string        `json:"events"`
			Options      Options       `json:"options"`
			Topology     *ScenarioFile `json:"topology"`
		}{sp.Index, sp.Scenario, sp.Perturbation, sp.Events, sp.Options, sp.scenario}
		// Encoding plain option/topology data to a hash cannot fail.
		if err := enc.Encode(rec); err != nil {
			panic(fmt.Sprintf("mptcpsim: spec digest: %v", err))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
