package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"mptcpsim"
	"mptcpsim/internal/lp"
)

// loadedDigest generates a workload's grid, round-trips it through the
// JSON the simulator reads, and returns the grid digest and run count.
func loadedDigest(t *testing.T, workload string, seed uint64) (string, int, *mptcpsim.Grid) {
	t.Helper()
	b, err := json.Marshal(generators[workload](seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := mptcpsim.LoadGrid(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	digest, total, err := (&mptcpsim.Sweep{}).Describe(g)
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	return digest, total, g
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		for _, seed := range []uint64{1, 2, 12345} {
			d1, n1, _ := loadedDigest(t, w, seed)
			d2, n2, _ := loadedDigest(t, w, seed)
			if d1 != d2 || n1 != n2 {
				t.Errorf("%s seed %d: digests %.12s/%.12s, totals %d/%d", w, seed, d1, d2, n1, n2)
			}
		}
	}
}

func TestGeneratorSizes(t *testing.T) {
	want := map[string]int{"paper_bulk": 48, "epoch_churn": churnSets, "longfat_lossy": 2 * 2 * longfatSeeds * longfatPerts}
	for _, w := range workloadNames {
		if _, n, _ := loadedDigest(t, w, 1); n != want[w] {
			t.Errorf("%s: %d runs, want %d", w, n, want[w])
		}
	}
}

func TestSeedChangesGrid(t *testing.T) {
	for _, w := range workloadNames {
		d1, _, _ := loadedDigest(t, w, 1)
		d2, _, _ := loadedDigest(t, w, 2)
		if d1 == d2 {
			t.Errorf("%s: seeds 1 and 2 give the same grid", w)
		}
	}
	_, _, g1 := loadedDigest(t, "epoch_churn", 1)
	_, _, g2 := loadedDigest(t, "epoch_churn", 2)
	if reflect.DeepEqual(g1.Events, g2.Events) {
		t.Error("epoch_churn: seeds 1 and 2 give the same timelines")
	}
}

// TestChurnEpochsAreAllDistinct checks the property that keeps the LP
// work of epoch_churn independent of the seed: every timeline moves three
// different links at three different times, to rates used nowhere else in
// the grid and never equal to a base capacity.
func TestChurnEpochsAreAllDistinct(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		g := epochChurn(seed)
		rates := map[float64]bool{}
		for _, set := range g.Events {
			if len(set.Events) != 3 {
				t.Fatalf("seed %d %s: %d events", seed, set.Name, len(set.Events))
			}
			links := map[string]bool{}
			times := map[float64]bool{}
			for i, ev := range set.Events {
				if ev.Type != mptcpsim.EventSetRate {
					t.Errorf("seed %d %s: event type %q", seed, set.Name, ev.Type)
				}
				if i > 0 && ev.AtMs <= set.Events[i-1].AtMs {
					t.Errorf("seed %d %s: event times not strictly increasing", seed, set.Name)
				}
				if ev.AtMs <= 0 || ev.AtMs >= g.DurationMs {
					t.Errorf("seed %d %s: event at %v ms outside the run", seed, set.Name, ev.AtMs)
				}
				if ev.Mbps == math.Trunc(ev.Mbps) || rates[ev.Mbps] {
					t.Errorf("seed %d %s: rate %v is an integer or reused", seed, set.Name, ev.Mbps)
				}
				links[ev.A+"-"+ev.B] = true
				times[ev.AtMs] = true
				rates[ev.Mbps] = true
			}
			if len(links) != 3 || len(times) != 3 {
				t.Errorf("seed %d %s: %d links, %d times", seed, set.Name, len(links), len(times))
			}
		}
	}
}

// TestChurnColdSolves runs a slice of epoch_churn and counts the LP
// baselines it solves: one for the base topology plus three per run.
func TestChurnColdSolves(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	g := epochChurn(7)
	g.Events = g.Events[:6]
	mptcpsim.SetBaselineCacheCap(1 << 20)
	defer mptcpsim.SetBaselineCacheCap(0)
	mptcpsim.ResetBaselineCache()
	res, err := (&mptcpsim.Sweep{Workers: 2}).Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Errs(); n > 0 {
		t.Fatalf("%d runs failed", n)
	}
	if got, want := lp.BaselineCacheSize(), 1+3*len(g.Events); got != want {
		t.Errorf("cold solves = %d, want %d", got, want)
	}
}
