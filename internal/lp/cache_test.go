package lp

import (
	"math"
	"sync"
	"testing"

	"mptcpsim/internal/topo"
)

func TestCachedBaselines(t *testing.T) {
	pn := topo.Paper()
	before := BaselineCacheSize()

	b, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Solution.Objective-90) > 1e-6 {
		t.Fatalf("LP optimum = %v, want 90", b.Solution.Objective)
	}
	if BaselineCacheSize() <= before && before == 0 {
		t.Fatal("baseline not cached")
	}

	// Second lookup serves the cache and returns equal values in fresh
	// slices the caller may scribble on.
	b2, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if &b.Solution.X[0] == &b2.Solution.X[0] {
		t.Fatal("cache handed out shared slices")
	}
	for i := range b.Solution.X {
		if b.Solution.X[i] != b2.Solution.X[i] {
			t.Fatalf("cached X differs: %v vs %v", b.Solution.X, b2.Solution.X)
		}
	}
	b2.MaxMin[0] = -1
	b3, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if b3.MaxMin[0] == -1 {
		t.Fatal("caller mutation leaked into the cache")
	}
	if b3.ProblemString == "" || b3.ProblemString != b.ProblemString {
		t.Fatalf("problem rendering unstable: %q vs %q", b.ProblemString, b3.ProblemString)
	}

	// Direct recomputation matches the cached values.
	mm := MaxMin(pn.Graph, pn.Paths)
	for i := range mm {
		if math.Abs(mm[i]-b3.MaxMin[i]) > 1e-9 {
			t.Fatalf("cached max-min %v != fresh %v", b3.MaxMin, mm)
		}
	}
}

func TestCachedBaselinesConcurrent(t *testing.T) {
	pn := topo.Paper()
	var wg sync.WaitGroup
	out := make([]*Baselines, 16)
	errs := make([]error, 16)
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = CachedBaselines(pn.Graph, pn.Paths)
		}(i)
	}
	wg.Wait()
	for i := range out {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if math.Abs(out[i].Solution.Objective-90) > 1e-6 {
			t.Fatalf("goroutine %d objective = %v", i, out[i].Solution.Objective)
		}
	}
}

func TestResetBaselineCache(t *testing.T) {
	pn := topo.Paper()
	if _, err := CachedBaselines(pn.Graph, pn.Paths); err != nil {
		t.Fatal(err)
	}
	if BaselineCacheSize() == 0 {
		t.Fatal("nothing cached")
	}
	ResetBaselineCache()
	if n := BaselineCacheSize(); n != 0 {
		t.Fatalf("cache size after reset = %d", n)
	}
	b, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(b.Solution.Objective-90) > 1e-6 {
		t.Fatalf("recompute after reset = %v", b.Solution.Objective)
	}
}

func TestCachedBaselinesCapsEpoch(t *testing.T) {
	pn := topo.Paper()
	static, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	// Epoch with s-v1 down (both directions): paths 1 and 2 are cut, path 3
	// keeps its 60 Mbps v3-v4 bottleneck.
	sv1, ok := pn.Graph.NodeByName("s")
	if !ok {
		t.Fatal("no s")
	}
	v1, ok := pn.Graph.NodeByName("v1")
	if !ok {
		t.Fatal("no v1")
	}
	fwd, _ := pn.Graph.FindLink(sv1, v1)
	rev, _ := pn.Graph.FindLink(v1, sv1)
	caps := Caps{fwd: 0, rev: 0}
	down, err := CachedBaselinesCaps(pn.Graph, pn.Paths, caps)
	if err != nil {
		t.Fatal(err)
	}
	if down.ProblemString == static.ProblemString {
		t.Fatal("epoch key collides with the static key")
	}
	if math.Abs(down.Solution.Objective-60) > 1e-6 {
		t.Fatalf("outage optimum = %v, want 60", down.Solution.Objective)
	}
	want := []float64{0, 0, 60}
	for i, v := range want {
		if math.Abs(down.Solution.X[i]-v) > 1e-6 {
			t.Fatalf("outage solution = %v, want %v", down.Solution.X, want)
		}
	}
	// The fairness baselines respect the outage too.
	if down.MaxMin[0] != 0 || down.MaxMin[1] != 0 || math.Abs(down.MaxMin[2]-60) > 1e-6 {
		t.Fatalf("outage max-min = %v", down.MaxMin)
	}
	if down.PropFair[0] != 0 || down.PropFair[1] != 0 || down.PropFair[2] < 55 {
		t.Fatalf("outage prop-fair = %v", down.PropFair)
	}
	// The static entry is untouched.
	again, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(again.Solution.Objective-90) > 1e-6 {
		t.Fatalf("static optimum clobbered: %v", again.Solution.Objective)
	}
}

func TestBaselineCacheBounded(t *testing.T) {
	ResetBaselineCache()
	SetBaselineCacheCap(4)
	defer SetBaselineCacheCap(0)
	defer ResetBaselineCache()

	pn := topo.Paper()
	lid := pn.Paths[0].Links[0]
	// Ten distinct epochs: the cache must hold at most 4.
	for i := 1; i <= 10; i++ {
		if _, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := BaselineCacheSize(); n != 4 {
		t.Fatalf("cache size = %d, want 4 (bounded)", n)
	}
	// Recency: touching an old survivor keeps it across further inserts.
	if _, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: 7}); err != nil {
		t.Fatal(err)
	}
	before := BaselineCacheSize()
	for i := 11; i <= 13; i++ {
		if _, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := BaselineCacheSize(); n != before {
		t.Fatalf("cache size drifted: %d -> %d", before, n)
	}
	// An evicted key recomputes correctly.
	b, err := CachedBaselinesCaps(pn.Graph, pn.Paths, Caps{lid: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Solution.Status != Optimal {
		t.Fatalf("recomputed entry not optimal: %v", b.Solution.Status)
	}
}

// sameBits reports whether two allocations are equal element by element
// under ==.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCachedOptimumCapsLazyFairness(t *testing.T) {
	ResetBaselineCache()
	defer ResetBaselineCache()
	pn := topo.Paper()

	// An LP-only lookup solves the LP and nothing else.
	opt, err := CachedOptimumCaps(pn.Graph, pn.Paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(opt.Solution.Objective-90) > 1e-6 {
		t.Fatalf("LP optimum = %v, want 90", opt.Solution.Objective)
	}
	if opt.MaxMin != nil || opt.PropFair != nil {
		t.Fatalf("LP-only lookup carried fairness: max-min %v, prop-fair %v", opt.MaxMin, opt.PropFair)
	}

	// A full lookup on the key the LP-only lookup created still gets both
	// fairness allocations, bit-equal to direct solves, from the same
	// cache slot.
	full, err := CachedBaselines(pn.Graph, pn.Paths)
	if err != nil {
		t.Fatal(err)
	}
	if n := BaselineCacheSize(); n != 1 {
		t.Fatalf("cache size = %d, want 1 shared slot", n)
	}
	if full.ProblemString != opt.ProblemString || !sameBits(full.Solution.X, opt.Solution.X) {
		t.Fatalf("full lookup LP %v differs from LP-only %v", full.Solution.X, opt.Solution.X)
	}
	if mm := MaxMinCaps(pn.Graph, pn.Paths, nil); !sameBits(full.MaxMin, mm) {
		t.Fatalf("cached max-min %v, direct %v", full.MaxMin, mm)
	}
	if pf := PropFairCaps(pn.Graph, pn.Paths, nil, 0); !sameBits(full.PropFair, pf) {
		t.Fatalf("cached prop-fair %v, direct %v", full.PropFair, pf)
	}

	// LP-only lookups after a full one still carry no fairness.
	again, err := CachedOptimumCaps(pn.Graph, pn.Paths, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again.MaxMin != nil || again.PropFair != nil {
		t.Fatal("LP-only lookup on a full entry carried fairness")
	}
}

func TestCachedBaselinesSharedKeyRace(t *testing.T) {
	pn := topo.Paper()
	// A key no other test uses, so every goroutine races on a cold slot.
	caps := Caps{pn.Bottlenecks[1]: 37.5}
	wantMM := MaxMinCaps(pn.Graph, pn.Paths, caps)
	wantPF := PropFairCaps(pn.Graph, pn.Paths, caps, 0)
	wantLP, err := MaxThroughputCaps(pn.Graph, pn.Paths, caps).Solve()
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 4; round++ {
		ResetBaselineCache()
		const n = 16
		out := make([]*Baselines, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				// Alternate which kind of lookup comes first per round.
				if (i+round)%2 == 0 {
					out[i], errs[i] = CachedOptimumCaps(pn.Graph, pn.Paths, caps)
				} else {
					out[i], errs[i] = CachedBaselinesCaps(pn.Graph, pn.Paths, caps)
				}
			}(i)
		}
		wg.Wait()
		for i, b := range out {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			if !sameBits(b.Solution.X, wantLP.X) {
				t.Fatalf("round %d goroutine %d: LP %v, want %v", round, i, b.Solution.X, wantLP.X)
			}
			if (i+round)%2 == 0 {
				if b.MaxMin != nil || b.PropFair != nil {
					t.Fatalf("round %d goroutine %d: LP-only lookup carried fairness", round, i)
				}
				continue
			}
			if !sameBits(b.MaxMin, wantMM) || !sameBits(b.PropFair, wantPF) {
				t.Fatalf("round %d goroutine %d: fairness %v / %v, want %v / %v",
					round, i, b.MaxMin, b.PropFair, wantMM, wantPF)
			}
		}
	}
	ResetBaselineCache()
}
