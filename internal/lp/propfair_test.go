package lp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

// propFairFixedSweeps is PropFairCaps as it was before the fixed-point
// stop: always exactly iters dual-gradient sweeps. It is the reference
// the early-stopping solver must match bit for bit.
func propFairFixedSweeps(g *topo.Graph, paths []topo.Path, caps Caps, iters int) []float64 {
	if iters <= 0 {
		iters = 200000
	}
	n := len(paths)
	x := make([]float64, n)
	blocked := make([]bool, n)
	for i, p := range paths {
		for _, lid := range p.Links {
			if caps.of(g, lid) <= 0 {
				blocked[i] = true
				break
			}
		}
	}
	live := paths[:0:0]
	liveIdx := make([]int, 0, n)
	for i, p := range paths {
		if !blocked[i] {
			live = append(live, p)
			liveIdx = append(liveIdx, i)
		}
	}
	if len(live) == 0 {
		return x
	}
	users := topo.PathsByLink(live)
	lids := make([]topo.LinkID, 0, len(users))
	for lid := range users {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	idx := make(map[topo.LinkID]int, len(lids))
	for i, lid := range lids {
		idx[lid] = i
	}
	price := make([]float64, len(lids))
	capv := make([]float64, len(lids))
	usersv := make([][]int, len(lids))
	for i, lid := range lids {
		capv[i] = caps.of(g, lid)
		price[i] = 1 / capv[i]
		usersv[i] = users[lid]
	}
	pathLinks := make([][]int, len(live))
	for i, p := range live {
		pl := make([]int, len(p.Links))
		for j, lid := range p.Links {
			pl[j] = idx[lid]
		}
		pathLinks[i] = pl
	}
	xl := make([]float64, len(live))
	for it := 0; it < iters; it++ {
		for i, pl := range pathLinks {
			var sum float64
			for _, li := range pl {
				sum += price[li]
			}
			if sum <= 0 {
				sum = 1e-12
			}
			xl[i] = 1 / sum
		}
		step := 1e-4
		for li, us := range usersv {
			var load float64
			for _, pi := range us {
				load += xl[pi]
			}
			price[li] += step * (load - capv[li]) / capv[li]
			if price[li] < 1e-9 {
				price[li] = 1e-9
			}
		}
	}
	for i, v := range xl {
		x[liveIdx[i]] = v
	}
	return x
}

// leafSpine is the two-tier fabric of examples/datacenter: two hosts,
// each behind its own top-of-rack switch, joined by one equal-cost
// 10 Mbps path through each of the given number of spines.
func leafSpine(spines int) (*topo.Graph, []topo.Path) {
	g := topo.New()
	us := 100 * time.Microsecond
	a, b := g.AddNode("hostA"), g.AddNode("hostB")
	t1, t2 := g.AddNode("tor1"), g.AddNode("tor2")
	at, _ := g.AddDuplex(a, t1, 40*unit.Mbps, us, 0)
	tb, _ := g.AddDuplex(t2, b, 40*unit.Mbps, us, 0)
	var paths []topo.Path
	for i := 0; i < spines; i++ {
		sp := g.AddNode("spine" + string(rune('1'+i)))
		up, _ := g.AddDuplex(t1, sp, 10*unit.Mbps, 5*us, 0)
		down, _ := g.AddDuplex(sp, t2, 10*unit.Mbps, 5*us, 0)
		paths = append(paths, topo.Path{
			Nodes: []topo.NodeID{a, t1, sp, t2, b},
			Links: []topo.LinkID{at, up, down, tb},
		})
	}
	return g, paths
}

// randomCaps overrides some of the links the paths cross: each is left
// alone, taken down (cap 0) or set to a rate drawn log-uniformly from
// 0.5 to 200 Mbps. Every fifth set overrides exactly one link, the shape
// of a single set_rate epoch.
func randomCaps(rng *rand.Rand, set int, paths []topo.Path) Caps {
	var lids []topo.LinkID
	for lid := range topo.PathsByLink(paths) {
		lids = append(lids, lid)
	}
	sort.Slice(lids, func(a, b int) bool { return lids[a] < lids[b] })
	rate := func() float64 { return 0.5 * math.Pow(400, rng.Float64()) }
	caps := Caps{}
	if set%5 == 0 {
		caps[lids[rng.Intn(len(lids))]] = rate()
		return caps
	}
	for _, lid := range lids {
		switch r := rng.Float64(); {
		case r < 0.1:
			caps[lid] = 0
		case r < 0.55:
			caps[lid] = rate()
		}
	}
	return caps
}

// TestPropFairFixedPointStopBitIdentical checks that stopping the descent
// at its exact fixed point changes no bit of the result: PropFairCaps
// must equal the fixed-sweep reference under ==, not a tolerance.
func TestPropFairFixedPointStopBitIdentical(t *testing.T) {
	pn := topo.Paper()
	fabricG, fabricPaths := leafSpine(4)
	cases := []struct {
		name  string
		g     *topo.Graph
		paths []topo.Path
		sets  int
	}{
		{"paper", pn.Graph, pn.Paths, 300},
		{"paper-all-simple-paths", pn.Graph, pn.Graph.AllSimplePaths(pn.S, pn.D, 0), 30},
		{"leaf-spine", fabricG, fabricPaths, 30},
	}
	if testing.Short() {
		cases[0].sets, cases[1].sets, cases[2].sets = 20, 3, 3
	}
	rng := rand.New(rand.NewSource(1))
	for _, c := range cases {
		for set := 0; set < c.sets; set++ {
			caps := randomCaps(rng, set, c.paths)
			if set == 0 {
				caps = nil // the static topology itself
			}
			// Mostly the default bound; sometimes a small one that
			// stops before any fixed point is reached.
			iters := 0
			if set%7 == 3 {
				iters = 1000 + rng.Intn(20000)
			}
			got := PropFairCaps(c.g, c.paths, caps, iters)
			want := propFairFixedSweeps(c.g, c.paths, caps, iters)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s set %d (caps %v, iters %d): path %d = %v, reference %v",
						c.name, set, caps, iters, i, got[i], want[i])
				}
			}
		}
	}
}
