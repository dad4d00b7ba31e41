package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"mptcpsim"
)

// workloadNames lists the workloads in the order an interleaved run
// cycles through them.
var workloadNames = []string{"paper_bulk", "epoch_churn", "longfat_lossy"}

// Each generator turns the workload seed into one grid; the simulator
// receives only that grid (as JSON, through LoadGrid), never the seed.
var generators = map[string]func(seed uint64) *mptcpsim.Grid{
	"paper_bulk":    paperBulk,
	"epoch_churn":   epochChurn,
	"longfat_lossy": longfatLossy,
}

// rng is splitmix64: a tiny generator whose sequence is fixed by this
// file alone, so a seed names the same grid on every Go release.
type rng struct{ s uint64 }

func newRNG(seed uint64, workload string) *rng {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform draws from [lo, hi) rounded to a multiple of step.
func (r *rng) uniform(lo, hi, step float64) float64 {
	u := float64(r.next()>>11) / (1 << 53)
	return math.Round((lo+u*(hi-lo))/step) * step
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// perm returns a random permutation of 0..n-1.
func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.intn(i + 1)
		p[i], p[j] = p[j], i
	}
	return p
}

// simSeeds draws n distinct per-run simulator seeds.
func (r *rng) simSeeds(n int) []int64 {
	seen := map[int64]bool{}
	var out []int64
	for len(out) < n {
		s := int64(r.next()%1_000_000) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// paperBulk is the paper's own experiment: the Fig. 1a network for 4 s
// under the four coupled and uncoupled CCs and three subflow orderings,
// minrtt scheduling. It loads the packet fast path (kernel, netem, tcp);
// the LP solves once per repetition and the run-log sees few records.
func paperBulk(seed uint64) *mptcpsim.Grid {
	r := newRNG(seed, "paper_bulk")
	return &mptcpsim.Grid{
		CCs:        []string{"cubic", "olia", "lia", "balia"},
		Schedulers: []string{"minrtt"},
		Orders:     [][]int{{2, 1, 3}, {1, 2, 3}, {3, 1, 2}},
		Seeds:      r.simSeeds(4),
		DurationMs: 4000,
	}
}

// churnLinks are the paper network's shared links: a rate change on any of
// them moves the LP optimum, so each timeline opens new capacity epochs.
var churnLinks = [][2]string{{"s", "v1"}, {"v2", "v3"}, {"v3", "v4"}, {"v4", "d"}}

const (
	// churnSets is the number of distinct timelines, one run each.
	churnSets = 80
	// churnRates is the size of the rate pool, 5.125 to 94.875 Mbps in
	// 0.25 Mbps steps: never an integer, so never a base capacity.
	churnRates = 360
)

// epochChurn is many short runs: 200 ms each at 10 ms bins, each run with
// its own timeline of three set_rate events, so almost every run needs
// cold LP baselines for fresh capacity epochs. It loads per-run fixed
// cost, the LP (proportional-fair solves), burst-loss SACK recovery after
// rate cuts, and the run-log (thousands of records per invocation).
//
// The seed draws the event times, links and rates, but not the amount of
// LP work: each timeline changes three different links at three different
// times to rates no other event in the grid uses, so every repetition
// solves exactly 1 + 3*churnSets distinct epochs whatever the seed.
func epochChurn(seed uint64) *mptcpsim.Grid {
	r := newRNG(seed, "epoch_churn")
	g := &mptcpsim.Grid{
		CCs:        []string{"olia"},
		Schedulers: []string{"minrtt"},
		Seeds:      r.simSeeds(1),
		DurationMs: 200,
		SampleMs:   10,
	}
	rates := r.perm(churnRates)
	for i := 0; i < churnSets; i++ {
		set := mptcpsim.EventSet{Name: fmt.Sprintf("churn%03d", i)}
		links := r.perm(len(churnLinks))
		times := map[float64]bool{}
		for j := 0; j < 3; j++ {
			at := r.uniform(5, 195, 0.5)
			for times[at] {
				at = r.uniform(5, 195, 0.5)
			}
			times[at] = true
			link := churnLinks[links[j]]
			set.Events = append(set.Events, mptcpsim.ScenarioEvent{
				AtMs: at,
				Type: mptcpsim.EventSetRate,
				A:    link[0],
				B:    link[1],
				Mbps: 5.125 + 0.25*float64(rates[3*i+j]),
			})
		}
		sort.Slice(set.Events, func(a, b int) bool { return set.Events[a].AtMs < set.Events[b].AtMs })
		g.Events = append(g.Events, set)
	}
	return g
}

const (
	// longfatPerts is the number of perturbations of longfatLossy, and
	// longfatSeeds the number of simulator seeds per repetition.
	longfatPerts = 4
	longfatSeeds = 20
)

// longfatLossy runs the same layers as paperBulk under different stress:
// delays x4-8, buffers x2 and 0.1-0.3% random loss on every link, with
// the roundrobin and redundant schedulers. Deeper event heaps, more RTOs
// and retransmits per event, and duplicate bytes from redundant sending
// expose kernel or TCP fast-path changes that only pay off on short,
// clean paths.
//
// Throughput, and so the work per run, falls steeply with delay and loss,
// so the perturbations are fixed steps across both ranges and the seed
// draws the simulator seeds (which packets the random loss hits) only.
// Even so one run's event count varies by 15-35% between simulator seeds
// (few loss events in 4 s at these RTTs), so a repetition averages over
// longfatSeeds of them.
func longfatLossy(seed uint64) *mptcpsim.Grid {
	r := newRNG(seed, "longfat_lossy")
	g := &mptcpsim.Grid{
		CCs:        []string{"cubic", "olia"},
		Schedulers: []string{"roundrobin", "redundant"},
		Orders:     [][]int{{2, 1, 3}},
		Seeds:      r.simSeeds(longfatSeeds),
		DurationMs: 4000,
	}
	for i := 0; i < longfatPerts; i++ {
		f := float64(i) / (longfatPerts - 1)
		g.Perturbations = append(g.Perturbations, mptcpsim.Perturbation{
			Name:       fmt.Sprintf("longfat%d", i),
			DelayScale: 4 + 4*f,
			Loss:       0.001 + 0.002*f,
			QueueScale: 2,
		})
	}
	return g
}
