package lp

import (
	"container/list"
	"fmt"
	"sync"

	"mptcpsim/internal/topo"
)

// Baselines bundles the analytic reference allocations of one topology:
// the LP optimum, the max-min fair point, and the proportionally fair
// point. All rates are in Mbps, indexed by path.
type Baselines struct {
	// ProblemString is the canonical rendering of the throughput LP (one
	// constraint per shared link) — also the cache key.
	ProblemString string
	// Solution is the LP optimum; Status is always Optimal.
	Solution Solution
	// MaxMin and PropFair are the fairness reference allocations. They
	// are nil on an LP-only lookup (CachedOptimumCaps), which is what
	// the per-epoch baselines of a dynamic run use.
	MaxMin, PropFair []float64
}

// baselineEntry is one memoised computation; once guarantees each distinct
// topology's LP is solved exactly once even when many sweep workers miss
// the cache simultaneously, and fairOnce does the same for the fairness
// allocations, which are computed only when a lookup asks for them.
type baselineEntry struct {
	once sync.Once
	b    *Baselines // LP only: MaxMin and PropFair stay nil
	err  error

	fairOnce         sync.Once
	maxMin, propFair []float64
	// elem is the entry's position in the LRU list; nil once evicted.
	elem *list.Element
}

// DefaultBaselineCacheCap bounds the baseline cache. Dynamic-event
// timelines multiply distinct cache keys (one per capacity epoch per
// topology), so the cache is LRU-bounded instead of growing without limit
// for the lifetime of the process.
const DefaultBaselineCacheCap = 512

// baselineCache memoises Baselines by the canonical problem rendering,
// bounded by an LRU policy. A parameter sweep runs the same topology under
// many (CC, scheduler, ordering, seed) combinations; the LP and especially
// the iterative proportional-fair solve only depend on the
// capacity/incidence structure, so they are computed once per distinct
// topology (and, for dynamic runs, the LP once per capacity epoch) and
// shared.
var baselineCache = struct {
	sync.Mutex
	m map[string]*baselineEntry
	// lru orders keys by recency, oldest at the front.
	lru *list.List
	cap int
}{m: make(map[string]*baselineEntry), lru: list.New(), cap: DefaultBaselineCacheCap}

// evictOldestLocked removes the least recently used entry. The caller
// holds the cache lock. In-flight holders keep their entry pointer; only
// the map reference goes away.
func evictOldestLocked() bool {
	front := baselineCache.lru.Front()
	if front == nil {
		return false
	}
	old := front.Value.(string)
	if oe := baselineCache.m[old]; oe != nil {
		oe.elem = nil
	}
	delete(baselineCache.m, old)
	baselineCache.lru.Remove(front)
	return true
}

// lookupEntry returns the entry for key, creating it (and evicting the
// least recently used entry when the cache is full) on a miss.
func lookupEntry(key string) *baselineEntry {
	baselineCache.Lock()
	defer baselineCache.Unlock()
	e := baselineCache.m[key]
	if e != nil {
		if e.elem != nil {
			baselineCache.lru.MoveToBack(e.elem)
		}
		return e
	}
	for len(baselineCache.m) >= baselineCache.cap && evictOldestLocked() {
	}
	e = &baselineEntry{}
	e.elem = baselineCache.lru.PushBack(key)
	baselineCache.m[key] = e
	return e
}

// CachedBaselines returns the Baselines for the given topology and paths,
// computing them on first use and serving a cached copy afterwards. The
// cache key is the canonical LP rendering, which captures exactly the
// inputs all three baselines depend on: the per-link capacities and the
// path-link incidence. It is safe for concurrent use; callers receive
// private slice copies and may modify them freely.
func CachedBaselines(g *topo.Graph, paths []topo.Path) (*Baselines, error) {
	return CachedBaselinesCaps(g, paths, nil)
}

// CachedBaselinesCaps is CachedBaselines under per-link capacity
// overrides. The overridden capacities flow into the canonical problem
// rendering, so every distinct epoch gets its own cache slot. Epoch
// lookups that need only the LP use CachedOptimumCaps, which skips the
// fairness solves.
func CachedBaselinesCaps(g *topo.Graph, paths []topo.Path, caps Caps) (*Baselines, error) {
	return cachedBaselines(g, paths, caps, true)
}

// CachedOptimumCaps is CachedBaselinesCaps without the fairness
// allocations: it returns the LP optimum only, with nil MaxMin and
// PropFair — the per-epoch baselines of a dynamic run, which score each
// capacity epoch against its optimum. It shares cache slots with
// CachedBaselinesCaps: a later full lookup on the same key computes the
// fairness allocations then, exactly once.
func CachedOptimumCaps(g *topo.Graph, paths []topo.Path, caps Caps) (*Baselines, error) {
	return cachedBaselines(g, paths, caps, false)
}

func cachedBaselines(g *topo.Graph, paths []topo.Path, caps Caps, fair bool) (*Baselines, error) {
	prob := MaxThroughputCaps(g, paths, caps)
	key := prob.String()
	e := lookupEntry(key)

	e.once.Do(func() {
		sol, err := prob.Solve()
		if err != nil {
			e.err = err
			return
		}
		if sol.Status != Optimal {
			e.err = fmt.Errorf("lp: baseline LP not optimal: %v", sol.Status)
			return
		}
		e.b = &Baselines{ProblemString: key, Solution: sol}
	})
	if e.err != nil {
		return nil, e.err
	}

	out := &Baselines{
		ProblemString: e.b.ProblemString,
		Solution: Solution{
			Status:    e.b.Solution.Status,
			X:         append([]float64(nil), e.b.Solution.X...),
			Objective: e.b.Solution.Objective,
		},
	}
	if fair {
		// The key captures every input of the fairness solves, so
		// whichever caller gets here first computes them for all.
		e.fairOnce.Do(func() {
			e.maxMin = MaxMinCaps(g, paths, caps)
			e.propFair = PropFairCaps(g, paths, caps, 0)
		})
		out.MaxMin = append([]float64(nil), e.maxMin...)
		out.PropFair = append([]float64(nil), e.propFair...)
	}
	return out, nil
}

// BaselineCacheSize reports how many distinct topologies are cached
// (test hook).
func BaselineCacheSize() int {
	baselineCache.Lock()
	defer baselineCache.Unlock()
	return len(baselineCache.m)
}

// SetBaselineCacheCap changes the cache bound (n <= 0 restores the
// default), evicting oldest entries immediately if the cache is over the
// new bound. Exposed mainly for tests and embedders with unusual sweep
// shapes.
func SetBaselineCacheCap(n int) {
	if n <= 0 {
		n = DefaultBaselineCacheCap
	}
	baselineCache.Lock()
	defer baselineCache.Unlock()
	baselineCache.cap = n
	for len(baselineCache.m) > baselineCache.cap && evictOldestLocked() {
	}
}

// ResetBaselineCache drops every cached entry (exposed to embedders as
// mptcpsim.ResetBaselineCache). In-flight CachedBaselines calls are
// unaffected: they hold their own entry pointers.
func ResetBaselineCache() {
	baselineCache.Lock()
	defer baselineCache.Unlock()
	baselineCache.m = make(map[string]*baselineEntry)
	baselineCache.lru = list.New()
}
