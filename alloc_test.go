package mptcpsim

import (
	"runtime"
	"testing"
	"time"
)

// runAllocBudget is the whole-run allocation budget for the reference
// static scenario. A warm run costs under ~1000 objects (setup, baselines
// from cache, result series); the budget leaves ~2x headroom for noise. A
// 1 s run moves tens of thousands of packets, so any per-packet or
// per-event allocation sneaking back into the transit path blows the
// budget by an order of magnitude, not by percent.
const runAllocBudget = 2000

// runByteBudget is the same run's heap-byte budget (TotalAlloc). A warm
// cubic run allocates ~1.37 MB (olia, the largest CC, ~1.42 MB), mostly
// the growth of the TCP retransmit queue and the out-of-order buffers, so
// 3 MiB is again ~2x headroom. The object budget alone misses
// allocations that grow while their count stays flat.
const runByteBudget = 3 << 20

// TestRunSteadyStateAllocs gates the end-to-end allocation bill, in
// objects and in bytes: packets and segments come from the per-run arena,
// events from the loop's node pool, so a full reference run allocates a
// fixed small amount regardless of how much traffic it moves.
func TestRunSteadyStateAllocs(t *testing.T) {
	opts := Options{CC: "cubic", Duration: time.Second, Seed: 1}
	// Warm-up: populate the process-wide baseline cache and libc/runtime
	// lazy paths so the measured runs see the steady state CI measures.
	if _, err := RunPaper(opts); err != nil {
		t.Fatal(err)
	}
	var worst, worstBytes uint64
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunPaper(opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		worst = max(worst, after.Mallocs-before.Mallocs)
		worstBytes = max(worstBytes, after.TotalAlloc-before.TotalAlloc)
	}
	if worst > runAllocBudget {
		t.Errorf("reference run allocates %d objects, budget %d", worst, runAllocBudget)
	}
	if worstBytes > runByteBudget {
		t.Errorf("reference run allocates %d bytes, budget %d", worstBytes, runByteBudget)
	}
}
