package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"

	"mptcpsim"
)

// span is one timed call into a layer, recorded by the benchmark around
// the library's public functions. Parent is 0 for a root span.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Rep    int    `json:"rep"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the pass ends. Sweep delivers sink
// calls from worker goroutines, so the open-span stack is locked.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	rep   int
	spans []span
	open  []int // indices into spans of the open spans, innermost last
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// addLocked appends a span under the innermost open span and returns its
// index; the caller holds t.mu.
func (t *tracer) addLocked(name string, start, end int64) int {
	s := span{ID: len(t.spans) + 1, Rep: t.rep, Name: name, Start: start, End: end}
	if n := len(t.open); n > 0 {
		s.Parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// begin opens a span; end closes it.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := t.addLocked(name, t.now(), 0)
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = t.now()
	t.open = t.open[:len(t.open)-1]
}

// add records a span whose bounds were measured elsewhere.
func (t *tracer) add(name string, start, end int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.addLocked(name, start, end)
}

// do runs fn inside a span; on a nil tracer it just runs fn.
func (t *tracer) do(name string, fn func() error) error {
	if t == nil {
		return fn()
	}
	i := t.begin(name)
	defer t.end(i)
	return fn()
}

// write stores the spans as NDJSON, one span per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSink wraps the run-log sink. With one worker the gap between the
// end of one Accept and the start of the next is exactly one run, so it
// records a "run" span for each gap and a "runlog.accept" or
// "runlog.close" span around the wrapped call.
type spanSink struct {
	t        *tracer
	inner    mptcpsim.RunSink
	lastDone int64
}

func (s *spanSink) Accept(done, total int, sum mptcpsim.RunSummary, full *mptcpsim.Result) error {
	s.t.add("run", s.lastDone, s.t.now())
	err := s.t.do("runlog.accept", func() error { return s.inner.Accept(done, total, sum, full) })
	s.lastDone = s.t.now()
	return err
}

func (s *spanSink) Flush() error { return s.inner.Flush() }
func (s *spanSink) Close() error { return s.t.do("runlog.close", s.inner.Close) }

// countSink sums the exact per-run counts that Result carries outside the
// telemetry snapshot.
type countSink struct {
	events, delivered, duplicate uint64
}

func (c *countSink) Accept(_, _ int, _ mptcpsim.RunSummary, full *mptcpsim.Result) error {
	if full != nil {
		c.events += full.LoopEvents
		c.delivered += full.DeliveredBytes
		c.duplicate += full.DuplicateBytes
	}
	return nil
}

func (c *countSink) Flush() error { return nil }
func (c *countSink) Close() error { return nil }

// spanSummary is what the per-layer metrics read from the spans.
type spanSummary struct {
	describeMs         float64 // median Describe
	runMsP50, runMsP95 float64 // one run at one worker
	acceptUs           float64 // mean LogSink.Accept self time (Sync excluded)
	syncMsPerRep       float64 // median per repetition of the summed Syncs
	readUs             float64 // ReadRunLog time per record read
}

func (t *tracer) summary() spanSummary {
	child := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	var (
		describe, runs []float64
		accepts        int
		acceptSelf     time.Duration
		read           time.Duration
		syncPerRep     = map[int]time.Duration{}
	)
	for _, s := range t.spans {
		switch s.Name {
		case "describe":
			describe = append(describe, s.dur().Seconds()*1e3)
		case "run":
			runs = append(runs, s.dur().Seconds()*1e3)
		case "runlog.accept":
			accepts++
			acceptSelf += s.dur() - child[s.ID]
		case "runlog.sync":
			syncPerRep[s.Rep] += s.dur()
		case "runlog.read":
			read += s.dur()
		}
	}
	var syncs []float64
	for _, d := range syncPerRep {
		syncs = append(syncs, d.Seconds()*1e3)
	}
	out := spanSummary{
		describeMs:   median(describe),
		runMsP50:     quantile(runs, 0.5),
		runMsP95:     quantile(runs, 0.95),
		syncMsPerRep: median(syncs),
	}
	if accepts > 0 {
		out.acceptUs = acceptSelf.Seconds() * 1e6 / float64(accepts)
		// Every record read back was accepted once.
		out.readUs = read.Seconds() * 1e6 / float64(accepts)
	}
	return out
}
