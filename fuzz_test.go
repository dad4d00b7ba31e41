package mptcpsim

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzScenarioRoundTrip asserts the scenario format's contract on
// arbitrary input: parsing never panics, and any input that builds
// re-emits to a scenario that builds to the same export — parse → build →
// re-emit is a fixpoint.
func FuzzScenarioRoundTrip(f *testing.F) {
	seed := func(sf *ScenarioFile) {
		js, err := json.Marshal(sf)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(js)
	}
	seed(PaperScenario())
	dynamic := PaperScenario()
	dynamic.Events = []ScenarioEvent{
		{AtMs: 500, Type: EventLossBurst, A: "s", B: "v1", Loss: 0.3, DurationMs: 100},
		{AtMs: 1000, Type: EventSetRate, A: "v3", B: "v4", Mbps: 20},
		{AtMs: 2000, Type: EventLinkDown, A: "s", B: "v1"},
		{AtMs: 3000, Type: EventLinkUp, A: "s", B: "v1"},
	}
	dynamic.Links[0].Loss = 0.01
	dynamic.Links[1].QueueBytes = 32768
	dynamic.Paths[0].Name = "upper"
	seed(dynamic)
	f.Add([]byte(`{"links":[{"a":"s","b":"d","mbps":1e308,"delay_ms":1}],` +
		`"endpoints":{"src":"s","dst":"d"},"paths":[{"nodes":["s","d"]}]}`))
	f.Add([]byte(`{"links":[{"a":"s","b":"d","mbps":10,"delay_ms":1}],` +
		`"endpoints":{"src":"s","dst":"d"},"paths":[{"nodes":["s","d"]}],` +
		`"events":[{"at_ms":1e300,"type":"link_down","a":"s","b":"d"}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sf, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		nw, err := sf.Build()
		if err != nil {
			return
		}
		out1, err := nw.Scenario()
		if err != nil {
			t.Fatalf("built network failed to export: %v", err)
		}
		js1, err := json.Marshal(out1)
		if err != nil {
			t.Fatalf("marshal export: %v", err)
		}
		nw2, err := out1.Build()
		if err != nil {
			t.Fatalf("re-emitted scenario failed to build: %v\nexport: %s", err, js1)
		}
		out2, err := nw2.Scenario()
		if err != nil {
			t.Fatalf("second export failed: %v", err)
		}
		js2, err := json.Marshal(out2)
		if err != nil {
			t.Fatalf("marshal second export: %v", err)
		}
		if !bytes.Equal(js1, js2) {
			t.Fatalf("parse→build→re-emit is not a fixpoint:\nfirst:  %s\nsecond: %s", js1, js2)
		}
	})
}

// FuzzReadRunLog asserts the run-log reader's contract on arbitrary
// input — the one on-disk artifact merges trust: reading never panics; an
// accepted log's header and committed records, rewritten through
// NewLogSink, read back equal (and clean); and merging an accepted log
// never panics, whatever its header claims.
func FuzzReadRunLog(f *testing.F) {
	header := `{"run_log":1,"grid_digest":"d","k":0,"n":1,"total":2}` + "\n"
	rec0 := `{"run":{"index":0,"scenario":"paper","perturbation":"base","cc":"cubic","scheduler":"minrtt","order":[2,1,3],"seed":1,"optimum_mbps":90,"target_mbps":90,"greedy_mbps":70,"total_mbps":84.5,"gap":0.061,"converged":true,"converged_at_s":1.2,"post_cov":0.03,"path_mbps":[30,10,44.5]},"hash":"ab"}` + "\n"
	rec1 := `{"run":{"index":1,"scenario":"paper","perturbation":"base","cc":"olia","scheduler":"minrtt","seed":1,"optimum_mbps":0,"target_mbps":0,"greedy_mbps":0,"total_mbps":0,"gap":0,"converged":false,"post_cov":0,"err":"boom"}}` + "\n"
	f.Add([]byte(header + rec0 + rec1))      // valid, complete
	f.Add([]byte(header + rec0 + rec1[:40])) // torn tail
	f.Add([]byte(header[:25]))               // torn header
	f.Add([]byte(hugeTotalLog))              // header claiming the largest grid

	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadRunLog(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accept computes hashes from full Results, which a log does not
		// carry, so the rewrite (and the comparison) covers the summaries.
		var buf bytes.Buffer
		sink, err := NewLogSink(&buf, log.Header, LogOptions{})
		if err != nil {
			t.Fatalf("accepted header refused on rewrite: %v", err)
		}
		for i := range log.Runs {
			log.Runs[i].Hash = ""
			if err := sink.Accept(i+1, len(log.Runs), log.Runs[i].Run, nil); err != nil {
				t.Fatalf("record %d: %v", i, err)
			}
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := ReadRunLog(&buf)
		if err != nil {
			t.Fatalf("rewritten log unreadable: %v\n%s", err, buf.Bytes())
		}
		if back.Header != log.Header || back.Torn() || len(back.Runs) != len(log.Runs) {
			t.Fatalf("rewrite changed the log: header %+v -> %+v, torn %v, %d -> %d records",
				log.Header, back.Header, back.Torn(), len(log.Runs), len(back.Runs))
		}
		for i := range log.Runs {
			want, _ := json.Marshal(log.Runs[i])
			got, _ := json.Marshal(back.Runs[i])
			if !bytes.Equal(got, want) {
				t.Fatalf("record %d changed on rewrite:\n%s\n%s", i, want, got)
			}
		}
		_, _ = MergeShards(log) // only a panic fails here
	})
}
