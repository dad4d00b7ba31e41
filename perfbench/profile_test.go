package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building profile fixtures.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) msg(field int, m *pb) *pb { return p.bytes(field, m.b) }

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// fixtureProfile encodes a CPU profile with four stacks:
//
//	sim.(*Loop).RunUntil                      30 ms
//	json.Marshal <- (*LogSink).Accept         20 ms (std lib -> caller)
//	runtime.mallocgc <- tcp.(*Conn).send      10 ms
//	lp.PropFairCaps inlined into lp.Cached... 40 ms (one location, two lines)
func fixtureProfile(t *testing.T, zip bool) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"mptcpsim/internal/sim.(*Loop).RunUntil", "/src/internal/sim/sim.go",
		"encoding/json.Marshal", "/go/src/encoding/json/encode.go",
		"mptcpsim.(*LogSink).Accept", "/src/runlog.go",
		"runtime.mallocgc", "/go/src/runtime/malloc.go",
		"mptcpsim/internal/tcp.(*Conn).send", "/src/internal/tcp/sender.go",
		"mptcpsim/internal/lp.PropFairCaps", "/src/internal/lp/build.go",
		"mptcpsim/internal/lp.CachedBaselinesCaps", "/src/internal/lp/cache.go",
	}
	p := &pb{}
	p.msg(1, (&pb{}).varint(1, 1).varint(2, 2))
	p.msg(1, (&pb{}).varint(1, 3).varint(2, 4))
	// Functions 1..7: name and file string indices.
	for id := uint64(1); id <= 7; id++ {
		p.msg(5, (&pb{}).varint(1, id).varint(2, 3+2*id).varint(4, 4+2*id))
	}
	// Locations 1..6; location 6 holds an inlined callee first.
	for id := uint64(1); id <= 5; id++ {
		p.msg(4, (&pb{}).varint(1, id).msg(4, (&pb{}).varint(1, id).varint(2, 10)))
	}
	p.msg(4, (&pb{}).varint(1, 6).
		msg(4, (&pb{}).varint(1, 6)).
		msg(4, (&pb{}).varint(1, 7)))
	// Samples: packed location ids and values, and one unpacked.
	ms := uint64(time.Millisecond)
	p.msg(2, (&pb{}).bytes(1, packed(1)).bytes(2, packed(3, 30*ms)))
	p.msg(2, (&pb{}).bytes(1, packed(2, 3)).bytes(2, packed(2, 20*ms)))
	p.msg(2, (&pb{}).varint(1, 4).varint(1, 5).varint(2, 1).varint(2, 10*ms))
	p.msg(2, (&pb{}).bytes(1, packed(6)).bytes(2, packed(4, 40*ms)))
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	if !zip {
		return p.b
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p.b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFoldFixture(t *testing.T) {
	ms := int64(time.Millisecond)
	want := map[string]int64{"sim": 30 * ms, "runlog": 20 * ms, "gc": 10 * ms, "lp": 40 * ms}
	for _, zip := range []bool{false, true} {
		samples, err := parseProfile(fixtureProfile(t, zip))
		if err != nil {
			t.Fatal(err)
		}
		if len(samples) != 4 {
			t.Fatalf("gzip=%v: %d samples, want 4", zip, len(samples))
		}
		if got := samples[3].stack; len(got) != 2 || got[0].fn != "mptcpsim/internal/lp.PropFairCaps" {
			t.Errorf("inlined stack = %+v", got)
		}
		if got := foldByLayer(samples); !reflect.DeepEqual(got, want) {
			t.Errorf("gzip=%v: fold = %v, want %v", zip, got, want)
		}
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	b := fixtureProfile(t, false)
	if _, err := parseProfile(b[:len(b)-3]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}

func TestLayerOf(t *testing.T) {
	cases := []struct {
		fn, file, want string
	}{
		{"mptcpsim/internal/sim.(*Loop).RunUntil", "sim.go", "sim"},
		{"mptcpsim/internal/packet.(*Arena).Get", "arena.go", "netem"},
		{"mptcpsim/internal/cc.(*Olia).OnAck", "olia.go", "tcp"},
		{"mptcpsim/internal/stats.Summarise", "stats.go", "capture"},
		{"mptcpsim.(*Sweep).execute.func1", "/x/sweep.go", "sweep"},
		{"mptcpsim.specsDigest", "/x/shard.go", "sweep"},
		{"mptcpsim.ReadRunLog", "/x/runlog.go", "runlog"},
		{"mptcpsim.(*AggSink).Accept", "/x/sink.go", "runlog"},
		{"mptcpsim.Run", "/x/experiment.go", "other"},
		{"mptcpsim/internal/dynamics.Apply", "dynamics.go", "other"},
		{"runtime.mallocgc", "malloc.go", "gc"},
		{"internal/runtime/maps.(*Map).getWithKey", "map.go", "gc"},
		{"main.runRep", "rep.go", "other"},
		{"encoding/json.(*encodeState).marshal", "encode.go", ""},
		{"sort.Slice", "slice.go", ""},
	}
	for _, c := range cases {
		if got := layerOf(frame{c.fn, c.file}); got != c.want {
			t.Errorf("layerOf(%s) = %q, want %q", c.fn, got, c.want)
		}
	}
}

// TestParseLiveProfile parses a profile written by runtime/pprof, so the
// decoder keeps up with the encoder of the toolchain in use.
func TestParseLiveProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	x := 1.0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*1.0000001 + 1e-9
		}
	}
	pprof.StopCPUProfile()
	burnResult = x
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.ns <= 0 || len(s.stack) == 0 {
			t.Fatalf("sample %+v has no time or no stack", s)
		}
	}
}

var burnResult float64
