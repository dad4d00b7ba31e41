package workload

import (
	"testing"
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/route"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
	"mptcpsim/internal/unit"
)

func TestBulkAlwaysFull(t *testing.T) {
	var b Bulk
	if b.NextData(1400) != 1400 || b.NextData(1) != 1 {
		t.Fatal("bulk must always return max")
	}
}

func TestFixedExhausts(t *testing.T) {
	f := &Fixed{Total: 3000}
	got := 0
	for {
		n := f.NextData(1400)
		if n == 0 {
			break
		}
		got += n
	}
	if got != 3000 {
		t.Fatalf("handed out %d, want 3000", got)
	}
	if !f.Done() || f.Sent() != 3000 {
		t.Fatal("Done/Sent wrong")
	}
	if f.NextData(1) != 0 {
		t.Fatal("exhausted source returned data")
	}
}

func TestOnOffAlternates(t *testing.T) {
	loop := sim.NewLoop()
	o := NewOnOff(loop, sim.NewRand(1), 50*time.Millisecond, 50*time.Millisecond)
	kicks := 0
	o.Kick = func() { kicks++ }
	o.Start()
	if !o.On() {
		t.Fatal("must start on")
	}
	onTime, offTime := 0, 0
	var probe func()
	probe = func() {
		if o.On() {
			onTime++
		} else {
			offTime++
		}
		loop.Schedule(time.Millisecond, sim.Func(probe))
	}
	loop.Schedule(0, sim.Func(probe))
	if err := loop.RunUntil(sim.Time(3 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if kicks == 0 {
		t.Fatal("no kicks delivered")
	}
	// Symmetric means: both states visited substantially.
	if onTime < 600 || offTime < 600 {
		t.Fatalf("on=%dms off=%dms, want both > 600", onTime, offTime)
	}
	if o.On() {
		if o.NextData(100) != 100 {
			t.Fatal("on source must deliver")
		}
	} else if o.NextData(100) != 0 {
		t.Fatal("off source must be silent")
	}
}

func TestCBRRate(t *testing.T) {
	g := topo.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	ab, _ := g.AddDuplex(a, b, 100*unit.Mbps, time.Millisecond, unit.MB)
	loop := sim.NewLoop()
	tt := route.NewTagTable(g)
	n, err := netem.New(loop, g, tt)
	if err != nil {
		t.Fatal(err)
	}
	n.AssignAddr(a)
	dst := n.AssignAddr(b)
	if err := tt.AddPath(dst, 1, topo.Path{Nodes: []topo.NodeID{a, b}, Links: []topo.LinkID{ab}}); err != nil {
		t.Fatal(err)
	}
	var rcvd uint64
	if err := n.Node(b).Register(9999, netem.HandlerFunc(func(p *packet.Packet) {
		rcvd += uint64(p.Size())
	})); err != nil {
		t.Fatal(err)
	}
	cbr := NewCBR(n, a, dst, 1, 10, 1000-packet.IPv4HeaderLen-packet.UDPHeaderLen)
	loop.Schedule(0, sim.Func(func() { cbr.Start() }))
	if err := loop.RunUntil(sim.Time(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	mbps := float64(rcvd) * 8 / 2 / 1e6
	if mbps < 9.8 || mbps > 10.2 {
		t.Fatalf("CBR rate = %.2f Mbps, want 10", mbps)
	}
	cbr.Stop()
	at := cbr.Sent
	if err := loop.RunFor(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if cbr.Sent > at+1 {
		t.Fatal("Stop did not halt emission")
	}
}
