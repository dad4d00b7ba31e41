// Package workload provides the traffic generators of the experiments:
// the iperf-style infinite bulk source, a fixed-size transfer, an on/off
// source with exponential periods, and a UDP constant-bit-rate generator
// used as cross-traffic.
package workload

import (
	"time"

	"mptcpsim/internal/netem"
	"mptcpsim/internal/packet"
	"mptcpsim/internal/sim"
	"mptcpsim/internal/topo"
)

// Bulk is an infinite backlog (iperf -t <forever>): always has data.
type Bulk struct{}

// NextData implements mptcp.DataSource.
func (Bulk) NextData(max int) int { return max }

// Fixed transfers exactly Total bytes, then stops.
type Fixed struct {
	// Total is the transfer size in bytes.
	Total int
	sent  int
}

// NextData implements mptcp.DataSource.
func (f *Fixed) NextData(max int) int {
	left := f.Total - f.sent
	if left <= 0 {
		return 0
	}
	if max > left {
		max = left
	}
	f.sent += max
	return max
}

// Sent returns the bytes handed out so far.
func (f *Fixed) Sent() int { return f.sent }

// Done reports whether the whole transfer was handed to the connection.
func (f *Fixed) Done() bool { return f.sent >= f.Total }

// OnOff alternates between sending (bulk) and silent periods with
// exponentially distributed durations, a classic bursty-traffic model.
// Call Start to begin; the Kick callback wakes the connection when a new
// on-period starts.
type OnOff struct {
	// OnMean and OffMean are the mean period durations.
	OnMean, OffMean time.Duration
	// Kick wakes the transport when data becomes available.
	Kick func()

	loop *sim.Loop
	rng  *sim.Rand
	on   bool
	flip onOffFlip
}

// NewOnOff creates an on/off source driven by the loop.
func NewOnOff(loop *sim.Loop, rng *sim.Rand, onMean, offMean time.Duration) *OnOff {
	o := &OnOff{OnMean: onMean, OffMean: offMean, loop: loop, rng: rng}
	o.flip.o = o
	return o
}

// Start begins with an on-period.
func (o *OnOff) Start() {
	o.on = true
	o.schedule()
}

func (o *OnOff) schedule() {
	var d time.Duration
	if o.on {
		d = o.rng.Exp(o.OnMean)
	} else {
		d = o.rng.Exp(o.OffMean)
	}
	o.loop.Schedule(d, &o.flip)
}

// onOffFlip is the pre-bound period-boundary callback, so the endless
// on/off alternation schedules without allocating.
type onOffFlip struct{ o *OnOff }

// Run implements sim.Callback.
func (f *onOffFlip) Run(sim.Time) {
	o := f.o
	o.on = !o.on
	if o.on && o.Kick != nil {
		o.Kick()
	}
	o.schedule()
}

// On reports whether the source is currently sending.
func (o *OnOff) On() bool { return o.on }

// NextData implements mptcp.DataSource.
func (o *OnOff) NextData(max int) int {
	if !o.on {
		return 0
	}
	return max
}

// CBR sends UDP packets at a constant bit rate from a node towards an
// address, as background cross-traffic competing with MPTCP for a link.
type CBR struct {
	// Sent counts packets emitted.
	Sent uint64

	net      *netem.Network
	node     topo.NodeID
	dst      packet.Addr
	tag      packet.Tag
	payload  int
	period   time.Duration
	stopped  bool
	tickCall cbrTick
}

// NewCBR creates a generator sending payload-byte datagrams so that the
// wire rate matches rateMbps.
func NewCBR(n *netem.Network, node topo.NodeID, dst packet.Addr, tag packet.Tag, rateMbps float64, payload int) *CBR {
	wire := payload + packet.IPv4HeaderLen + packet.UDPHeaderLen
	period := time.Duration(float64(wire*8) / (rateMbps * 1e6) * float64(time.Second))
	c := &CBR{net: n, node: node, dst: dst, tag: tag, payload: payload, period: period}
	c.tickCall.c = c
	return c
}

// cbrTick is the pre-bound per-packet callback: the generator's steady
// emission schedules on pooled nodes without closures.
type cbrTick struct{ c *CBR }

// Run implements sim.Callback.
func (t *cbrTick) Run(sim.Time) { t.c.tick() }

// Start begins emission.
func (c *CBR) Start() {
	c.tick()
}

// Stop halts emission after the next tick.
func (c *CBR) Stop() { c.stopped = true }

func (c *CBR) tick() {
	if c.stopped {
		return
	}
	src, _ := c.net.AddrOf(c.node)
	p, u := c.net.Arena().GetUDP()
	p.IP = packet.IPv4{Tag: c.tag, Proto: packet.ProtoUDP, Src: src, Dst: c.dst}
	u.SrcPort, u.DstPort = 9999, 9999
	p.PayloadLen = c.payload
	c.net.Node(c.node).Send(p)
	c.Sent++
	c.net.Loop.Schedule(c.period, &c.tickCall)
}
