// Package simnet models the physical (underlay) network of the testbed:
// NIC ports, full-duplex links with bandwidth serialization and propagation
// delay, and a store-and-forward learning L2 switch. Links are lossless by
// default, matching the paper's PFC-enabled RoCEv2 fabric; structured
// faults — administrative link down, windowed probabilistic loss (uniform
// or bursty), switch failure — can be installed per link/switch, and every
// discarded frame is counted and attributed to its cause. The chaos
// package schedules these faults deterministically in virtual time.
package simnet

import (
	"math/rand"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// Frame is a serialized Ethernet frame on the wire.
type Frame []byte

// DstMAC peeks at the destination MAC without a full decode.
func (f Frame) DstMAC() packet.MAC {
	var m packet.MAC
	copy(m[:], f[:6])
	return m
}

// SrcMAC peeks at the source MAC without a full decode.
func (f Frame) SrcMAC() packet.MAC {
	var m packet.MAC
	copy(m[:], f[6:12])
	return m
}

// Gbps expresses a link speed in bits per second.
func Gbps(g float64) float64 { return g * 1e9 }

// Port is a network attachment point. A device reads arriving frames from
// RX and transmits with Send once the port is attached to a link or switch.
type Port struct {
	Name string
	RX   *simtime.Queue[Frame]

	tx func(Frame)

	// Counters, maintained by the link layer.
	TxBytes, RxBytes   uint64
	TxFrames, RxFrames uint64
}

// NewPort returns an unattached port whose frames are delivered into RX on
// eng.
func NewPort(eng *simtime.Engine, name string) *Port {
	return &Port{Name: name, RX: simtime.NewQueue[Frame](eng)}
}

// Send transmits a frame. It never blocks: the frame queues at the link and
// is serialized at link rate. A receiver that decodes the frame through a
// packet.Pool takes it over and recycles it, so the sender must not touch
// a frame it has sent. Sending on an unattached port panics — it is a
// wiring bug, not a runtime condition.
func (p *Port) Send(f Frame) {
	if p.tx == nil {
		panic("simnet: send on unattached port " + p.Name)
	}
	p.TxBytes += uint64(len(f))
	p.TxFrames++
	p.tx(f)
}

func (p *Port) deliver(f Frame) {
	p.RxBytes += uint64(len(f))
	p.RxFrames++
	p.RX.Put(f)
}

// LinkStats counts, across both directions, what happened to frames that
// finished serializing on a link. Every discarded frame is attributed to
// exactly one cause, so Dropped == DroppedDown+DroppedLoss+DroppedHook and
// no injected fault is ever invisible.
type LinkStats struct {
	Delivered   uint64 // frames that entered propagation
	Dropped     uint64 // frames discarded, any cause
	DroppedDown uint64 // discarded because the link was administratively down
	DroppedLoss uint64 // discarded by the probabilistic LossModel
	DroppedHook uint64 // discarded by the legacy Drop hook
}

// LossModel drops frames probabilistically inside a virtual-time window.
// Burst > 1 models correlated loss: each drop decision discards a run of
// consecutive frames. The model owns a private seeded PRNG so two runs with
// the same seed make identical drop decisions.
type LossModel struct {
	Start simtime.Time // window start (inclusive)
	End   simtime.Time // window end (exclusive); 0 means no end
	Prob  float64      // per-decision drop probability
	Burst int          // frames lost per drop decision (min 1)

	rng       *rand.Rand
	burstLeft int
}

// NewLossModel returns a loss model active on [start, end) with its own
// PRNG seeded from seed.
func NewLossModel(seed int64, prob float64, burst int, start, end simtime.Time) *LossModel {
	if burst < 1 {
		burst = 1
	}
	return &LossModel{Start: start, End: end, Prob: prob, Burst: burst,
		rng: rand.New(rand.NewSource(seed))}
}

// drop decides the fate of one frame finishing serialization at now.
func (m *LossModel) drop(now simtime.Time) bool {
	if now < m.Start || (m.End != 0 && now >= m.End) {
		return false
	}
	if m.burstLeft > 0 {
		m.burstLeft--
		return true
	}
	if m.rng.Float64() < m.Prob {
		m.burstLeft = m.Burst - 1
		return true
	}
	return false
}

// Link is a full-duplex point-to-point link. Each direction serializes
// frames FIFO at the link bandwidth and then delivers them after the
// propagation delay (propagation is pipelined behind serialization).
// Links are lossless unless a fault is installed: an administrative down
// state (SetDown), a probabilistic LossModel (SetLoss), or the legacy Drop
// hook. All discards are counted in Stats.
type Link struct {
	A, B      *Port
	Bandwidth float64 // bits per second
	PropDelay simtime.Duration

	// Drop, when non-nil, is consulted per frame (after serialization);
	// returning true discards the frame. It must not keep the frame: one
	// it lets through may be recycled by its receiver. Retained as a shim
	// for tests that predate the structured fault layer — new code should
	// use SetDown or SetLoss, whose drops are attributed in Stats.
	Drop func(Frame) bool

	down  bool
	loss  *LossModel
	tap   *Tap
	stats LinkStats
}

// Stats returns both directions' frame accounting.
func (l *Link) Stats() LinkStats { return l.stats }

// SetDown raises or clears the link's administrative down state. While
// down, every frame that finishes serializing (either direction) is
// discarded and counted in Stats.DroppedDown; frames already propagating
// are delivered (they left the wire before the cut).
func (l *Link) SetDown(down bool) { l.down = down }

// IsDown reports the administrative state.
func (l *Link) IsDown() bool { return l.down }

// SetLoss installs (or, with nil, removes) a probabilistic loss model.
func (l *Link) SetLoss(m *LossModel) { l.loss = m }

// Loss returns the currently installed loss model, if any.
func (l *Link) Loss() *LossModel { return l.loss }

// Name labels the link by its endpoint ports, for traces and diagnostics.
func (l *Link) Name() string { return l.A.Name + "<->" + l.B.Name }

// Tap is a passive capture point on a link: every frame (both directions)
// is recorded with its virtual transmission-complete time, ready for
// packet.WritePcap.
type Tap struct {
	frames []packet.CapturedFrame
}

// Frames returns the capture so far.
func (t *Tap) Frames() []packet.CapturedFrame { return t.frames }

// AttachTap starts capturing on the link and returns the tap. Frames are
// copied, so later buffer reuse cannot corrupt the capture.
func (l *Link) AttachTap() *Tap {
	if l.tap == nil {
		l.tap = &Tap{}
	}
	return l.tap
}

// Connect wires ports a and b with a link of the given bandwidth and
// propagation delay and starts its pump processes.
func Connect(eng *simtime.Engine, a, b *Port, bandwidth float64, prop simtime.Duration) *Link {
	l := &Link{A: a, B: b, Bandwidth: bandwidth, PropDelay: prop}
	l.pump(eng, a, b)
	l.pump(eng, b, a)
	return l
}

// pump starts one direction of the link as a callback-driven pipeline: a
// frame serializes for txTime at link rate, then propagates for PropDelay.
// The serialization stage runs inline in the engine loop (no goroutine per
// direction), and its state machine — one frame in serialization at a time,
// the rest queued — matches the FIFO the process version modeled.
func (l *Link) pump(eng *simtime.Engine, from, to *Port) {
	d := &linkDir{l: l, eng: eng, to: to, q: simtime.NewQueue[Frame](eng)}
	from.tx = d.q.Put
	d.serve = d.start
	d.done = eng.NewTimer(d.txDone)
	d.q.OnNext(d.serve)
}

// linkDir is one direction of a link's serialization pipeline: its queue,
// timers and propagation pool.
type linkDir struct {
	l       *Link
	eng     *simtime.Engine
	to      *Port
	q       *simtime.Queue[Frame]
	serve   func(Frame)    // cached OnNext callback (avoids method-value allocs)
	done    *simtime.Timer // fires when the in-flight frame finishes serializing
	pending Frame
	// propFree pools the in-flight propagation records (several frames can
	// be on the wire at once; each record owns an intrusive timer).
	propFree []*propJob
}

// propJob carries one frame across the link's propagation delay.
type propJob struct {
	d *linkDir
	f Frame
	t *simtime.Timer
}

func (d *linkDir) propagate(f Frame) {
	var j *propJob
	if n := len(d.propFree); n > 0 {
		j = d.propFree[n-1]
		d.propFree[n-1] = nil
		d.propFree = d.propFree[:n-1]
	} else {
		j = &propJob{d: d}
		j.t = d.eng.NewTimer(j.fire)
	}
	j.f = f
	j.t.ScheduleAfter(d.l.PropDelay)
}

func (j *propJob) fire() {
	f := j.f
	j.f = nil
	j.d.propFree = append(j.d.propFree, j)
	j.d.to.deliver(f)
}

// start begins serializing f; txDone takes over when the wire time elapses.
func (d *linkDir) start(f Frame) {
	d.pending = f
	d.done.ScheduleAfter(d.l.txTime(len(f)))
}

func (d *linkDir) txDone() {
	f := d.pending
	d.pending = nil
	l := d.l
	if l.tap != nil {
		l.tap.frames = append(l.tap.frames, packet.CapturedFrame{
			TimeNanos: int64(d.eng.Now()),
			Data:      append([]byte(nil), f...),
		})
	}
	switch {
	case l.down:
		l.stats.Dropped++
		l.stats.DroppedDown++
	case l.loss != nil && l.loss.drop(d.eng.Now()):
		l.stats.Dropped++
		l.stats.DroppedLoss++
	case l.Drop != nil && l.Drop(f):
		l.stats.Dropped++
		l.stats.DroppedHook++
	default:
		l.stats.Delivered++
		d.propagate(f)
	}
	if next, ok := d.q.TryGet(); ok {
		d.start(next)
		return
	}
	d.q.OnNext(d.serve)
}

func (l *Link) txTime(bytes int) simtime.Duration {
	return simtime.Duration(float64(bytes*8) / l.Bandwidth * 1e9)
}

// Switch is a store-and-forward learning L2 switch. Each switch port is
// connected to a peer port with a Link, so egress serialization and
// propagation are modelled by the links themselves; the switch adds a fixed
// per-frame forwarding latency.
type Switch struct {
	Name         string
	ForwardDelay simtime.Duration

	// Dropped counts frames discarded because the switch was down.
	Dropped uint64

	eng   *simtime.Engine
	ports []*Port
	links []*Link
	fdb   map[packet.MAC]int // MAC → port index
	down  bool
}

// SetDown fails or restores the whole switch. While down, every frame that
// reaches the forwarding stage is discarded and counted in Dropped; the
// attached links themselves stay up (hosts see total loss, not link down).
func (s *Switch) SetDown(down bool) { s.down = down }

// IsDown reports whether the switch is failed.
func (s *Switch) IsDown() bool { return s.down }

// NewSwitch returns a switch with no ports.
func NewSwitch(eng *simtime.Engine, name string, forwardDelay simtime.Duration) *Switch {
	return &Switch{Name: name, ForwardDelay: forwardDelay, eng: eng, fdb: make(map[packet.MAC]int)}
}

// AttachPort creates a new switch port, connects it to peer with a link of
// the given speed, and starts forwarding for it. The created link is
// returned (and retained in Links) so faults can target it.
func (s *Switch) AttachPort(peer *Port, bandwidth float64, prop simtime.Duration) *Link {
	sp := s.newPort()
	l := Connect(s.eng, sp, peer, bandwidth, prop)
	s.links = append(s.links, l)
	return l
}

// newPort adds a switch port and starts its forwarding pipeline: hold
// each frame for the fixed lookup delay, then forward; arrivals during
// the delay queue on the port.
func (s *Switch) newPort() *Port {
	idx := len(s.ports)
	sp := NewPort(s.eng, s.Name+".p"+itoa(idx))
	s.ports = append(s.ports, sp)
	fw := &switchPort{s: s, in: idx, rx: sp.RX}
	fw.serve = fw.start
	fw.done = s.eng.NewTimer(fw.fwdDone)
	sp.RX.OnNext(fw.serve)
	return sp
}

// switchPort is one switch port's store-and-forward state machine.
type switchPort struct {
	s       *Switch
	in      int
	rx      *simtime.Queue[Frame]
	serve   func(Frame)
	done    *simtime.Timer
	pending Frame
}

func (f *switchPort) start(fr Frame) {
	f.pending = fr
	f.done.ScheduleAfter(f.s.ForwardDelay)
}

func (f *switchPort) fwdDone() {
	fr := f.pending
	f.pending = nil
	f.s.forward(f.in, fr)
	if next, ok := f.rx.TryGet(); ok {
		f.start(next)
		return
	}
	f.rx.OnNext(f.serve)
}

func (s *Switch) forward(in int, f Frame) {
	if s.down {
		s.Dropped++
		return
	}
	if len(f) < 14 {
		return // runt frame
	}
	s.fdb[f.SrcMAC()] = in
	dst := f.DstMAC()
	if dst != packet.BroadcastMAC {
		if out, ok := s.fdb[dst]; ok {
			if out != in {
				s.ports[out].Send(f)
			}
			return
		}
	}
	// Flood. Each port gets a frame of its own, because a receiver that
	// decodes one through a packet.Pool owns it and recycles it on
	// release: the last port gets f, the others copies made before it.
	last := len(s.ports) - 1
	if last == in {
		last--
	}
	for i, p := range s.ports {
		switch i {
		case in:
		case last:
			p.Send(f)
		default:
			p.Send(append(Frame(nil), f...))
		}
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}
