package main

import (
	"fmt"
	"math/rand"

	"masq/internal/apps/perftest"
	"masq/internal/cluster"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// Datapath workload at scale 1: 32 closed-loop streams and one probe
// between two hosts' MasQ VMs.
const (
	dpStreams  = 32
	dpVMs      = 4 // per host; streams spread round-robin
	dpWindow   = 16
	dpMessages = 80_000 // stream messages per episode, split evenly
	dpVNI      = 100
)

// dpSizes is the message-size mix as stream counts: the seed decides which
// stream gets which size, and the median is 64 B so the run is bound by
// packet rate, not the link. A fixed mix keeps the seeds' results close.
var dpSizes = []struct{ size, streams int }{{64, 18}, {256, 6}, {1024, 5}, {4096, 3}}

type dpStream struct {
	size, iters int
	send        bool // SEND (receiver posts buffers) or one-sided WRITE
}

func newDatapath(seed int64, scale float64) func(episodeOpts) (*episode, error) {
	rng := rand.New(rand.NewSource(seed))
	var streams []dpStream
	for _, m := range dpSizes {
		for i := 0; i < m.streams; i++ {
			streams = append(streams, dpStream{size: m.size, send: len(streams)%2 == 0})
		}
	}
	rng.Shuffle(len(streams), func(i, j int) { streams[i], streams[j] = streams[j], streams[i] })
	// Each stream gets an equal share of the messages, give or take 10%.
	per := float64(scaled(dpMessages, scale)) / dpStreams
	for i := range streams {
		streams[i].iters = max(int(per*(0.9+0.2*rng.Float64())), 1)
	}
	probeSeed := rng.Int63()
	return func(o episodeOpts) (*episode, error) { return runDatapath(streams, probeSeed, o) }
}

// scaled sizes a workload parameter by -scale, never below 1.
func scaled(n int, scale float64) int { return max(int(float64(n)*scale+0.5), 1) }

// runDatapath is one episode: connect 33 QP pairs (set-up), then stream
// every message while the probe ping-pongs 2-byte SENDs (timed).
func runDatapath(streams []dpStream, probeSeed int64, o episodeOpts) (*episode, error) {
	ep := newEpisode(o)
	tb := cluster.New(cluster.DefaultConfig())
	tb.AddTenant(dpVNI, "tenant")
	tb.AllowAll(dpVNI)
	var clients, servers []*cluster.Node
	for i := 0; i < dpVMs; i++ {
		c, err := tb.NewNode(cluster.ModeMasQ, 0, dpVNI, packet.NewIP(10, 0, 0, byte(1+i)))
		if err != nil {
			return nil, err
		}
		s, err := tb.NewNode(cluster.ModeMasQ, 1, dpVNI, packet.NewIP(10, 0, 1, byte(1+i)))
		if err != nil {
			return nil, err
		}
		clients, servers = append(clients, c), append(servers, s)
	}
	n := len(streams) + 1 // the last pair is the probe
	cli := make([]*cluster.Endpoint, n)
	srv := make([]*cluster.Endpoint, n)
	var setupErr error
	tb.Eng.Spawn("datapath.setup", func(p *simtime.Proc) {
		for i := 0; i < n && setupErr == nil; i++ {
			if cli[i], setupErr = clients[i%dpVMs].Setup(p, cluster.DefaultEndpointOpts()); setupErr != nil {
				return
			}
			if srv[i], setupErr = servers[i%dpVMs].Setup(p, cluster.DefaultEndpointOpts()); setupErr != nil {
				return
			}
			se, ce := cluster.Pair(tb.Eng, srv[i], cli[i], uint16(7000+i))
			if err := se.Wait(p); err != nil {
				setupErr = err
			} else if err := ce.Wait(p); err != nil {
				setupErr = err
			}
		}
	})
	tb.Eng.Run()
	if setupErr != nil {
		return nil, fmt.Errorf("datapath set-up: %w", setupErr)
	}

	// The control plane must stay idle while data moves: its counters may
	// not change across the timed phase.
	controlPlane := func() any {
		b := tb.Backends
		return [...]any{b[0].Stats, b[1].Stats, b[0].CT.Stats, b[1].CT.Stats, tb.Ctrl.Stats}
	}
	before := controlPlane()

	ep.beginTimed(tb.Eng.Events(), layerCounters(tb, dpVNI))
	t0 := tb.Eng.Now()
	done := make([]*simtime.Event[perftest.ThroughputResult], len(streams))
	for i, s := range streams {
		if s.send {
			done[i] = perftest.StartSendBW(tb.Eng, cli[i], srv[i], s.size, s.iters, dpWindow)
		} else {
			done[i] = perftest.StartWriteBW(tb.Eng, cli[i], srv[i], s.size, s.iters, dpWindow)
		}
	}
	// The probe runs while any stream does. A stream whose completion
	// fails never finishes, so the probe also stops a virtual second in,
	// far beyond any stream's span.
	deadline := t0.Add(simtime.Second)
	streaming := func() bool {
		for _, d := range done {
			if !d.Triggered() {
				return tb.Eng.Now() < deadline
			}
		}
		return false
	}
	probe := runProbe(tb.Eng, cli[n-1], srv[n-1], probeSeed, streaming)
	ep.run(tb.Eng)
	ep.endTimed(tb.Eng.Events(), layerCounters(tb, dpVNI))
	ep.check(controlPlane() == before, "datapath: control-plane counters moved during the timed phase")

	var bytes int64
	for i, d := range done {
		ep.Ops += streams[i].iters
		if !d.Triggered() {
			ep.Failed += streams[i].iters
			ep.check(false, "datapath: stream %d did not complete (a completion failed)", i)
			continue
		}
		r := d.Value()
		ep.check(r.Msgs == streams[i].iters, "datapath: stream %d completed %d of %d messages", i, r.Msgs, streams[i].iters)
		bytes += r.Bytes
		ep.Span = max(ep.Span, r.Elapsed)
	}
	ep.Ops += probe.attempted
	ep.Failed += probe.failed
	ep.Lat = probe.oneWay
	ep.Violations = append(ep.Violations, probe.violations...)
	goodput := float64(bytes*8) / ep.Span.Seconds()
	ep.check(goodput < 0.8*tb.Cfg.RNIC.LineRate,
		"datapath: goodput %.2f Gbit/s is not below 80%% of line rate: the run must stay packet-rate bound", goodput/1e9)
	ep.state = append(ep.state, fmt.Sprint("goodput_bps ", goodput, " t0 ", int64(t0)))
	return ep, nil
}

// probeResult is the probe's outcome: one-way latencies (half of each
// round trip) and any payload mismatches.
type probeResult struct {
	oneWay            []simtime.Duration
	attempted, failed int
	violations        []string
}

// runProbe ping-pongs 2-byte SENDs with seeded payloads over one QP pair
// while busy reports true, verifying every payload on both sides. A
// 1-byte SEND tells the server to stop.
func runProbe(eng *simtime.Engine, c, s *cluster.Endpoint, seed int64, busy func() bool) *probeResult {
	res := &probeResult{}
	const echoOff = 4096
	fail := func(format string, args ...any) {
		res.failed++
		res.violations = append(res.violations, fmt.Sprintf("datapath probe: "+format, args...))
	}
	eng.Spawn("probe.server", func(p *simtime.Proc) {
		rng := rand.New(rand.NewSource(seed))
		got := make([]byte, 2)
		for {
			s.QP.PostRecv(p, verbs.RecvWR{Addr: s.Buf, LKey: s.MR.LKey(), Len: 2})
			wc := s.RCQ.Wait(p)
			if wc.Status != verbs.WCSuccess {
				fail("server receive failed: %v", wc.Status)
				return
			}
			if wc.ByteLen == 1 {
				return
			}
			want := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			s.Node.Read(s.Buf, got)
			if got[0] != want[0] || got[1] != want[1] {
				fail("server received %x, want %x", got, want)
			}
			s.QP.PostSend(p, verbs.SendWR{Op: verbs.WRSend, LocalAddr: s.Buf, LKey: s.MR.LKey(), Len: 2})
			if wc := s.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				fail("server echo failed: %v", wc.Status)
				return
			}
		}
	})
	eng.Spawn("probe.client", func(p *simtime.Proc) {
		rng := rand.New(rand.NewSource(seed))
		got := make([]byte, 2)
		for busy() {
			msg := []byte{byte(rng.Intn(256)), byte(rng.Intn(256))}
			c.Node.Write(c.Buf, msg)
			c.QP.PostRecv(p, verbs.RecvWR{Addr: c.Buf + echoOff, LKey: c.MR.LKey(), Len: 2})
			res.attempted++
			start := p.Now()
			c.QP.PostSend(p, verbs.SendWR{Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: 2})
			if wc := c.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				fail("client send failed: %v", wc.Status)
				return
			}
			if wc := c.RCQ.Wait(p); wc.Status != verbs.WCSuccess {
				fail("client receive failed: %v", wc.Status)
				return
			}
			res.oneWay = append(res.oneWay, p.Now().Sub(start)/2)
			c.Node.Read(c.Buf+echoOff, got)
			if got[0] != msg[0] || got[1] != msg[1] {
				fail("echo %x, want %x", got, msg)
			}
		}
		c.QP.PostSend(p, verbs.SendWR{Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: 1})
		c.SCQ.Wait(p)
	})
	return res
}
