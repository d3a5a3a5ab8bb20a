package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"masq/internal/cluster"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// Connect workload at scale 1: an open loop of connection set-ups between
// four client and four server VMs.
const (
	cnVMs      = 4     // per host
	cnRate     = 200.0 // offered connections per virtual second (Poisson)
	cnConns    = 6_000 // connections per episode
	cnVNI      = 100
	cnTraceCap = 5000 // connections whose spans a traced episode keeps
)

// cnArrival is one generated connection request.
type cnArrival struct {
	due      simtime.Duration // offset from the timed phase's start
	cli, srv int              // VM indexes
	payload  int64            // seed of the 1 KB payload
}

func newConnect(seed int64, scale float64) func(episodeOpts) (*episode, error) {
	rng := rand.New(rand.NewSource(seed))
	arrivals := poisson(rng, scaled(cnConns, scale), cnRate)
	in := make([]cnArrival, len(arrivals))
	for i, due := range arrivals {
		in[i] = cnArrival{due: due, cli: rng.Intn(cnVMs), srv: rng.Intn(cnVMs), payload: rng.Int63()}
	}
	return func(o episodeOpts) (*episode, error) { return runConnect(in, o) }
}

// poisson draws n arrival offsets of a Poisson process at rate per second.
func poisson(rng *rand.Rand, n int, rate float64) []simtime.Duration {
	out := make([]simtime.Duration, n)
	var t float64
	for i := range out {
		t += rng.ExpFloat64() / rate
		out[i] = simtime.Duration(t * 1e9)
	}
	return out
}

// payload1K is the seeded 1 KB payload a connection writes: a SplitMix64
// stream, cheap enough to make inside the timed phase.
func payload1K(seed int64) []byte {
	b := make([]byte, slotSize)
	x := uint64(seed)
	for i := 0; i < len(b); i += 8 {
		x += 0x9e3779b97f4a7c15
		z := (x ^ x>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		binary.LittleEndian.PutUint64(b[i:], z^z>>31)
	}
	return b
}

// twoHostVMs builds a two-host MasQ testbed with cliVMs client VMs on
// host 0 (vips from cliIP) and srvVMs server VMs on host 1 (from srvIP),
// and opens their devices. A traced testbed starts with recording off.
func twoHostVMs(cfg cluster.Config, vni uint32, cliIP, srvIP func(i int) packet.IP, cliVMs, srvVMs int) (*cluster.Testbed, []*vmCtx, []*vmCtx, error) {
	tb := cluster.New(cfg)
	tb.Trace.SetEnabled(false) // workloads trace their timed phase only
	tb.AddTenant(vni, "tenant")
	var nodes []*cluster.Node
	for i := 0; i < cliVMs+srvVMs; i++ {
		host, ip := 0, cliIP(i)
		if i >= cliVMs {
			host, ip = 1, srvIP(i-cliVMs)
		}
		n, err := tb.NewNode(cluster.ModeMasQ, host, vni, ip)
		if err != nil {
			return nil, nil, nil, err
		}
		nodes = append(nodes, n)
	}
	ctx := make([]*vmCtx, len(nodes))
	var err error
	tb.Eng.Spawn("open-vms", func(p *simtime.Proc) {
		for i, n := range nodes {
			if ctx[i], err = openVM(p, n); err != nil {
				return
			}
		}
	})
	tb.Eng.Run()
	if err != nil {
		return nil, nil, nil, fmt.Errorf("opening VMs: %w", err)
	}
	return tb, ctx[:cliVMs], ctx[cliVMs:], nil
}

// connectSteps are a connection's client-side steps up to its write's
// completion, where its latency ends.
var connectSteps = []string{"create_cq", "create_qp", "exchange", "modify_init", "modify_rtr", "modify_rts", "server_ready", "write"}

// connectOnce sets up one connection, writes its payload, checks it on the
// server, and tears it down. It returns when the write completed, and the
// error that failed the connection, if any.
func connectOnce(p *simtime.Proc, req int, cli, srv *vmCtx, vc *verbClock, payload []byte) (simtime.Time, error) {
	root := vc.open(p, req, "connect")
	defer vc.close(p, root)
	var wrote simtime.Time
	c, err := dial(p, req, cli, srv, vc, root, nil)
	if err == nil {
		var st verbs.WCStatus
		st, err = c.write(p, req, payload)
		wrote = p.Now()
		if err == nil && st != verbs.WCSuccess {
			err = fmt.Errorf("connection %d: write completed with %v", req, st)
		}
	}
	if terr := c.teardown(p); err == nil {
		err = terr
	}
	return wrote, err
}

// runConnect is one episode: build the testbed and warm every host's
// rename cache with one connection per VM pair (set-up), then offer the
// generated connections on their Poisson schedule (timed).
func runConnect(in []cnArrival, o episodeOpts) (*episode, error) {
	ep := newEpisode(o)
	cfg := cluster.DefaultConfig()
	cfg.Trace = o.traced
	tb, clis, srvs, err := twoHostVMs(cfg, cnVNI,
		func(i int) packet.IP { return packet.NewIP(10, 0, 0, byte(1+i)) },
		func(i int) packet.IP { return packet.NewIP(10, 0, 1, byte(1+i)) }, cnVMs, cnVMs)
	if err != nil {
		return nil, err
	}
	tb.AllowAll(cnVNI)
	warm := newVerbClock(0, nil)
	var warmErr error
	tb.Eng.Spawn("warm-up", func(p *simtime.Proc) {
		for i := 0; i < cnVMs*cnVMs && warmErr == nil; i++ {
			_, warmErr = connectOnce(p, i, clis[i/cnVMs], srvs[i%cnVMs], warm, make([]byte, slotSize))
		}
	})
	tb.Eng.Run()
	if warmErr != nil {
		return nil, fmt.Errorf("connect warm-up: %w", warmErr)
	}
	qps := [2]int{tb.Hosts[0].Dev.QPs(), tb.Hosts[1].Dev.QPs()}
	rct := [2]int{len(tb.Backends[0].CT.Conns()), len(tb.Backends[1].CT.Conns())}

	traceCap := 0
	if o.traced {
		traceCap = cnTraceCap
	}
	vc := newVerbClock(traceCap, tb.Trace)
	ep.verbs = vc
	ep.beginTimed(tb.Eng.Events(), layerCounters(tb, cnVNI))
	t0 := tb.Eng.Now()
	tb.Trace.SetEnabled(o.traced)
	lat := make([]simtime.Duration, len(in))
	errs := make([]error, len(in))
	for i, a := range in {
		i, a := i, a
		tb.Eng.At(t0.Add(a.due), func() {
			tb.Eng.Spawn(fmt.Sprintf("client-%d", i), func(p *simtime.Proc) {
				var wrote simtime.Time
				wrote, errs[i] = connectOnce(p, i, clis[a.cli], srvs[a.srv], vc, payload1K(a.payload))
				lat[i] = wrote.Sub(t0.Add(a.due))
			})
		})
	}
	ep.run(tb.Eng)
	ep.endTimed(tb.Eng.Events(), layerCounters(tb, cnVNI))
	ep.Span = tb.Eng.Now().Sub(t0)
	ep.rec = tb.Trace

	ep.Ops = len(in)
	for i, err := range errs {
		if err != nil {
			ep.Failed++
			ep.check(false, "connect: connection %d: %v", i, err)
		}
	}
	ep.Lat = lat
	ep.check(ep.Layers["masq.cache_misses"] == 0, "connect: %v rename-cache misses after warm-up", ep.Layers["masq.cache_misses"])
	for h := 0; h < 2; h++ {
		ep.check(tb.Hosts[h].Dev.QPs() == qps[h], "connect: host %d has %d QPs after the run, %d before", h, tb.Hosts[h].Dev.QPs(), qps[h])
		n := len(tb.Backends[h].CT.Conns())
		ep.check(n == rct[h], "connect: host %d RCT holds %d connections after the run, %d before", h, n, rct[h])
	}
	return ep, nil
}
