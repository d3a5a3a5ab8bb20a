package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"masq/internal/cluster"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// Rule-churn workload at scale 1. Clients sit in 8 subnets of 2 VMs on
// host 0, servers in 8 subnets of 2 VMs on host 1. One narrow allow rule
// per (client subnet, server subnet) pair admits client → server
// connections over default deny; one static rule admits the reverse
// direction, which the server side's own modify_rtr checks.
const (
	rcVMs         = 16 // per host
	rcSubnets     = 8  // per host
	rcBulkRules   = 10_000
	rcDuration    = 10 * simtime.Second       // timed phase, virtual
	rcQuiet       = 50 * simtime.Millisecond  // event-free tail, so enforcement drains before the end
	rcRuleRate    = 20.0                      // rule revocations per virtual second (Poisson)
	rcReAdd       = 100 * simtime.Millisecond // a revoked rule returns after this
	rcConnectRate = 100.0                     // new connection attempts per virtual second (Poisson)
	rcThink       = 30 * simtime.Millisecond  // mean think time between a live connection's writes
	rcBackoff     = 100 * simtime.Millisecond // first reconnect backoff; doubles per attempt
	rcVNI         = 100
	rcTraceCap    = 5000
)

// The rates keep host 0's RNIC firmware about half busy. A MasQ VF pays
// 2.35x the PF's firmware cost, so each connection costs ~2.25 ms of it
// and each reset plus reconnect ~3 ms (four connections per revoked
// rule): 100 attempts/s and 20 revocations/s load it ~47%. Much higher
// rates overload it, and enforcement then never drains. The 100 ms
// re-add delay is far above enforcement's usual tail, and the equal
// backoff makes most reconnects succeed at the first try. New
// connections write 512 B to 1 KB, so their latencies do not all sit on
// the handful of values the model's fixed verb costs produce.

func rcClientIP(i int) packet.IP { return packet.NewIP(172, 20, byte(i/2), byte(10+i%2)) }
func rcServerIP(i int) packet.IP { return packet.NewIP(172, 21, byte(i/2), byte(10+i%2)) }

// rcPair indexes the narrow rule covering client VM c and server VM s.
func rcPair(c, s int) int { return (c/2)*rcSubnets + s/2 }

func rcNarrow(pair int) overlay.Rule {
	return overlay.Rule{Priority: 2000, Proto: overlay.ProtoRDMA,
		Src:    packet.CIDR{IP: packet.NewIP(172, 20, byte(pair/rcSubnets), 0), Bits: 24},
		Dst:    packet.CIDR{IP: packet.NewIP(172, 21, byte(pair%rcSubnets), 0), Bits: 24},
		Action: overlay.Allow}
}

// rcEvent is one rule revocation, re-added rcReAdd later.
type rcEvent struct {
	at   simtime.Duration
	pair int
}

// rcAttempt is one new connection attempt.
type rcAttempt struct {
	at       simtime.Duration
	cli, srv int
	payload  int64 // seed of the payload
	size     int   // bytes written, 512 B to 1 KB
}

type rcInput struct {
	bulk     []overlay.Rule
	events   []rcEvent
	attempts []rcAttempt
	think    [][]simtime.Duration // per live connection, cycled
	duration simtime.Duration
}

func newRuleChurn(seed int64, scale float64) func(episodeOpts) (*episode, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &rcInput{duration: max(simtime.Duration(float64(rcDuration)*scale), 2*rcQuiet)}
	// The bulk chain lives in 10/8, which no measured flow uses: it costs
	// index memory and probes but never decides a verdict.
	bits := []int{8, 16, 24, 32}
	cidr := func() packet.CIDR {
		return packet.CIDR{IP: packet.NewIP(10, byte(rng.Intn(250)), byte(rng.Intn(250)), byte(rng.Intn(250))), Bits: bits[rng.Intn(4)]}
	}
	for i := 0; i < scaled(rcBulkRules, scale); i++ {
		act := overlay.Action(rng.Intn(2))
		in.bulk = append(in.bulk, overlay.Rule{Priority: 2 + rng.Intn(1024), Proto: overlay.ProtoRDMA, Src: cidr(), Dst: cidr(), Action: act})
	}
	horizon := in.duration - rcQuiet
	backAt := make([]simtime.Duration, rcSubnets*rcSubnets) // when each pair's rule is back
	for _, at := range poisson(rng, int(rcRuleRate*horizon.Seconds())+1, rcRuleRate) {
		if at >= horizon {
			break
		}
		pair := rng.Intn(len(backAt))
		for backAt[pair] > at { // revoke only rules in place
			pair = (pair + 1) % len(backAt)
		}
		backAt[pair] = at + rcReAdd
		in.events = append(in.events, rcEvent{at: at, pair: pair})
	}
	for _, at := range poisson(rng, int(rcConnectRate*horizon.Seconds())+1, rcConnectRate) {
		if at >= horizon {
			break
		}
		in.attempts = append(in.attempts, rcAttempt{at: at, cli: rng.Intn(rcVMs), srv: rng.Intn(rcVMs),
			payload: rng.Int63(), size: slotSize/2 + rng.Intn(slotSize/2+1)})
	}
	// One live connection per (client, server) VM pair: 256 at scale 1.
	in.think = make([][]simtime.Duration, scaled(rcVMs*rcVMs, scale))
	for i := range in.think {
		for j := 0; j < 16; j++ {
			in.think[i] = append(in.think[i], simtime.Duration(rng.ExpFloat64()*float64(rcThink)))
		}
	}
	return func(o episodeOpts) (*episode, error) { return runRuleChurn(in, o) }
}

// rcConn is one connection's life as the benchmark saw it.
type rcConn struct {
	pair       int
	rtr0, rtr1 simtime.Time // the client's modify_rtr call; RConntrack decides inside it
	failed     simtime.Time // first failure seen, 0 if none
	closed     simtime.Time
	live       bool           // a long-lived streaming connection that got established
	qp         verbs.QP       // the client's QP, once established
	overtaken  []simtime.Time // revocations whose rule returned before enforcement reset the QP
}

// rcRun is one episode's shared state.
type rcRun struct {
	tb      *cluster.Testbed
	tenant  *overlay.Tenant
	clis    []*vmCtx
	srvs    []*vmCtx
	vc      *verbClock
	think   [][]simtime.Duration
	end     simtime.Time
	nextReq int

	revokes [][]simtime.Time // per pair, revocation instants
	conns   []*rcConn
	connect []simtime.Duration // new connections: due → write completed
	enforce []simtime.Duration // revocation → the application sees its QP fail
	ops     int
	denied  int
	fails   []string

	overtakenN int
}

func (r *rcRun) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// allowed is the policy oracle for client VM c → server VM s.
func (r *rcRun) allowed(c, s int) bool {
	return r.tenant.Allows(overlay.ProtoRDMA, rcClientIP(c), rcServerIP(s))
}

// attempt dials client c → server s and checks RConntrack's verdict
// against the oracle, read at both ends of the client's modify_rtr (a
// rule change inside the call admits either verdict). A denial the
// oracle expects counts as denied; a reset during establishment counts
// as a failure seen. It returns the connection if it is up.
func (r *rcRun) attempt(p *simtime.Proc, c, s int) (*connection, *rcConn) {
	req := r.nextReq
	r.nextReq++
	r.ops++
	root := r.vc.open(p, req, "connect")
	defer r.vc.close(p, root)
	rec := &rcConn{pair: rcPair(c, s)}
	r.conns = append(r.conns, rec)
	var before, after bool
	conn, err := dial(p, req, r.clis[c], r.srvs[s], r.vc, root, func(end bool) {
		if !end {
			rec.rtr0, before = p.Now(), r.allowed(c, s)
		} else {
			rec.rtr1, after = p.Now(), r.allowed(c, s)
		}
	})
	switch {
	case errors.Is(err, errDenied) && !(before && after):
		r.denied++
	case errors.Is(err, errDenied):
		r.fail("rule-churn: connection %d (client %d → server %d) denied while the policy allowed it", req, c, s)
	case !before && !after:
		r.fail("rule-churn: connection %d (client %d → server %d) admitted while the policy denied it", req, c, s)
	case err != nil && rec.rtr1 != 0:
		r.failureSeen(p, rec, req) // reset between RTR and RTS
	case err != nil:
		r.fail("rule-churn: connection %d: %v", req, err)
	}
	if err != nil {
		r.close(p, conn, rec)
		return nil, rec
	}
	rec.qp = conn.qp
	return conn, rec
}

// overtake runs as pair's rule returns after its revocation at t. An
// established connection of the pair whose QP is not in ERROR yet was
// not reached by enforcement in time, and enforcement, which re-checks
// the policy as it scans, now lets it live: it is exempt from the
// survival check and counted.
func (r *rcRun) overtake(pair int, t simtime.Time) {
	for _, rec := range r.conns {
		if rec.pair == pair && rec.qp != nil && rec.rtr1 < t && rec.closed == 0 && rec.failed == 0 &&
			rec.qp.State() != verbs.StateError {
			rec.overtaken = append(rec.overtaken, t)
			r.overtakenN++
		}
	}
}

func (r *rcRun) close(p *simtime.Proc, conn *connection, rec *rcConn) {
	if err := conn.teardown(p); err != nil {
		r.fail("rule-churn: connection %d teardown: %v", conn.req, err)
	}
	rec.closed = p.Now()
}

// failureSeen records that a connection's QP failed: a revocation of its
// rule since its RTR began must explain it, and the delay from that
// revocation is an enforcement-latency sample.
func (r *rcRun) failureSeen(p *simtime.Proc, rec *rcConn, req int) {
	rec.failed = p.Now()
	var last simtime.Time = -1
	for _, t := range r.revokes[rec.pair] {
		if t >= rec.rtr0 && t <= rec.failed {
			last = t
		}
	}
	if last < 0 {
		r.fail("rule-churn: connection %d failed with no revocation of its rule", req)
		return
	}
	r.enforce = append(r.enforce, rec.failed.Sub(last))
}

// once is a new connection attempt, due at the proc's start: dial, write
// the payload once, check it on the server, tear down. A connection that
// wrote is a connect-latency sample.
func (r *rcRun) once(p *simtime.Proc, a rcAttempt) {
	due := p.Now()
	conn, rec := r.attempt(p, a.cli, a.srv)
	if conn == nil {
		return
	}
	st, err := conn.write(p, conn.req, payload1K(a.payload)[:a.size])
	switch {
	case err != nil:
		r.fail("rule-churn: connection %d: %v", conn.req, err)
	case st != verbs.WCSuccess:
		r.vc.wcErrors++
		r.failureSeen(p, rec, conn.req)
	default:
		r.connect = append(r.connect, p.Now().Sub(due))
	}
	r.close(p, conn, rec)
}

// stream runs long-lived connection idx (client c → server s) until the
// run ends: 1 KB writes separated by think times, and after a reset,
// reconnects with backoff. A posted receive flushes the moment the QP is
// reset, so the application sees the reset when it happens.
func (r *rcRun) stream(p *simtime.Proc, idx, c, s int, conn *connection, rec *rcConn) {
	think := r.think[idx]
	payload := payload1K(int64(idx))
	backoff := rcBackoff
	for n := 0; p.Now() < r.end; n++ {
		if conn == nil {
			p.Sleep(backoff)
			backoff *= 2
			if conn, rec = r.attempt(p, c, s); conn != nil {
				backoff = rcBackoff
				if err := r.armReceive(p, conn, rec); err != nil {
					return
				}
			}
			continue
		}
		failed := false
		if _, flushed := conn.cq.WaitTimeout(p, think[n%len(think)]); flushed {
			failed = true
		} else if p.Now() < r.end {
			r.ops++
			binary.LittleEndian.PutUint32(payload, uint32(n))
			st, err := conn.write(p, idx, payload)
			if err != nil {
				r.fail("rule-churn: live connection %d: %v", idx, err)
			}
			failed = st != verbs.WCSuccess
		}
		if failed {
			r.vc.wcErrors++
			r.failureSeen(p, rec, conn.req)
			r.close(p, conn, rec)
			conn = nil
		}
	}
	if conn != nil {
		r.close(p, conn, rec)
	}
}

// armReceive posts the receive that reports a reset and marks the
// connection live.
func (r *rcRun) armReceive(p *simtime.Proc, conn *connection, rec *rcConn) error {
	rec.live = true
	err := conn.qp.PostRecv(p, verbs.RecvWR{Addr: conn.cli.slotAddr(conn.req), LKey: conn.cli.mr.LKey(), Len: 1})
	if err != nil {
		r.fail("rule-churn: connection %d: posting the receive: %v", conn.req, err)
	}
	return err
}

// runRuleChurn is one episode: load the policy and connect the 256 live
// connections (set-up), then revoke and re-add rules, offer new
// connections and stream on the live ones (timed).
func runRuleChurn(in *rcInput, o episodeOpts) (*episode, error) {
	ep := newEpisode(o)
	cfg := cluster.DefaultConfig()
	cfg.Trace = o.traced
	tb, clis, srvs, err := twoHostVMs(cfg, rcVNI, rcClientIP, rcServerIP, rcVMs, rcVMs)
	if err != nil {
		return nil, err
	}
	tenant := tb.Fab.Tenant(rcVNI)
	tenant.Policy.AddRules(in.bulk)
	ids := make([]int, rcSubnets*rcSubnets)
	for pair := range ids {
		ids[pair] = tenant.Policy.AddRule(rcNarrow(pair))
	}
	tenant.Policy.AddRule(overlay.Rule{Priority: 2000, Proto: overlay.ProtoRDMA,
		Src:    packet.CIDR{IP: packet.NewIP(172, 21, 0, 0), Bits: 16},
		Dst:    packet.CIDR{IP: packet.NewIP(172, 20, 0, 0), Bits: 16},
		Action: overlay.Allow})

	r := &rcRun{tb: tb, tenant: tenant, clis: clis, srvs: srvs, vc: newVerbClock(0, nil),
		think: in.think, revokes: make([][]simtime.Time, len(ids))}
	live := make([]*connection, len(in.think))
	recs := make([]*rcConn, len(live))
	tb.Eng.Spawn("connect-live", func(p *simtime.Proc) {
		for i := range live {
			if live[i], recs[i] = r.attempt(p, i/rcVMs, i%rcVMs); live[i] != nil {
				r.armReceive(p, live[i], recs[i])
			}
		}
	})
	tb.Eng.Run()
	if len(r.fails) > 0 || r.denied > 0 {
		return nil, fmt.Errorf("rule-churn set-up: %d of %d live connections failed: %v", len(r.fails)+r.denied, len(live), r.fails)
	}
	qps := [2]int{tb.Hosts[0].Dev.QPs(), tb.Hosts[1].Dev.QPs()}
	setupOps := r.ops

	traceCap := 0
	if o.traced {
		traceCap = rcTraceCap
	}
	r.vc = newVerbClock(traceCap, tb.Trace)
	ep.verbs = r.vc
	ep.beginTimed(tb.Eng.Events(), layerCounters(tb, rcVNI))
	t0 := tb.Eng.Now()
	r.end = t0.Add(in.duration)
	tb.Trace.SetEnabled(o.traced)
	for _, ev := range in.events {
		ev := ev
		tb.Eng.At(t0.Add(ev.at), func() {
			r.ops++
			r.revokes[ev.pair] = append(r.revokes[ev.pair], tb.Eng.Now())
			if !tenant.Policy.RemoveRule(ids[ev.pair]) {
				r.fail("rule-churn: rule for pair %d was not in place", ev.pair)
			}
		})
		tb.Eng.At(t0.Add(ev.at+rcReAdd), func() {
			r.overtake(ev.pair, t0.Add(ev.at))
			ids[ev.pair] = tenant.Policy.AddRule(rcNarrow(ev.pair))
		})
	}
	for i, a := range in.attempts {
		i, a := i, a
		tb.Eng.At(t0.Add(a.at), func() {
			tb.Eng.Spawn(fmt.Sprintf("attempt-%d", i), func(p *simtime.Proc) { r.once(p, a) })
		})
	}
	for i := range live {
		i := i
		tb.Eng.Spawn(fmt.Sprintf("live-%d", i), func(p *simtime.Proc) { r.stream(p, i, i/rcVMs, i%rcVMs, live[i], recs[i]) })
	}
	ep.run(tb.Eng)
	ep.endTimed(tb.Eng.Events(), layerCounters(tb, rcVNI))
	ep.Span = tb.Eng.Now().Sub(t0)
	ep.rec = tb.Trace

	// No live connection outside a revoked rule's footprint was reset (see
	// failureSeen), and none inside one survived: every revocation of a
	// connection's rule while it was up must have ended it, unless the rule
	// returned first (see overtake).
	for i, rec := range r.conns {
		if !rec.live {
			continue
		}
		for _, t := range r.revokes[rec.pair] {
			if t > rec.rtr1 && t < rec.closed && rec.failed == 0 && !slices.Contains(rec.overtaken, t) {
				r.fail("rule-churn: connection %d survived the revocation of its rule at %v", i, t)
			}
		}
	}
	ep.Ops = r.ops - setupOps
	ep.Failed = len(r.fails)
	ep.Violations = r.fails
	ep.Lat = r.connect
	ep.Enforce = r.enforce
	ep.Layers["rct.overtaken"] = float64(r.overtakenN)
	for h := 0; h < 2; h++ {
		ep.check(tb.Hosts[h].Dev.QPs() == qps[h]-len(live), "rule-churn: host %d has %d QPs after the run, want %d",
			h, tb.Hosts[h].Dev.QPs(), qps[h]-len(live))
		ep.check(len(tb.Backends[h].CT.Conns()) == 0, "rule-churn: host %d RCT holds %d connections after the run",
			h, len(tb.Backends[h].CT.Conns()))
	}
	return ep, nil
}
