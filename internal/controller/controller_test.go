package controller

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

func mapping(ip packet.IP) Mapping {
	return Mapping{PGID: packet.GIDFromIP(ip), PIP: ip, PMAC: packet.MAC{2, 0, 0, 0, 0, ip[3]}}
}

func TestRegisterAndQuery(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	k := Key{VNI: 100, VGID: packet.GIDFromIP(packet.NewIP(192, 168, 1, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	var m Mapping
	var ok bool
	var elapsed simtime.Duration
	eng.Spawn("q", func(p *simtime.Proc) {
		start := p.Now()
		m, ok, _ = c.Lookup(p, k)
		elapsed = p.Now().Sub(start)
	})
	eng.Run()
	if !ok || m.PIP != packet.NewIP(172, 16, 0, 1) {
		t.Fatalf("query = %+v, %v", m, ok)
	}
	if elapsed != simtime.Us(100) {
		t.Fatalf("query RTT = %v, want 100µs", elapsed)
	}
}

func TestQueryMiss(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	var ok bool
	eng.Spawn("q", func(p *simtime.Proc) {
		_, ok, _ = c.Lookup(p, Key{VNI: 1})
	})
	eng.Run()
	if ok {
		t.Fatal("miss reported as hit")
	}
	if c.Stats.Queries != 1 || c.Stats.Hits != 0 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

func TestOverlappingVIPsDistinctByVNI(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	vgid := packet.GIDFromIP(packet.NewIP(10, 0, 0, 1))
	c.Register(Key{VNI: 100, VGID: vgid}, mapping(packet.NewIP(172, 16, 0, 1)))
	c.Register(Key{VNI: 200, VGID: vgid}, mapping(packet.NewIP(172, 16, 0, 2)))
	var m1, m2 Mapping
	eng.Spawn("q", func(p *simtime.Proc) {
		m1, _, _ = c.Lookup(p, Key{VNI: 100, VGID: vgid})
		m2, _, _ = c.Lookup(p, Key{VNI: 200, VGID: vgid})
	})
	eng.Run()
	if m1.PIP == m2.PIP {
		t.Fatal("tenants with identical vGIDs must resolve independently")
	}
	if n := len(rowsOf(c.table, c.slots)); n != 2 {
		t.Fatalf("size = %d", n)
	}
}

func TestUnregisterRemoves(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	k := Key{VNI: 100, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	c.Unregister(k)
	var ok bool
	eng.Spawn("q", func(p *simtime.Proc) { _, ok, _ = c.Lookup(p, k) })
	eng.Run()
	if ok {
		t.Fatal("unregistered mapping still resolves")
	}
}

func TestSubscribersSeeUpdatesAndRemovals(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	var adds, removes int
	c.Subscribe(func(n Notify) {
		if n.Removed {
			removes++
		} else {
			adds++
		}
	})
	k := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(1, 1, 1, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 2))) // update
	c.Unregister(k)
	eng.Run() // delivery is asynchronous: drain the notification queues
	if adds != 2 || removes != 1 {
		t.Fatalf("adds=%d removes=%d", adds, removes)
	}
	if c.Stats.NotifySent != 3 || c.Stats.NotifyDelivered != 3 || c.Stats.NotifyDropped != 0 {
		t.Fatalf("notify stats = %+v", c.Stats)
	}
}

// TestNotifyDelayDefersDelivery: with a configured push latency, a
// subscriber sees nothing until NotifyDelay has elapsed on the sim clock,
// and deliveries stay in FIFO order.
func TestNotifyDelayDefersDelivery(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.NotifyDelay = simtime.Us(300)
	c := New(eng, p)
	type seen struct {
		at      simtime.Time
		removed bool
	}
	var log []seen
	c.Subscribe(func(n Notify) {
		log = append(log, seen{at: eng.Now(), removed: n.Removed})
	})
	k := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(1, 1, 1, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	c.Unregister(k)
	eng.Run()
	if len(log) != 2 {
		t.Fatalf("deliveries = %d, want 2", len(log))
	}
	if log[0].removed || !log[1].removed {
		t.Fatal("deliveries out of order")
	}
	// The queue is drained serially: one delay per queued notification.
	if log[0].at != simtime.Time(simtime.Us(300)) || log[1].at != simtime.Time(simtime.Us(600)) {
		t.Fatalf("delivery times = %v, %v", log[0].at, log[1].at)
	}
}

// TestNotifyDropLosesNotifications: with drop probability 1 every push is
// lost, and the loss is visible in the stats; the mapping table itself is
// unaffected.
func TestNotifyDropLosesNotifications(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.NotifyDropProb = 1.0
	c := New(eng, p)
	delivered := 0
	c.Subscribe(func(Notify) { delivered++ })
	k := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(1, 1, 1, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	c.Unregister(k)
	eng.Run()
	if delivered != 0 {
		t.Fatalf("delivered = %d, want 0", delivered)
	}
	if c.Stats.NotifyDropped != 2 || c.Stats.NotifySent != 2 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// TestNotifyDropDeterministic: the loss pattern is a pure function of the
// seed — two controllers fed the same registrations drop the same subset.
func TestNotifyDropDeterministic(t *testing.T) {
	run := func() []bool {
		eng := simtime.NewEngine()
		p := DefaultParams()
		p.NotifyDropProb = 0.5
		p.Seed = 42
		c := New(eng, p)
		got := make(map[byte]bool)
		c.Subscribe(func(n Notify) { got[n.Mapping.PIP[3]] = true })
		for i := byte(1); i <= 16; i++ {
			c.Register(Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, i))}, mapping(packet.NewIP(172, 16, 0, i)))
		}
		eng.Run()
		pattern := make([]bool, 16)
		for i := byte(1); i <= 16; i++ {
			pattern[i-1] = got[i]
		}
		if c.Stats.NotifyDropped == 0 || c.Stats.NotifyDropped == 16 {
			t.Fatalf("want a mixed drop pattern, got %d/16 dropped", c.Stats.NotifyDropped)
		}
		return pattern
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("drop pattern differs at %d: seed-for-seed reproducibility broken", i)
		}
	}
}

// TestLookupTimesOutInsideUnavailabilityWindow: queries sent during a
// fault window cost the full QueryTimeout and return ErrUnavailable;
// queries after the window succeed normally.
func TestLookupTimesOutInsideUnavailabilityWindow(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	k := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	c.SetFaultPlan(FaultPlan{Unavailable: []Window{{Start: 0, End: simtime.Time(simtime.Ms(2))}}})
	var errIn, errOut error
	var okOut bool
	var waited simtime.Duration
	eng.Spawn("q", func(p *simtime.Proc) {
		s := p.Now()
		_, _, errIn = c.Lookup(p, k)
		waited = p.Now().Sub(s)
		p.Sleep(simtime.Ms(3)) // past the window
		_, okOut, errOut = c.Lookup(p, k)
	})
	eng.Run()
	if errIn != ErrUnavailable {
		t.Fatalf("in-window err = %v, want ErrUnavailable", errIn)
	}
	if waited != simtime.Ms(1) {
		t.Fatalf("in-window wait = %v, want the 1ms QueryTimeout", waited)
	}
	if errOut != nil || !okOut {
		t.Fatalf("post-window lookup = %v, %v", okOut, errOut)
	}
	if c.Stats.Timeouts != 1 {
		t.Fatalf("timeouts = %d", c.Stats.Timeouts)
	}
}

// TestLookupDropReplies: the next N replies vanish; the N+1st attempt
// succeeds.
func TestLookupDropReplies(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	k := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	c.SetFaultPlan(FaultPlan{DropReplies: 2})
	var errs []error
	eng.Spawn("q", func(p *simtime.Proc) {
		for i := 0; i < 3; i++ {
			_, _, err := c.Lookup(p, k)
			errs = append(errs, err)
		}
	})
	eng.Run()
	if errs[0] != ErrUnavailable || errs[1] != ErrUnavailable || errs[2] != nil {
		t.Fatalf("errs = %v", errs)
	}
	if c.Stats.DroppedReplies != 2 {
		t.Fatalf("dropped replies = %d", c.Stats.DroppedReplies)
	}
}

func TestDumpFiltersByVNI(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	for i := byte(1); i <= 5; i++ {
		c.Register(Key{VNI: 100, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, i))}, mapping(packet.NewIP(172, 16, 0, i)))
	}
	c.Register(Key{VNI: 200, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, 1))}, mapping(packet.NewIP(172, 16, 0, 9)))
	d := c.Dump(100)
	if len(d) != 5 {
		t.Fatalf("dump(100) = %d entries, want 5", len(d))
	}
}

// TestLookupTimesOutOnMidRTTWindow is the fault-window regression test:
// the old implementation sampled the plan only at the send and reply
// instants, so a window strictly inside (send, send+queryRTT) was invisible
// and the lookup "succeeded" through a dead controller. The RPC must be
// lost if any part of its flight overlaps a window, while the boundary
// semantics stay as before: a window that ends exactly at the send instant
// does not hurt, one that opens exactly at the reply instant eats the reply.
func TestLookupTimesOutOnMidRTTWindow(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams()) // queryRTT 100µs, QueryTimeout 1ms
	k := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, 1))}
	c.Register(k, mapping(packet.NewIP(172, 16, 0, 1)))
	c.SetFaultPlan(FaultPlan{Unavailable: []Window{
		{Start: simtime.Time(simtime.Us(30)), End: simtime.Time(simtime.Us(60))},     // strictly mid-RTT of lookup 0
		{Start: simtime.Time(simtime.Us(1000)), End: simtime.Time(simtime.Us(1100))}, // ends exactly at lookup 1's send
		{Start: simtime.Time(simtime.Us(1400)), End: simtime.Time(simtime.Us(1500))}, // opens exactly at lookup 2's reply
	}})
	var errs []error
	var waits []simtime.Duration
	eng.Spawn("q", func(p *simtime.Proc) {
		lookup := func() {
			s := p.Now()
			_, _, err := c.Lookup(p, k)
			errs = append(errs, err)
			waits = append(waits, p.Now().Sub(s))
		}
		lookup() // send 0, flight [0, 100]: window 0 sits strictly inside → lost, 1ms timeout
		p.Sleep(simtime.Us(100))
		lookup() // send 1100, flight [1100, 1200]: window 1 ended at the send instant → ok
		p.Sleep(simtime.Us(100))
		lookup() // send 1300, flight [1300, 1400]: window 2 opens at the reply instant → lost
		p.Sleep(simtime.Us(200))
		lookup() // send 2500: clear air → ok
	})
	eng.Run()
	want := []bool{false, true, false, true} // ok?
	for i, w := range want {
		if (errs[i] == nil) != w {
			t.Fatalf("lookup %d err = %v, want ok=%v", i, errs[i], w)
		}
	}
	if waits[0] != simtime.Ms(1) || waits[1] != simtime.Us(100) ||
		waits[2] != simtime.Ms(1) || waits[3] != simtime.Us(100) {
		t.Fatalf("waits = %v", waits)
	}
	if c.Stats.Timeouts != 2 {
		t.Fatalf("timeouts = %d, want 2", c.Stats.Timeouts)
	}
}

// TestBatchLookupResolvesManyKeysInOneRTT: a batch of N keys pays one
// queryRTT plus per-record serialization, not N round trips, and returns
// the results in request order.
func TestBatchLookupResolvesManyKeysInOneRTT(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	keys := make([]Key, 4)
	for i := range keys {
		keys[i] = Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, byte(i+1)))}
		c.Register(keys[i], mapping(packet.NewIP(172, 16, 0, byte(i+1))))
	}
	miss := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, 99))}
	var res []BatchResult
	var elapsed simtime.Duration
	eng.Spawn("b", func(p *simtime.Proc) {
		s := p.Now()
		var err error
		res, _, err = c.BatchLookup(p, append(keys, miss), nil)
		if err != nil {
			t.Error(err)
		}
		elapsed = p.Now().Sub(s)
	})
	eng.Run()
	// 5 keys: queryRTT + 4 extra records × dumpEntryCost (1µs).
	if want := simtime.Us(104); elapsed != want {
		t.Fatalf("batch of 5 took %v, want %v", elapsed, want)
	}
	for i := range keys {
		if !res[i].OK || res[i].M.PIP != packet.NewIP(172, 16, 0, byte(i+1)) {
			t.Fatalf("result %d = %+v", i, res[i])
		}
	}
	if res[4].OK {
		t.Fatal("unregistered key resolved")
	}
	if c.Stats.BatchQueries != 1 || c.Stats.BatchedKeys != 5 || c.Stats.Queries != 1 || c.Stats.Hits != 4 {
		t.Fatalf("stats = %+v", c.Stats)
	}
}

// TestBatchLookupPiggybacksRenewals: renewals carried in the batch request
// are applied before the keys are resolved — a lease that would have
// expired mid-flight is refreshed by its own batch.
func TestBatchLookupPiggybacksRenewals(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.LeaseTTL = simtime.Ms(1)
	c := New(eng, p)
	k := Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, 1))}
	m := mapping(packet.NewIP(172, 16, 0, 1))
	c.Register(k, m)
	var res []BatchResult
	eng.Spawn("b", func(pr *simtime.Proc) {
		pr.Sleep(simtime.Ms(5)) // the lease is long dead
		var err error
		res, _, err = c.BatchLookup(pr, []Key{k}, []RenewReq{{K: k, M: m}})
		if err != nil {
			t.Error(err)
		}
	})
	eng.Run()
	if !res[0].OK || res[0].M != m {
		t.Fatalf("renewed key did not resolve: %+v", res[0])
	}
	if c.Stats.BatchRenewals != 1 || c.Stats.Renewals != 1 {
		t.Fatalf("renewal stats = %+v", c.Stats)
	}
}

// TestBatchLookupTimesOutAsOneRPC: under a fault the whole batch costs one
// QueryTimeout, not one per key.
func TestBatchLookupTimesOutAsOneRPC(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	c.SetFaultPlan(FaultPlan{Unavailable: []Window{{Start: 0, End: simtime.Time(simtime.Ms(2))}}})
	keys := make([]Key, 8)
	for i := range keys {
		keys[i] = Key{VNI: 1, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, byte(i+1)))}
	}
	var err error
	var elapsed simtime.Duration
	eng.Spawn("b", func(p *simtime.Proc) {
		s := p.Now()
		_, _, err = c.BatchLookup(p, keys, nil)
		elapsed = p.Now().Sub(s)
	})
	eng.Run()
	if err != ErrUnavailable {
		t.Fatalf("err = %v, want ErrUnavailable", err)
	}
	if elapsed != simtime.Ms(1) {
		t.Fatalf("batch timeout took %v, want one 1ms QueryTimeout", elapsed)
	}
}
