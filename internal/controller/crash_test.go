package controller

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

func key(b byte) Key {
	return Key{VNI: 100, VGID: packet.GIDFromIP(packet.NewIP(10, 0, 0, b))}
}

func TestCrashWipesTableAndQueues(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.NotifyDelay = simtime.Us(300)
	c := New(eng, p)
	delivered := 0
	c.Subscribe(func(Notify) { delivered++ })
	c.Register(key(1), mapping(packet.NewIP(172, 16, 0, 1)))
	c.Register(key(2), mapping(packet.NewIP(172, 16, 0, 2)))
	// Both notifications still sit in the delivery queue; the crash
	// destroys them along with the table.
	c.Crash()
	var err error
	var waited simtime.Duration
	eng.Spawn("q", func(p *simtime.Proc) {
		s := p.Now()
		_, _, err = c.Lookup(p, key(1))
		waited = p.Now().Sub(s)
	})
	eng.Run()
	if len(c.Dump(100)) != 0 || c.Size() != 0 {
		t.Fatal("crash left table entries behind")
	}
	if c.Stats.NotifyWiped == 0 {
		t.Fatalf("wiped = %d, want the queued notifications destroyed", c.Stats.NotifyWiped)
	}
	if delivered != 0 {
		t.Fatalf("delivered = %d after crash", delivered)
	}
	if err != ErrUnavailable || waited != simtime.Ms(1) {
		t.Fatalf("lookup while down: err=%v waited=%v, want full-timeout ErrUnavailable", err, waited)
	}
	if !c.Down() || c.Stats.Crashes != 1 {
		t.Fatalf("down=%v crashes=%d", c.Down(), c.Stats.Crashes)
	}
}

func TestRestartBumpsEpochAndServesAgain(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	if c.Epoch() != 1 {
		t.Fatalf("fresh epoch = %d, want 1", c.Epoch())
	}
	c.Crash()
	c.Restart()
	if c.Epoch() != 2 || c.Down() || c.Stats.Restarts != 1 {
		t.Fatalf("after restart: epoch=%d down=%v restarts=%d", c.Epoch(), c.Down(), c.Stats.Restarts)
	}
	c.Register(key(1), mapping(packet.NewIP(172, 16, 0, 1)))
	var ok bool
	eng.Spawn("q", func(p *simtime.Proc) { _, ok, _ = c.Lookup(p, key(1)) })
	eng.Run()
	if !ok {
		t.Fatal("restarted controller does not serve")
	}
	// Restart without a preceding crash is a no-op.
	c.Restart()
	if c.Epoch() != 2 {
		t.Fatalf("spurious restart bumped the epoch to %d", c.Epoch())
	}
}

func TestRegisterWhileDownIsLost(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	c.Crash()
	c.Register(key(1), mapping(packet.NewIP(172, 16, 0, 1)))
	c.Unregister(key(1))
	c.Restart()
	if len(c.Dump(100)) != 0 {
		t.Fatal("update made while down survived the crash")
	}
	if c.Stats.LostUpdates != 2 {
		t.Fatalf("lost updates = %d, want 2", c.Stats.LostUpdates)
	}
}

// TestCrashMidFlightEatsReply: a query already in flight when the
// controller dies never gets its answer — the caller waits out the full
// timeout, not just the RTT.
func TestCrashMidFlightEatsReply(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	c.Register(key(1), mapping(packet.NewIP(172, 16, 0, 1)))
	eng.At(simtime.Time(simtime.Us(50)), c.Crash) // mid-RTT
	var err error
	var waited simtime.Duration
	eng.Spawn("q", func(p *simtime.Proc) {
		s := p.Now()
		_, _, err = c.Lookup(p, key(1))
		waited = p.Now().Sub(s)
	})
	eng.Run()
	if err != ErrUnavailable {
		t.Fatalf("err = %v, want ErrUnavailable (reply lost to the crash)", err)
	}
	if waited != simtime.Ms(1) {
		t.Fatalf("waited %v, want the full 1ms QueryTimeout", waited)
	}
}

// TestLookupChecksReplyInstant: an unavailability window that opens after
// the query is sent but before the reply would arrive still eats the
// reply — reachability is required at both instants.
func TestLookupChecksReplyInstant(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	c.Register(key(1), mapping(packet.NewIP(172, 16, 0, 1)))
	c.SetFaultPlan(FaultPlan{Unavailable: []Window{
		{Start: simtime.Time(simtime.Us(50)), End: simtime.Time(simtime.Us(200))},
	}})
	var err error
	var waited simtime.Duration
	var okAfter bool
	eng.Spawn("q", func(p *simtime.Proc) {
		// Send at t=0 (outside the window); the reply instant t=100µs is
		// inside it.
		s := p.Now()
		_, _, err = c.Lookup(p, key(1))
		waited = p.Now().Sub(s)
		// Now both instants are clear of the window.
		_, okAfter, _ = c.Lookup(p, key(1))
	})
	eng.Run()
	if err != ErrUnavailable || waited != simtime.Ms(1) {
		t.Fatalf("mid-RTT window: err=%v waited=%v, want full-timeout ErrUnavailable", err, waited)
	}
	if !okAfter {
		t.Fatal("post-window lookup failed")
	}
	if c.Stats.Timeouts != 1 {
		t.Fatalf("timeouts = %d", c.Stats.Timeouts)
	}
}

func TestLeaseExpiresLazily(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.LeaseTTL = simtime.Ms(1)
	c := New(eng, p)
	c.Register(key(1), mapping(packet.NewIP(172, 16, 0, 1)))
	var okEarly, okLate bool
	eng.Spawn("q", func(p *simtime.Proc) {
		_, okEarly, _ = c.Lookup(p, key(1)) // well inside the TTL
		p.Sleep(simtime.Ms(2))
		_, okLate, _ = c.Lookup(p, key(1)) // lease lapsed
	})
	eng.Run()
	if !okEarly {
		t.Fatal("fresh lease did not resolve")
	}
	if okLate {
		t.Fatal("expired lease still resolves")
	}
	if c.Stats.LeaseExpired != 1 {
		t.Fatalf("lease expirations = %d", c.Stats.LeaseExpired)
	}
	if len(c.Dump(100)) != 0 {
		t.Fatal("oracle dump shows an expired lease as live")
	}
}

func TestRenewExtendsAndReinstates(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.LeaseTTL = simtime.Ms(1)
	c := New(eng, p)
	m := mapping(packet.NewIP(172, 16, 0, 1))
	c.Register(key(1), m)
	notifies := 0
	c.Subscribe(func(Notify) { notifies++ })
	var okExtended bool
	var epBefore, epAfter uint64
	var renewErr error
	eng.Spawn("q", func(p *simtime.Proc) {
		p.Sleep(simtime.Us(500))
		epBefore, renewErr = c.Renew(p, key(1), m) // extends the lease
		if renewErr != nil {
			return
		}
		p.Sleep(simtime.Us(800)) // past the original deadline, inside the renewed one
		_, okExtended, _ = c.Lookup(p, key(1))
		// Crash + restart wipe the entry; the next renewal reinstates it
		// under the new epoch and notifies subscribers.
		c.Crash()
		c.Restart()
		epAfter, renewErr = c.Renew(p, key(1), m)
	})
	eng.Run()
	if renewErr != nil {
		t.Fatal(renewErr)
	}
	if !okExtended {
		t.Fatal("renewed lease expired at the original deadline")
	}
	if epBefore != 1 || epAfter != 2 {
		t.Fatalf("epochs = %d, %d, want 1 then 2", epBefore, epAfter)
	}
	if len(c.Dump(100)) != 1 {
		t.Fatal("renewal after restart did not reinstate the mapping")
	}
	// The extension renewal is silent; the reinstatement notifies.
	if notifies != 1 {
		t.Fatalf("notifications = %d, want 1 (reinstatement only)", notifies)
	}
	if c.Stats.Renewals != 2 {
		t.Fatalf("renewals = %d", c.Stats.Renewals)
	}
}

// TestFetchDumpChargedAndFaultAware: the seeding RPC pays RTT plus a
// per-entry serialization cost and fails under the fault plan — unlike the
// free, omniscient Dump oracle.
func TestFetchDumpChargedAndFaultAware(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	for i := byte(1); i <= 5; i++ {
		c.Register(key(i), mapping(packet.NewIP(172, 16, 0, i)))
	}
	var got map[Key]Mapping
	var ep uint64
	var cost simtime.Duration
	var errIn error
	eng.Spawn("q", func(p *simtime.Proc) {
		s := p.Now()
		var err error
		got, ep, err = c.FetchDump(p, 100)
		if err != nil {
			t.Error(err)
		}
		cost = p.Now().Sub(s)
		c.SetFaultPlan(FaultPlan{Unavailable: []Window{{Start: p.Now(), End: p.Now().Add(simtime.Ms(10))}}})
		_, _, errIn = c.FetchDump(p, 100)
	})
	eng.Run()
	if len(got) != 5 || ep != 1 {
		t.Fatalf("dump = %d entries, epoch %d", len(got), ep)
	}
	want := simtime.Us(100) + 5*simtime.Us(1)
	if cost != want {
		t.Fatalf("dump cost = %v, want %v (RTT + 5 entries)", cost, want)
	}
	if errIn != ErrUnavailable {
		t.Fatalf("in-window FetchDump err = %v, want ErrUnavailable", errIn)
	}
	if len(c.Dump(100)) != 5 {
		t.Fatal("free oracle Dump must not be affected by the fault plan")
	}
}

// TestSubscriberQueueHighWaterMarks: a burst of registrations against a
// slow delivery channel builds a visible backlog.
func TestSubscriberQueueHighWaterMarks(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.NotifyDelay = simtime.Us(100)
	c := New(eng, p)
	sub := c.Subscribe(func(Notify) {})
	for i := byte(1); i <= 4; i++ {
		c.Register(key(i), mapping(packet.NewIP(172, 16, 0, i)))
	}
	if sub.Pending() != 4 {
		t.Fatalf("pending = %d before the drain", sub.Pending())
	}
	eng.Run()
	if sub.Pending() != 0 {
		t.Fatalf("pending = %d after the drain", sub.Pending())
	}
	if sub.HighWater() != 4 || c.Stats.NotifyQueueHWM != 4 {
		t.Fatalf("hwm = %d / %d, want 4", sub.HighWater(), c.Stats.NotifyQueueHWM)
	}
	if hwms := c.QueueHWMs(); len(hwms) != 1 || hwms[0] != 4 {
		t.Fatalf("QueueHWMs = %v", hwms)
	}
	if sub.Seq() != 4 {
		t.Fatalf("seq = %d", sub.Seq())
	}
}

// TestNotifyCarriesEpochAndSeq: notifications are stamped with the
// producing epoch and a gap-detectable per-subscriber sequence that stays
// monotonic across crash/restart.
func TestNotifyCarriesEpochAndSeq(t *testing.T) {
	eng := simtime.NewEngine()
	c := New(eng, DefaultParams())
	var got []Notify
	c.Subscribe(func(n Notify) { got = append(got, n) })
	c.Register(key(1), mapping(packet.NewIP(172, 16, 0, 1)))
	c.Register(key(2), mapping(packet.NewIP(172, 16, 0, 2)))
	eng.Run()
	c.Crash()
	c.Restart()
	c.Register(key(3), mapping(packet.NewIP(172, 16, 0, 3)))
	eng.Run()
	if len(got) != 3 {
		t.Fatalf("deliveries = %d", len(got))
	}
	if got[0].Epoch != 1 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("pre-crash notifies = %+v", got[:2])
	}
	if got[2].Epoch != 2 || got[2].Seq != 3 {
		t.Fatalf("post-restart notify = %+v", got[2])
	}
}
