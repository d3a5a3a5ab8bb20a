package masq

// Connection-setup fast-path tests: the retry-backoff clamp regression,
// batched/coalesced controller lookups, warm QP pools (including their
// flush-on-crash and flush-on-epoch-bump lifecycle), and shared-connection
// bookkeeping. The cluster package covers the on-wire flow-tag side.

import (
	"fmt"
	"testing"

	"masq/internal/controller"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// darkController makes every controller RPC time out for the whole run.
func darkController(b *bed) {
	b.ctrl.SetFaultPlan(controller.FaultPlan{
		Unavailable: []controller.Window{{Start: 0, End: simtime.Time(10 * simtime.Second)}},
	})
}

// lookupElapsed runs one lookupWithRetry against a dark controller and
// returns the total elapsed virtual time (and requires it to fail).
func lookupElapsed(t *testing.T, b *bed) simtime.Duration {
	t.Helper()
	k := controller.Key{VNI: 100, VGID: packet.GIDFromIP(packet.NewIP(192, 168, 1, 9))}
	var elapsed simtime.Duration
	b.eng.Spawn("retry", func(p *simtime.Proc) {
		s := p.Now()
		_, err := b.be.lookupWithRetry(p, k)
		elapsed = p.Now().Sub(s)
		if err == nil {
			t.Error("lookup against a dark controller succeeded")
		}
	})
	b.eng.Run()
	return elapsed
}

// TestRetryBackoffClampedSequence pins the retry schedule: backoffs double
// from 200µs but stop at the 10ms cap. With 9 attempts the sleeps are 200,
// 400, 800, 1600, 3200, 6400, 10000 and 10000 µs between nine 1ms
// timeouts: 41.6ms total.
func TestRetryBackoffClampedSequence(t *testing.T) {
	b := newBed(t, ModeVF)
	darkController(b)
	b.be.P.QueryRetries = 9
	if got, want := lookupElapsed(t, b), simtime.Us(41600); got != want {
		t.Fatalf("elapsed = %v, want %v (9 timeouts + 200/400/800/1600/3200/6400/10000/10000µs backoffs)", got, want)
	}
	if b.be.Stats.QueryRetries != 8 || b.be.Stats.QueryFailures != 1 {
		t.Fatalf("retries/failures = %d/%d, want 8/1", b.be.Stats.QueryRetries, b.be.Stats.QueryFailures)
	}
}

// TestRetryBackoffNoOverflowAtHighRetries would overflow before the clamp:
// 63 unclamped doublings of any backoff wrap simtime.Duration negative and
// crash (or return instantly). With the cap the schedule is exact: 200,
// 400, 800, 1600, 3200, 6400 µs, then fifty-seven sleeps at the 10ms cap.
func TestRetryBackoffNoOverflowAtHighRetries(t *testing.T) {
	b := newBed(t, ModeVF)
	darkController(b)
	b.be.P.QueryRetries = 64
	want := 64*simtime.Ms(1) + simtime.Us(200+400+800+1600+3200+6400) + 57*simtime.Ms(10)
	if got := lookupElapsed(t, b); got != want {
		t.Fatalf("elapsed = %v, want %v", got, want)
	}
}

// batchBed is a bed with batched lookups on and three peer mappings
// registered directly with the controller.
func batchBed(t *testing.T) (*bed, []controller.Key) {
	t.Helper()
	b := newBed(t, ModeVF)
	b.be.P.BatchLookups = true
	keys := make([]controller.Key, 3)
	for i := range keys {
		vip := packet.NewIP(192, 168, 1, byte(20+i))
		keys[i] = controller.Key{VNI: 100, VGID: packet.GIDFromIP(vip)}
		b.ctrl.Register(keys[i], controller.Mapping{PIP: packet.NewIP(172, 16, 0, byte(20+i))})
	}
	return b, keys
}

// TestBatchResolveCoalescesConcurrentMisses: three simultaneous misses for
// three different keys resolve through ONE controller RPC.
func TestBatchResolveCoalescesConcurrentMisses(t *testing.T) {
	b, keys := batchBed(t)
	for i, k := range keys {
		i, k := i, k
		b.eng.Spawn("miss", func(p *simtime.Proc) {
			m, _, err := b.be.resolveGID(p, 100, k.VGID)
			if err != nil {
				t.Errorf("resolve %d: %v", i, err)
			}
			if want := packet.NewIP(172, 16, 0, byte(20+i)); m.PIP != want {
				t.Errorf("resolve %d = %v, want %v", i, m.PIP, want)
			}
		})
	}
	b.eng.Run()
	if b.ctrl.Stats.Queries != 1 {
		t.Fatalf("controller RPCs = %d, want 1 (batch)", b.ctrl.Stats.Queries)
	}
	if b.be.Stats.BatchRPCs != 1 || b.be.Stats.BatchedLookups != 3 || b.be.Stats.BatchMax != 3 {
		t.Fatalf("batch stats = %d RPCs / %d lookups / max %d, want 1/3/3",
			b.be.Stats.BatchRPCs, b.be.Stats.BatchedLookups, b.be.Stats.BatchMax)
	}
	if got := len(b.be.CacheSnapshot()); got != 3 {
		t.Fatalf("cached entries = %d, want 3", got)
	}
}

// TestBatchResolveSingleFlightSameKey: concurrent misses for the SAME key
// join the in-flight resolution instead of queueing the key twice.
func TestBatchResolveSingleFlightSameKey(t *testing.T) {
	b, keys := batchBed(t)
	for i := 0; i < 2; i++ {
		b.eng.Spawn("miss", func(p *simtime.Proc) {
			if _, _, err := b.be.resolveGID(p, 100, keys[0].VGID); err != nil {
				t.Error(err)
			}
		})
	}
	b.eng.Run()
	if b.ctrl.Stats.Queries != 1 || b.be.Stats.BatchedLookups != 1 {
		t.Fatalf("RPCs/batched = %d/%d, want 1/1",
			b.ctrl.Stats.Queries, b.be.Stats.BatchedLookups)
	}
}

// TestBatchResolveDeterministic: the coalesced schedule is a pure function
// of the scenario — two identical runs finish at identical virtual times
// with identical stats.
func TestBatchResolveDeterministic(t *testing.T) {
	run := func() string {
		b, keys := batchBed(t)
		for _, k := range keys {
			k := k
			b.eng.Spawn("miss", func(p *simtime.Proc) {
				if _, _, err := b.be.resolveGID(p, 100, k.VGID); err != nil {
					t.Error(err)
				}
			})
		}
		b.eng.Run()
		return fmt.Sprintf("end=%v stats=%+v ctrl=%+v", b.eng.Now(), b.be.Stats, b.ctrl.Stats)
	}
	a, c := run(), run()
	if a != c {
		t.Fatalf("runs diverged:\n%s\n%s", a, c)
	}
}

// poolBed builds a VF bed with a warm pool of the given size and one
// frontend, run to quiescence so the pool is full.
func poolBed(t *testing.T, size int) (*bed, *Frontend) {
	t.Helper()
	b := newBed(t, ModeVF)
	b.allowAll(t, 100)
	b.be.P.QPPoolSize = size
	vm, err := b.host.NewVM("vm1", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	fe, err := b.be.NewFrontend(vm, 100)
	if err != nil {
		t.Fatal(err)
	}
	b.eng.Run()
	return b, fe
}

// guestSetup runs the guest's CQ/QP/INIT sequence and returns its elapsed
// virtual time.
func guestSetup(t *testing.T, b *bed, fe *Frontend) (simtime.Duration, verbs.QP) {
	t.Helper()
	var elapsed simtime.Duration
	var qp verbs.QP
	b.eng.Spawn("guest-setup", func(p *simtime.Proc) {
		dev, err := fe.Open(p)
		if err != nil {
			t.Error(err)
			return
		}
		pd, _ := dev.AllocPD(p)
		s := p.Now()
		cq, _ := dev.CreateCQ(p, 8)
		var errQP error
		qp, errQP = dev.CreateQP(p, pd, cq, cq, rnic.RC, rnic.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
		if errQP != nil {
			t.Error(errQP)
			return
		}
		if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateInit}); err != nil {
			t.Error(err)
			return
		}
		elapsed = p.Now().Sub(s)
	})
	b.eng.Run()
	return elapsed, qp
}

// TestWarmPoolServesSetupFromHostMemory: with a warm pool, create_cq,
// create_qp and INIT are all satisfied without firmware — much faster than
// the cold path, with the hits visible in the stats and the QP genuinely
// usable (INIT, pool-refilled).
func TestWarmPoolServesSetupFromHostMemory(t *testing.T) {
	cold, feCold := poolBed(t, 0)
	coldDur, _ := guestSetup(t, cold, feCold)

	warm, feWarm := poolBed(t, 2)
	if warm.be.Stats.PoolRefills != 4 {
		t.Fatalf("pre-warm refills = %d, want 4 (2 CQs + 2 QPs)", warm.be.Stats.PoolRefills)
	}
	warmDur, qp := guestSetup(t, warm, feWarm)

	if warm.be.Stats.PoolHits != 2 || warm.be.Stats.PoolMisses != 0 {
		t.Fatalf("hits/misses = %d/%d, want 2/0", warm.be.Stats.PoolHits, warm.be.Stats.PoolMisses)
	}
	if qp.State() != rnic.StateInit {
		t.Fatalf("pooled QP state = %v, want INIT", qp.State())
	}
	// The cold path pays create_cq + create_qp + INIT in VF firmware time
	// (~1.3ms); the warm path only ring round trips and reuse costs.
	if warmDur*3 >= coldDur {
		t.Fatalf("warm setup %v is not <3x faster than cold %v", warmDur, coldDur)
	}
}

// TestPoolFlushOnVMCrash: a VM crash destroys the tenant's staged
// resources (nothing pre-created for a dead tenant may linger), and the
// refiller rebuilds the pool afterwards.
func TestPoolFlushOnVMCrash(t *testing.T) {
	b, fe := poolBed(t, 2)
	b.eng.Spawn("crash", func(p *simtime.Proc) { b.be.Crash(p, fe) })
	b.eng.Run()
	if b.be.Stats.PoolFlushes != 4 {
		t.Fatalf("flushed = %d staged resources, want 4", b.be.Stats.PoolFlushes)
	}
	if b.be.Stats.PoolRefills != 8 {
		t.Fatalf("refills = %d, want 8 (4 pre-warm + 4 rebuild)", b.be.Stats.PoolRefills)
	}
}

// TestPoolFlushOnEpochBump: a controller restart (epoch bump, detected via
// lease renewal) flushes the warm pool — the staged QPs were created under
// the old controller's view of the world.
func TestPoolFlushOnEpochBump(t *testing.T) {
	b, _ := poolBed(t, 2)
	b.be.P.LeaseRenewEvery = simtime.Us(500)
	b.be.StartLeaseRenewal(b.eng.Now().Add(simtime.Ms(10)))
	b.eng.At(b.eng.Now().Add(simtime.Ms(1)), b.ctrl.Crash)
	b.eng.At(b.eng.Now().Add(simtime.Ms(2)), b.ctrl.Restart)
	b.eng.Run()
	if b.be.Stats.EpochBumps != 1 {
		t.Fatalf("epoch bumps = %d, want 1", b.be.Stats.EpochBumps)
	}
	if b.be.Stats.PoolFlushes != 4 {
		t.Fatalf("flushed = %d staged resources, want 4", b.be.Stats.PoolFlushes)
	}
}

// TestSharedModeCarrierAndAttach pins the multiplexing bookkeeping: the
// first flow to a peer host pays the firmware rename (carrier), later
// flows soft-attach, and destroying the carrier retires the shared
// connection so the next flow starts a fresh one.
func TestSharedModeCarrierAndAttach(t *testing.T) {
	b := newBed(t, ModeVFShared)
	b.allowAll(t, 100)
	vm1, err := b.host.NewVM("vm1", 1<<30, 100, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	fe1, err := b.be.NewFrontend(vm1, 100)
	if err != nil {
		t.Fatal(err)
	}
	vm2, err := b.host.NewVM("vm2", 1<<30, 100, packet.NewIP(192, 168, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.be.NewFrontend(vm2, 100); err != nil {
		t.Fatal(err)
	}
	peerGID := packet.GIDFromIP(packet.NewIP(192, 168, 1, 2))

	var carrierRTR, attachRTR simtime.Duration
	b.eng.Spawn("flows", func(p *simtime.Proc) {
		dev, err := fe1.Open(p)
		if err != nil {
			t.Error(err)
			return
		}
		pd, _ := dev.AllocPD(p)
		cq, _ := dev.CreateCQ(p, 8)
		connect := func(dqpn uint32) (verbs.QP, simtime.Duration) {
			qp, err := dev.CreateQP(p, pd, cq, cq, rnic.RC, rnic.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
			if err != nil {
				t.Fatalf("create qp: %v", err)
			}
			if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateInit}); err != nil {
				t.Fatalf("INIT: %v", err)
			}
			s := p.Now()
			if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateRTR, DGID: peerGID, DQPN: dqpn}); err != nil {
				t.Fatalf("RTR: %v", err)
			}
			rtr := p.Now().Sub(s)
			if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateRTS}); err != nil {
				t.Fatalf("RTS: %v", err)
			}
			return qp, rtr
		}
		carrier, d1 := connect(9)
		_, d2 := connect(10)
		carrierRTR, attachRTR = d1, d2
		// Killing the carrier retires the shared connection: the next
		// flow must establish a fresh carrier, not attach to a ghost.
		if err := carrier.Destroy(p); err != nil {
			t.Errorf("destroy carrier: %v", err)
		}
		connect(11)
	})
	b.eng.Run()
	if b.be.Stats.SharedCarriers != 2 || b.be.Stats.SharedAttaches != 1 {
		t.Fatalf("carriers/attaches = %d/%d, want 2/1",
			b.be.Stats.SharedCarriers, b.be.Stats.SharedAttaches)
	}
	// The attach skips the firmware rename entirely.
	if attachRTR*3 >= carrierRTR {
		t.Fatalf("attach RTR %v is not <3x cheaper than carrier RTR %v", attachRTR, carrierRTR)
	}
}
