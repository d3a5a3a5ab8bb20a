package controller

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

func replEntry(i int) (Key, entry) {
	return keyN(9, i), entry{m: mapping(packet.NewIP(172, 16, 0, byte(i+1))), ok: true, epoch: 1}
}

// rowsOf turns a slot table back into a map from key to row, so tests can
// reach rows by key.
func rowsOf(t table, ks *keySlots) map[Key]entry {
	out := make(map[Key]entry)
	for s, e := range t {
		if e.ok {
			out[ks.keys[s]] = e
		}
	}
	return out
}

// TestReplicaAppliesWithDelay: records fold into the shadow table one
// ReplDelay apart, and Lag drains to zero.
func TestReplicaAppliesWithDelay(t *testing.T) {
	eng := simtime.NewEngine()
	ks := newKeySlots()
	r := newReplica(eng, simtime.Us(10), ks)
	const n = 5
	for i := 0; i < n; i++ {
		k, e := replEntry(i)
		r.append(ks.intern(k), e)
	}
	if lag := r.Lag(); lag != n {
		t.Fatalf("lag before apply = %d, want %d", lag, n)
	}
	eng.Spawn("watch", func(p *simtime.Proc) {
		p.Sleep(simtime.Us(10*n - 5)) // one record still on the channel
		if lag := r.Lag(); lag != 1 {
			t.Errorf("lag mid-drain = %d, want 1", lag)
		}
		p.Sleep(simtime.Us(10))
		if lag := r.Lag(); lag != 0 {
			t.Errorf("lag after drain = %d, want 0", lag)
		}
	})
	eng.Run()
	snap := rowsOf(r.snapshot(), ks)
	if len(snap) != n {
		t.Fatalf("shadow table holds %d entries, want %d", len(snap), n)
	}
	for i := 0; i < n; i++ {
		k, e := replEntry(i)
		if got, ok := snap[k]; !ok || got.m != e.m {
			t.Fatalf("entry %d missing or wrong in snapshot", i)
		}
	}
}

// TestReplicaRemoveRecords: a removed=true record deletes from the shadow
// table.
func TestReplicaRemoveRecords(t *testing.T) {
	eng := simtime.NewEngine()
	ks := newKeySlots()
	r := newReplica(eng, simtime.Us(10), ks)
	k, e := replEntry(0)
	r.append(ks.intern(k), e)
	r.append(ks.lookup(k), entry{})
	eng.Run()
	if snap := rowsOf(r.snapshot(), ks); len(snap) != 0 {
		t.Fatalf("shadow table holds %d entries after remove, want 0", len(snap))
	}
	if lag := r.Lag(); lag != 0 {
		t.Fatalf("lag = %d after drain", lag)
	}
}

// TestReplicaTruncateFencesQueuedAndInFlight: truncation at the promotion
// instant drops both the queued records and the one already on the channel;
// none of them contaminate the promoted table.
func TestReplicaTruncateFencesQueuedAndInFlight(t *testing.T) {
	eng := simtime.NewEngine()
	ks := newKeySlots()
	r := newReplica(eng, simtime.Us(10), ks)
	k0, e0 := replEntry(0)
	r.append(ks.intern(k0), e0)
	eng.Spawn("promote", func(p *simtime.Proc) {
		p.Sleep(simtime.Us(15)) // record 0 applied at +10
		for i := 1; i < 4; i++ {
			k, e := replEntry(i)
			r.append(ks.intern(k), e)
		}
		p.Sleep(simtime.Us(5)) // record 1 is now on the channel, 2..3 queued
		queued := r.truncate()
		if queued != 2 {
			t.Errorf("truncate drained %d queued records, want 2", queued)
		}
		p.Sleep(simtime.Us(20)) // let the in-flight record's sleep expire
		if got := r.Fenced(); got != 3 {
			t.Errorf("fenced = %d, want 3 (2 queued + 1 in flight)", got)
		}
		snap := rowsOf(r.snapshot(), ks)
		if len(snap) != 1 {
			t.Errorf("promoted table holds %d entries, want only the applied one", len(snap))
		}
		if _, ok := snap[k0]; !ok {
			t.Error("applied record missing from promoted table")
		}
		if lag := r.Lag(); lag != 0 {
			t.Errorf("lag = %d after truncate, want 0", lag)
		}
	})
	eng.Run()
}

// TestReplicaLagWindow: records applied inside a chaos lag window pay the
// extra delay; after the window the base delay resumes.
func TestReplicaLagWindow(t *testing.T) {
	eng := simtime.NewEngine()
	ks := newKeySlots()
	r := newReplica(eng, simtime.Us(10), ks)
	r.SetLagWindow(simtime.Time(0).Add(simtime.Us(100)), simtime.Us(90))
	k0, e0 := replEntry(0)
	r.append(ks.intern(k0), e0)
	eng.Spawn("watch", func(p *simtime.Proc) {
		p.Sleep(simtime.Us(50)) // base delay alone would have applied at +10
		if lag := r.Lag(); lag != 1 {
			t.Errorf("lagged record applied early (lag=%d)", lag)
		}
		p.Sleep(simtime.Us(60)) // 100µs lagged apply has landed by +110
		if lag := r.Lag(); lag != 0 {
			t.Errorf("lagged record never applied (lag=%d)", lag)
		}
		// Past the window: back to the base delay.
		k1, e1 := replEntry(1)
		r.append(ks.intern(k1), e1)
		p.Sleep(simtime.Us(15))
		if lag := r.Lag(); lag != 0 {
			t.Errorf("post-window record still pending (lag=%d)", lag)
		}
	})
	eng.Run()
}

// TestReplicaReset: a rejoining standby re-images from the authoritative
// table and discards its stale log.
func TestReplicaReset(t *testing.T) {
	eng := simtime.NewEngine()
	ks := newKeySlots()
	r := newReplica(eng, simtime.Us(10), ks)
	kOld, eOld := replEntry(0)
	r.append(ks.intern(kOld), eOld) // never applied: reset fences it
	kNew, eNew := replEntry(1)
	var auth table
	auth.set(ks.intern(kNew), eNew, len(ks.keys))
	r.reset(auth)
	eng.Run()
	snap := rowsOf(r.snapshot(), ks)
	if len(snap) != 1 {
		t.Fatalf("reset table holds %d entries, want 1", len(snap))
	}
	if got, ok := snap[kNew]; !ok || got.m != eNew.m {
		t.Fatal("authoritative entry missing after reset")
	}
	if _, ok := snap[kOld]; ok {
		t.Fatal("stale log record survived reset")
	}
	if r.Fenced() == 0 {
		t.Fatal("reset did not count the discarded record as fenced")
	}
}

// TestReplicaParkedPumpTakesRecord: a parked pump takes an appended record
// at once, so a truncation in the same instant does not see it. The record
// enters the channel under the new generation and is applied.
func TestReplicaParkedPumpTakesRecord(t *testing.T) {
	eng := simtime.NewEngine()
	ks := newKeySlots()
	r := newReplica(eng, simtime.Us(10), ks)
	eng.Run() // the pump starts and parks on the empty log
	k, e := replEntry(0)
	eng.At(eng.Now().Add(simtime.Us(5)), func() {
		r.append(ks.intern(k), e)
		r.truncate()
	})
	eng.Run()
	if _, ok := rowsOf(r.snapshot(), ks)[k]; !ok || r.Fenced() != 0 || r.Lag() != 0 {
		t.Fatalf("applied=%v fenced=%d lag=%d, want the record applied and nothing fenced", ok, r.Fenced(), r.Lag())
	}
}

// logBlocks counts the blocks a replication log holds, the spare included.
func logBlocks(l *replLog) int {
	n := 0
	for b := l.head; b != nil; b = b.next {
		n++
	}
	if l.spare != nil {
		n++
	}
	return n
}

// TestReplicaLogAllocatesNothing: once its blocks and tables are warm, a
// replicated shard writes a row, logs it, and applies it on the standby
// with no allocation, through the parked hand-off and through the log
// alike. A 10k-record backlog spans many blocks, applies in log order, and
// once drained leaves at most the one spare block.
func TestReplicaLogAllocatesNothing(t *testing.T) {
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.Replicate = true
	p.ReplDelay = simtime.Us(20)
	s := NewSharded([]*simtime.Engine{eng}, p, 1)
	k0, k1 := keyN(7, 0), keyN(7, 1)
	m := mapping(packet.NewIP(172, 16, 0, 1))
	step := func() {
		s.Register(k0, m) // handed to the parked pump
		s.Register(k1, m) // waits in the log
		eng.Run()
	}
	step()
	if a := testing.AllocsPerRun(100, step); a != 0 {
		t.Fatalf("a warm write, log and apply allocates %v times, want 0", a)
	}

	const n, keys = 10_000, 1000
	for i := 0; i < n; i++ {
		s.Register(keyN(7, i%keys), mapping(packet.NewIP(172, 16, byte(i>>8), byte(i))))
	}
	rep := s.shards[0].rep
	if lag, blocks := rep.Lag(), logBlocks(&rep.log); lag != n || blocks < n/replBlockLen {
		t.Fatalf("backlog of %d records in %d blocks, want %d records in at least %d", lag, blocks, n, n/replBlockLen)
	}
	eng.Run()
	got := rowsOf(rep.table, s.Primary(0).slots)
	for i := n - keys; i < n; i++ { // each key's last write wins
		if e := got[keyN(7, i%keys)]; e.m != mapping(packet.NewIP(172, 16, byte(i>>8), byte(i))) {
			t.Fatalf("key %d applied %v, want its write %d", i%keys, e.m.PIP, i)
		}
	}
	if lag, blocks := rep.Lag(), logBlocks(&rep.log); lag != 0 || blocks > 1 {
		t.Fatalf("drained log: lag %d, %d blocks held; want 0 and at most 1", lag, blocks)
	}
}
