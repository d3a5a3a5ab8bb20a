package controller

import (
	"errors"
	"maps"
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// refShard is the reference for FuzzShardTable: one replicated shard kept
// in the map tables that key slots replaced (a primary and a standby
// map[Key]entry), with its replication log, failover timers and partition
// heals worked out from their instants instead of run on the engine.
//
// The fuzzer's operations start on whole microseconds, and every write,
// apply and RPC reply lands on one, while promotions land 1 ns and heals
// 3 ns past one. So no two of the events whose order matters share an
// instant, and the reference needs no tie-break rule beyond creation order.
type refShard struct {
	pri, rep map[Key]entry
	written  map[Key]bool // keys some accepted write has named

	epoch     uint64
	down      bool
	outage    uint64
	failovers uint64
	parts     uint64
	genFenced uint64
	stats     Stats // Hits, LeaseExpired, Renewals

	log     []refRec     // records neither applied nor counted as fenced
	free    simtime.Time // when the channel is free for the next record
	logSeq  uint64
	applied uint64 // seq of the last applied record, or logSeq at truncation
	fenced  uint64

	timers []refTimer // pending, in creation order
}

type refRec struct {
	seq         uint64
	k           Key
	e           entry
	removed     bool
	send, apply simtime.Time
	fenced      bool // on the channel when a truncation came
}

// refTimer is a pending promotion, heal, or mid-RPC fault.
type refTimer struct {
	at     simtime.Time
	kind   int
	outage uint64           // promote, heal: the outage it was armed for
	heal   simtime.Duration // partition: how long until it heals
}

const (
	refPromote = iota
	refHeal
	refCrash
	refPartition
)

const (
	fuzzReplDelay = 20 * simtime.Microsecond
	fuzzDetect    = 50*simtime.Microsecond + 1
	fuzzLeaseTTL  = 500 * simtime.Microsecond
)

func newRefShard() *refShard {
	return &refShard{pri: map[Key]entry{}, rep: map[Key]entry{}, written: map[Key]bool{}, epoch: 1}
}

func (r *refShard) row(m Mapping, now simtime.Time) entry {
	return entry{m: m, ok: true, epoch: r.epoch, expires: now.Add(fuzzLeaseTTL)}
}

// advance runs every record apply and timer due at or before to, in time
// order.
func (r *refShard) advance(to simtime.Time) {
	for {
		ti := -1
		for i, tm := range r.timers {
			if tm.at <= to && (ti < 0 || tm.at < r.timers[ti].at) {
				ti = i
			}
		}
		if len(r.log) > 0 && r.log[0].apply <= to && (ti < 0 || r.log[0].apply < r.timers[ti].at) {
			rec := r.log[0]
			r.log = r.log[1:]
			switch {
			case rec.fenced:
				r.fenced++
			case rec.removed:
				delete(r.rep, rec.k)
				r.applied = rec.seq
			default:
				r.rep[rec.k] = rec.e
				r.applied = rec.seq
			}
			continue
		}
		if ti < 0 {
			return
		}
		tm := r.timers[ti]
		r.timers = append(r.timers[:ti], r.timers[ti+1:]...)
		switch tm.kind {
		case refPromote:
			if r.down && r.outage == tm.outage {
				r.down = false
				r.epoch++
				r.truncate(tm.at)
				r.pri = maps.Clone(r.rep)
				r.failovers++
			}
		case refHeal:
			switch {
			case r.outage != tm.outage:
			case r.down:
				r.down = false
			default:
				r.reset(tm.at)
			}
		case refCrash:
			r.crash(tm.at)
		case refPartition:
			r.partition(tm.at, tm.heal)
		}
	}
}

// append logs a write at now. Records apply one at a time, each
// fuzzReplDelay after it enters the channel, which is when it is logged or
// when the record before it applies, whichever is later.
func (r *refShard) append(now simtime.Time, k Key, e entry, removed bool) {
	r.logSeq++
	send := max(now, r.free)
	r.free = send.Add(fuzzReplDelay)
	r.log = append(r.log, refRec{seq: r.logSeq, k: k, e: e, removed: removed, send: send, apply: r.free})
}

// truncate drops the records still waiting at now and fences the one on
// the channel, which is counted when its apply comes due.
func (r *refShard) truncate(now simtime.Time) {
	keep := r.log[:0]
	for _, rec := range r.log {
		if rec.send <= now {
			rec.fenced = true
			keep = append(keep, rec)
		} else {
			r.fenced++
		}
	}
	r.log = keep
	r.free = now
	if len(keep) > 0 {
		r.free = keep[len(keep)-1].apply
	}
	r.applied = r.logSeq
}

func (r *refShard) reset(now simtime.Time) {
	r.truncate(now)
	r.rep = maps.Clone(r.pri)
}

func (r *refShard) armFailover(now simtime.Time) {
	r.outage++
	r.timers = append(r.timers, refTimer{at: now.Add(fuzzDetect), kind: refPromote, outage: r.outage})
}

func (r *refShard) crash(now simtime.Time) {
	if r.down {
		return
	}
	r.down = true
	r.pri = map[Key]entry{}
	r.armFailover(now)
}

func (r *refShard) partition(now simtime.Time, heal simtime.Duration) {
	if r.down {
		return
	}
	r.down = true
	r.parts++
	r.armFailover(now)
	r.timers = append(r.timers, refTimer{at: now.Add(heal), kind: refHeal, outage: r.outage})
}

func (r *refShard) restart(now simtime.Time) {
	if !r.down {
		return
	}
	r.down = false
	r.epoch++
	r.reset(now)
}

func (r *refShard) write(now simtime.Time, k Key, e entry) {
	r.pri[k] = e
	r.written[k] = true
	r.append(now, k, e, false)
}

func (r *refShard) register(now simtime.Time, k Key, m Mapping) {
	if !r.down {
		r.write(now, k, r.row(m, now))
	}
}

func (r *refShard) unregister(now simtime.Time, k Key) {
	if !r.down {
		delete(r.pri, k)
		r.append(now, k, entry{}, true)
	}
}

func (r *refShard) lookup(now simtime.Time, k Key) (Mapping, bool) {
	e, ok := r.pri[k]
	if ok && !e.live(now) {
		delete(r.pri, k)
		r.stats.LeaseExpired++
		ok = false
	}
	if !ok {
		return Mapping{}, false
	}
	r.stats.Hits++
	return e.m, true
}

func (r *refShard) renew(now simtime.Time, k Key, m Mapping) {
	if old, had := r.pri[k]; had && !old.live(now) {
		r.stats.LeaseExpired++
	}
	r.stats.Renewals++
	r.write(now, k, r.row(m, now))
}

// liveRows returns the live rows of a map table for one tenant.
func liveRows(t map[Key]entry, vni uint32, now simtime.Time) map[Key]Mapping {
	out := map[Key]Mapping{}
	for k, e := range t {
		if k.VNI == vni && e.live(now) {
			out[k] = e.m
		}
	}
	return out
}

// check compares the shard with the reference after a step.
func (r *refShard) check(t *testing.T, step int, s *Sharded) {
	t.Helper()
	sh, now := s.shards[0], s.shards[0].eng.Now()
	if got := rowsOf(sh.pri.table, sh.pri.slots); !maps.Equal(got, r.pri) {
		t.Fatalf("step %d at %v: primary rows\n got %v\nwant %v", step, now, got, r.pri)
	}
	if got := rowsOf(sh.rep.table, sh.pri.slots); !maps.Equal(got, r.rep) {
		t.Fatalf("step %d at %v: standby rows\n got %v\nwant %v", step, now, got, r.rep)
	}
	for _, vni := range []uint32{7, 8} {
		if got, want := s.Dump(vni), liveRows(r.pri, vni, now); !maps.Equal(got, want) {
			t.Fatalf("step %d at %v: Dump(%d)\n got %v\nwant %v", step, now, vni, got, want)
		}
	}
	leases := 0
	for _, e := range r.pri {
		if e.live(now) {
			leases++
		}
	}
	want := ShardStats{
		Epoch: r.epoch, Leases: leases, Down: r.down, ReplLag: int(r.logSeq - r.applied),
		FencedWrites: r.genFenced + r.fenced, Failovers: r.failovers, Partitions: r.parts,
	}
	if got := s.ShardStats(0); got != want {
		t.Fatalf("step %d at %v: ShardStats\n got %+v\nwant %+v", step, now, got, want)
	}
	st := sh.pri.Stats
	if st.Hits != r.stats.Hits || st.LeaseExpired != r.stats.LeaseExpired || st.Renewals != r.stats.Renewals {
		t.Fatalf("step %d at %v: hits/expired/renewals = %d/%d/%d, want %d/%d/%d", step, now,
			st.Hits, st.LeaseExpired, st.Renewals, r.stats.Hits, r.stats.LeaseExpired, r.stats.Renewals)
	}
	if n := len(sh.pri.slots.keys); n != len(r.written) {
		t.Fatalf("step %d: %d keys hold slots, but writes named %d", step, n, len(r.written))
	}
}

// Fuzz operations, one per leading byte; their arguments follow.
const (
	fzRegister   = iota // key, mapping
	fzUnregister        // key
	fzRenew             // key, mapping, fault
	fzResolve           // key, fault
	fzBatch             // #keys, #renewals, keys, (key, mapping) pairs, fault
	fzStep              // microseconds/13 - 1
	fzCrash
	fzRestart
	fzPartition // heal
	fzOps
)

// FuzzShardTable decodes its bytes into operations on a replicated
// one-shard Sharded — writes, removals of keys that may never have been
// written, RPCs with a crash or partition landing mid-flight, time steps
// past the lease, crashes, restarts, and partitions that heal before or
// after the failover detector — and after every step compares the tables,
// Dump, ShardStats and the lease counters with refShard.
func FuzzShardTable(f *testing.F) {
	const nKeys, nMaps = 10, 3
	f.Add([]byte{fzRegister, 1, 0, fzResolve, 1, 2, fzRenew, 1, 1, 2, fzStep, 60, fzResolve, 1, 2})
	f.Add([]byte{fzUnregister, 4, fzRegister, 4, 1, fzUnregister, 4, fzBatch, 2, 2, 4, 5, 4, 0, 5, 1, 2, fzStep, 255, fzBatch, 1, 1, 5, 5, 2, 2})
	f.Add([]byte{fzRegister, 1, 0, fzRegister, 2, 1, fzCrash, fzStep, 0, fzRestart, fzRegister, 3, 2, fzStep, 10})
	f.Add([]byte{fzRegister, 1, 0, fzStep, 5, fzPartition, 1, fzStep, 3, fzRegister, 2, 0, fzPartition, 7, fzStep, 20, fzRenew, 2, 1, 2})
	f.Add([]byte{fzRegister, 1, 0, fzRenew, 1, 1, 1, fzRenew, 1, 2, 4, fzStep, 40, fzRenew, 1, 0, 2, fzStep, 40, fzResolve, 1, 1})
	f.Add([]byte{fzRegister, 3, 0, fzRegister, 3, 1, fzRegister, 3, 2, fzRestart, fzCrash, fzCrash, fzRestart, fzPartition, 0, fzRestart, fzPartition, 2, fzStep, 1})
	f.Fuzz(func(t *testing.T, ops []byte) {
		eng := simtime.NewEngine()
		p := DefaultParams()
		p.Replicate = true
		p.ReplDelay = fuzzReplDelay
		p.FailoverDetect = fuzzDetect
		p.LeaseTTL = fuzzLeaseTTL
		s := NewSharded([]*simtime.Engine{eng}, p, 1)
		ref := newRefShard()
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		key := func() Key { i := next() % nKeys; return keyN(7+uint32(i%2), i) }
		mp := func() Mapping { return mapping(packet.NewIP(172, 16, 0, byte(1+next()%nMaps))) }
		heal := func() simtime.Duration { return simtime.Duration(1+next()%8)*15*simtime.Microsecond + 3 }
		// rpc runs one RPC to its reply, with an optional crash or
		// partition landing 1-90 µs after the send, and returns its error.
		rpc := func(fault int, call func(*simtime.Proc) error) error {
			if kind := fault % 3; kind > 0 {
				at := eng.Now().Add(simtime.Duration(1+fault/3%90) * simtime.Microsecond)
				if kind == 1 {
					eng.At(at, func() { s.CrashShard(0) })
					ref.timers = append(ref.timers, refTimer{at: at, kind: refCrash})
				} else {
					d := heal()
					eng.At(at, func() { s.PartitionShard(0, d) })
					ref.timers = append(ref.timers, refTimer{at: at, kind: refPartition, heal: d})
				}
			}
			var err error
			eng.Spawn("rpc", func(p *simtime.Proc) {
				err = call(p)
				eng.Stop()
			})
			eng.Run()
			ref.advance(eng.Now())
			if errors.Is(err, ErrFenced) {
				ref.genFenced++
			}
			return err
		}
		for step := 0; len(ops) > 0; step++ {
			now := eng.Now()
			switch next() % fzOps {
			case fzRegister:
				k, m := key(), mp()
				s.Register(k, m)
				ref.register(now, k, m)
			case fzUnregister:
				k := key()
				s.Unregister(k)
				ref.unregister(now, k)
			case fzRenew:
				k, m, fault := key(), mp(), next()
				err := rpc(fault, func(p *simtime.Proc) error { _, err := s.Renew(p, k, m); return err })
				if err != ErrUnavailable {
					ref.renew(eng.Now(), k, m)
				}
			case fzResolve:
				k, fault := key(), next()
				var got Mapping
				var ok bool
				err := rpc(fault, func(p *simtime.Proc) (err error) { got, ok, _, err = s.Resolve(p, k); return err })
				if err == nil {
					if want, wantOK := ref.lookup(eng.Now(), k); got != want || ok != wantOK {
						t.Fatalf("step %d: Resolve = %v, %v; want %v, %v", step, got.PIP, ok, want.PIP, wantOK)
					}
				}
			case fzBatch:
				keys, renew := make([]Key, next()%4), make([]RenewReq, next()%4)
				for i := range keys {
					keys[i] = key()
				}
				for i := range renew {
					renew[i] = RenewReq{K: key(), M: mp()}
				}
				var res []BatchResult
				err := rpc(next(), func(p *simtime.Proc) (err error) {
					res, _, err = s.BatchLookupShard(p, 0, keys, renew)
					return err
				})
				if err == ErrUnavailable {
					break
				}
				// A fenced batch was served too; only its reply is void.
				for _, r := range renew {
					ref.renew(eng.Now(), r.K, r.M)
				}
				for i, k := range keys {
					want, wantOK := ref.lookup(eng.Now(), k)
					if err == nil && res[i] != (BatchResult{M: want, OK: wantOK}) {
						t.Fatalf("step %d: batch key %d = %+v; want %v, %v", step, i, res[i], want.PIP, wantOK)
					}
				}
			case fzStep:
				to := now.Add(simtime.Duration(next()+1) * 13 * simtime.Microsecond)
				eng.At(to, func() {}) // the clock reaches to even if nothing else is due
				eng.RunUntil(to)
			case fzCrash:
				s.CrashShard(0)
				ref.crash(now)
			case fzRestart:
				s.RestartShard(0)
				ref.restart(now)
			case fzPartition:
				d := heal()
				s.PartitionShard(0, d)
				ref.partition(now, d)
			}
			eng.RunUntil(eng.Now()) // settle the instant before comparing
			ref.advance(eng.Now())
			ref.check(t, step, s)
		}
	})
}

// TestKeySlotsTellVNIsApart: two tenants may use one virtual GID. Keys
// with the same GID in two VNIs whose hashes pick the same entry of a new
// index share a probe run, and must still get slots of their own.
func TestKeySlotsTellVNIsApart(t *testing.T) {
	a := keyN(7, 1)
	b := Key{VNI: 8, VGID: a.VGID}
	for keyHash(b)%minIndex != keyHash(a)%minIndex {
		b.VNI++
	}
	ks := newKeySlots()
	if s := ks.intern(a); s != 0 {
		t.Fatalf("intern(a) = %d, want 0", s)
	}
	if s := ks.lookup(b); s != -1 {
		t.Fatalf("lookup(b) = %d before b was interned, want -1", s)
	}
	if s := ks.intern(b); s != 1 {
		t.Fatalf("intern(b) = %d, want 1", s)
	}
	if sa, sb := ks.lookup(a), ks.lookup(b); sa != 0 || sb != 1 {
		t.Fatalf("lookup(a), lookup(b) = %d, %d; want 0, 1", sa, sb)
	}
}

// FuzzKeySlots decodes its bytes into runs of intern and lookup calls on
// one keySlots and after every call compares it with a map[Key]int32
// reference: a key's slot, -1 for a key never interned, dense numbering in
// first-intern order, and keys[s] == k. At the end the index must hold one
// entry per key and be as long as the growth rule makes it: the shortest
// power of two, from 16 up, that is at least twice the keys. Each three
// bytes are an operation: the first picks one of 4 VNIs, intern or lookup,
// and a run of 1-32 consecutive keys; the next two pick the run's first key
// among 4,096 per VNI. The keys are a subnet's GIDs, which differ only in
// their last two bytes, and every VNI has the same ones, so up to 16,384
// keys can be interned and the index grows from 16 entries to 32,768.
func FuzzKeySlots(f *testing.F) {
	const keysPerVNI = 4096
	f.Add([]byte{0, 0, 1, 4, 0, 1, 4, 0, 2, 1, 0, 1, 5, 0, 1})
	f.Add([]byte{0xf8, 0x0f, 0xf0, 0xfc, 0x0f, 0xf0, 0xf9, 0, 0, 0xfd, 0x0f, 0xff})
	var fill []byte // intern 3,072 keys in runs of 32, then look them up
	for kind := byte(0); kind < 2; kind++ {
		for first := 0; first < 768; first += 32 {
			for vni := byte(0); vni < 4; vni++ {
				fill = append(fill, 0xf8|kind<<2|vni, byte(first>>8), byte(first))
			}
		}
	}
	f.Add(fill)
	f.Fuzz(func(t *testing.T, ops []byte) {
		ks := newKeySlots()
		ref := map[Key]int32{}
		for ; len(ops) >= 3; ops = ops[3:] {
			op, first := ops[0], int(ops[1])<<8|int(ops[2])
			vni, lookup, run := uint32(7+op&3), op&4 != 0, 1+int(op>>3)
			for i := 0; i < run; i++ {
				k := keyN(vni, (first+i)%keysPerVNI)
				want, ok := ref[k]
				var got int32
				if lookup {
					got = ks.lookup(k)
					if !ok {
						want = -1
					}
				} else {
					got = ks.intern(k)
					if !ok {
						want = int32(len(ref))
						ref[k] = want
					}
				}
				if got != want {
					t.Fatalf("vni %d key %d: lookup=%v gave slot %d, want %d", vni, (first+i)%keysPerVNI, lookup, got, want)
				}
				if len(ks.keys) != len(ref) {
					t.Fatalf("%d keys numbered, want %d", len(ks.keys), len(ref))
				}
				if got >= 0 && ks.keys[got] != k {
					t.Fatalf("keys[%d] = %v, want %v", got, ks.keys[got], k)
				}
			}
		}
		want := minIndex
		for want < 2*len(ks.keys) {
			want *= 2
		}
		full := 0
		for _, e := range ks.idx {
			if e != 0 {
				full++
			}
		}
		if len(ks.idx) != want || full != len(ks.keys) {
			t.Fatalf("index of %d entries, %d full, for %d keys; want %d entries", len(ks.idx), full, len(ks.keys), want)
		}
	})
}
