package controller

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// BenchmarkQueueStorm measures one shard's service queue under the
// renewal-wave load abl-ctrl-scale models: 16 procs loop 100-renewal batch
// RPCs, whose serialization holds the slot and keeps extending the wait,
// and 256 procs loop Resolve behind them. Replication is on, with a
// per-record delay the standby keeps up with, so the log pump runs through
// all its states while memory stays flat. One op is one RPC.
func BenchmarkQueueStorm(b *testing.B) {
	const batchers, batch, resolvers = 16, 100, 256
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.Replicate = true
	p.ReplDelay = simtime.Us(0.5)
	s := NewSharded([]*simtime.Engine{eng}, p, 1)
	m := mapping(packet.NewIP(172, 16, 0, 1))
	keys := make([]Key, batchers*batch)
	for i := range keys {
		keys[i] = keyN(7, i)
		s.Register(keys[i], m)
	}
	n, ops := b.N, 0
	for w := 0; w < batchers; w++ {
		renew := make([]RenewReq, batch)
		for i := range renew {
			renew[i] = RenewReq{K: keys[w*batch+i], M: m}
		}
		eng.Spawn("batch", func(pr *simtime.Proc) {
			for ops < n {
				ops++
				if _, _, err := s.BatchLookupShard(pr, 0, nil, renew); err != nil {
					b.Error(err)
				}
			}
		})
	}
	for r := 0; r < resolvers; r++ {
		eng.Spawn("resolve", func(pr *simtime.Proc) {
			for i := r; ops < n; i += resolvers {
				ops++
				if _, ok, _, err := s.Resolve(pr, keys[i%len(keys)]); err != nil || !ok {
					b.Errorf("resolve: ok=%v err=%v", ok, err)
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// BenchmarkReplicaBacklog measures one shard's replication log under
// ctrl-storm's per-shard shape, which BenchmarkQueueStorm cannot show
// because its standby keeps the log near empty. 7,500 registrations leave
// as many records logged at the start; then every 150 ms, the time the
// standby needs to apply 7,500 records at 20 µs each, a wave renews every
// key in 100-renewal batches, about ten times faster than the standby
// applies them. So the log never drains and swings between about 7.5k and
// 14k records (reported as peak-lag). One op is one batch RPC.
func BenchmarkReplicaBacklog(b *testing.B) {
	const keys, batch = 7500, 100
	const delay = 20 * simtime.Microsecond
	eng := simtime.NewEngine()
	p := DefaultParams()
	p.LeaseTTL = simtime.Ms(10_000)
	p.Replicate = true
	p.ReplDelay = delay
	s := NewSharded([]*simtime.Engine{eng}, p, 1)
	m := mapping(packet.NewIP(172, 16, 0, 1))
	renew := make([]RenewReq, keys)
	for i := range renew {
		renew[i] = RenewReq{K: keyN(7, i), M: m}
		s.Register(renew[i].K, m)
	}
	peak := 0
	eng.Spawn("renew", func(pr *simtime.Proc) {
		for ops := 0; ops < b.N; {
			start := pr.Now()
			for i := 0; i < keys && ops < b.N; i += batch {
				ops++
				if _, _, err := s.BatchLookupShard(pr, 0, nil, renew[i:i+batch]); err != nil {
					b.Error(err)
				}
			}
			peak = max(peak, s.ShardStats(0).ReplLag)
			pr.Sleep(start.Add(keys * delay).Sub(pr.Now()))
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.ReportMetric(float64(peak), "peak-lag")
}

// BenchmarkKeySlots times a shard's key index at ctrl-storm's scale: 30k
// interns into an empty index (one op is the whole fill, growth included),
// and a lookup of a key the full index holds and of one it does not. The
// keys are subnet GIDs across 4 VNIs.
func BenchmarkKeySlots(b *testing.B) {
	const n = 30_000
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = keyN(uint32(7+i%4), i/4)
	}
	b.Run("intern-30k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ks := newKeySlots()
			for _, k := range keys {
				ks.intern(k)
			}
		}
	})
	full := newKeySlots()
	for _, k := range keys {
		full.intern(k)
	}
	b.Run("lookup-hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if full.lookup(keys[i%n]) < 0 {
				b.Fatal("miss")
			}
		}
	})
	b.Run("lookup-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if full.lookup(keyN(99, i%n)) >= 0 {
				b.Fatal("hit")
			}
		}
	})
}
