package masq

import (
	"fmt"

	"masq/internal/controller"
	"masq/internal/simtime"
)

// Batched controller queries (setup fast path, part a): during a connection
// storm, every concurrent rename miss pays its own Lookup RPC — N misses,
// N round trips, serialized through the same controller. With BatchLookups
// enabled the first miss becomes a batch leader; misses arriving within the
// batch window join its queue (and misses for a key already in flight just
// wait on that key's event — single-flight), so the whole storm resolves in
// one BatchLookup RPC. The batch RPC also piggybacks the host's lease
// renewals, folding the renewal keep-alive into traffic the host is sending
// anyway.

// lookupOutcome is the result a batch leader hands to every coalesced
// waiter of one key.
type lookupOutcome struct {
	m   controller.Mapping
	err error
}

// batchResolve is resolveGID's miss path under BatchLookups: join the key's
// in-flight resolution if one exists, otherwise enqueue the key and make
// sure a batch leader is running, then wait for the coalesced answer.
func (b *Backend) batchResolve(p *simtime.Proc, k controller.Key) (controller.Mapping, error) {
	if ev, ok := b.inflight[k]; ok {
		out := ev.Wait(p)
		return out.m, out.err
	}
	ev := simtime.NewEvent[lookupOutcome](b.Host.Eng)
	b.inflight[k] = ev
	b.batchQ = append(b.batchQ, k)
	if !b.batching {
		b.batching = true
		b.Host.Eng.Spawn("masq.batch-lookup", b.batchLeader)
	}
	out := ev.Wait(p)
	return out.m, out.err
}

// batchLeader drains the pending-miss queue: sleep one batch window to let
// stragglers pile in, resolve everything queued with one RPC, and repeat
// until no new misses arrived while the RPC was in flight.
func (b *Backend) batchLeader(p *simtime.Proc) {
	for {
		p.Sleep(batchWindow)
		keys := b.batchQ
		b.batchQ = nil
		if len(keys) == 0 {
			b.batching = false
			return
		}
		b.runBatch(p, keys)
		if len(b.batchQ) == 0 {
			b.batching = false
			return
		}
	}
}

// runBatch resolves one batch of keys (plus piggybacked lease renewals) and
// triggers every waiter with its key's outcome. Keys and renewals are
// grouped by owning controller shard — one batch RPC per shard that has
// queued misses, in shard order — so a storm's resolution load spreads
// across shards and one dead shard fails only its own keys' waiters.
func (b *Backend) runBatch(p *simtime.Proc, keys []controller.Key) {
	n := b.Ctrl.NumShards()
	shardKeys := make([][]controller.Key, n)
	for _, k := range keys {
		s := b.Ctrl.Owner(k)
		shardKeys[s] = append(shardKeys[s], k)
	}
	shardRenew := make([][]controller.RenewReq, n)
	for _, vb := range b.bonds {
		if k, m, ok := vb.Registration(); ok {
			s := b.Ctrl.Owner(k)
			shardRenew[s] = append(shardRenew[s], controller.RenewReq{K: k, M: m})
		}
	}
	for shard, ks := range shardKeys {
		if len(ks) == 0 {
			continue // renewals ride only on batches the host sends anyway
		}
		results, err := b.batchLookupWithRetry(p, shard, ks, shardRenew[shard])
		b.Stats.BatchRPCs++
		b.Stats.BatchedLookups += uint64(len(ks))
		if n := uint64(len(ks)); n > b.Stats.BatchMax {
			b.Stats.BatchMax = n
		}
		for i, k := range ks {
			ev := b.inflight[k]
			delete(b.inflight, k)
			var out lookupOutcome
			switch {
			case err != nil:
				out.err = fmt.Errorf("masq: batched resolve of vGID %v in VNI %d: %w", k.VGID, k.VNI, err)
			case !results[i].OK:
				out.err = fmt.Errorf("masq: no mapping for vGID %v in VNI %d", k.VGID, k.VNI)
			default:
				out.m = results[i].M
				b.cacheStore(k, out.m)
			}
			ev.Trigger(out)
		}
	}
}

// batchLookupWithRetry runs one shard's batch RPC through withRetry: same
// attempt budget, same clamped exponential backoff as a single lookup.
func (b *Backend) batchLookupWithRetry(p *simtime.Proc, shard int, keys []controller.Key, renew []controller.RenewReq) ([]controller.BatchResult, error) {
	var results []controller.BatchResult
	n, err := b.withRetry(p, shard, func() (ep uint64, err error) {
		results, ep, err = b.Ctrl.BatchLookupShard(p, shard, keys, renew)
		return ep, err
	})
	if err != nil {
		return nil, fmt.Errorf("masq: batch lookup of %d keys (%d attempts): %w", len(keys), n, err)
	}
	b.Stats.LeaseRenewals += uint64(len(renew))
	return results, nil
}
