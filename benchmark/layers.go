package main

import (
	"masq/internal/cluster"
	"masq/internal/controller"
)

// layerCounters reads the per-layer counters of a testbed: RNICs and
// links, MasQ backends with their RConntrack, the tenant's rule index,
// and the (classic) controller.
func layerCounters(tb *cluster.Testbed, vni uint32) map[string]float64 {
	m := map[string]float64{}
	for _, h := range tb.Hosts {
		st := h.Dev.Stats
		m["rnic.tx_packets"] += float64(st.TxPackets)
		m["rnic.rx_packets"] += float64(st.RxPackets)
		m["rnic.retransmits"] += float64(st.Retransmits)
		m["rnic.naks"] += float64(st.NAKsSent)
		m["rnic.dropped"] += float64(st.Dropped)
		m["rnic.async_events"] += float64(st.AsyncEvents)
		m["rnic.live_qps_end"] += float64(h.Dev.QPs())
	}
	for _, l := range tb.Links {
		st := l.Stats()
		m["simnet.frames_delivered"] += float64(st.Delivered)
		m["simnet.frames_dropped"] += float64(st.Dropped)
	}
	for _, b := range tb.Backends {
		if b == nil {
			continue
		}
		m["masq.cache_hits"] += float64(b.Stats.CacheHits)
		m["masq.cache_misses"] += float64(b.Stats.CacheMisses)
		m["masq.renames"] += float64(b.Stats.Renames)
		m["masq.query_retries"] += float64(b.Stats.QueryRetries)
		m["masq.query_failures"] += float64(b.Stats.QueryFailures)
		m["masq.invalidations"] += float64(b.Stats.Invalidations)
		ct := b.CT.Stats
		m["rct.validated"] += float64(ct.Validated)
		m["rct.denied"] += float64(ct.Denied)
		m["rct.inserted"] += float64(ct.Inserted)
		m["rct.deleted"] += float64(ct.Deleted)
		m["rct.resets"] += float64(ct.Resets)
		m["rct.revalidated"] += float64(ct.Revalidated)
		m["rct.verdict_hits"] += float64(ct.VerdictHits)
		m["rct.verdict_misses"] += float64(ct.VerdictMisses)
		m["rct.incr_scans"] += float64(ct.IncrScans)
		m["rct.skipped_scans"] += float64(ct.SkippedScans)
	}
	t := tb.Fab.Tenant(vni)
	m["overlay.rules"] = float64(t.RuleCount())
	m["overlay.index_buckets"] = float64(t.Policy.IndexInfo().Buckets)
	addCtrlStats(m, tb.Ctrl.Stats)
	return m
}

func addCtrlStats(m map[string]float64, st controller.Stats) {
	m["ctrl.resolves"] += float64(st.Queries - st.BatchQueries)
	m["ctrl.batch_rpcs"] += float64(st.BatchQueries)
	m["ctrl.renewals"] += float64(st.Renewals)
	m["ctrl.updates"] += float64(st.Updates)
}

func addShardedStats(m map[string]float64, s *controller.Sharded) {
	for i := 0; i < s.NumShards(); i++ {
		addCtrlStats(m, s.Primary(i).Stats)
		st := s.ShardStats(i)
		m["ctrl.queue_hwm"] = max(m["ctrl.queue_hwm"], float64(st.QueueHWM))
		m["ctrl.fenced_writes"] += float64(st.FencedWrites)
		m["ctrl.repl_lag_max"] = max(m["ctrl.repl_lag_max"], float64(st.ReplLag))
	}
}

// addRatios derives the hit ratios from a timed phase's counter deltas.
func addRatios(m map[string]float64) {
	ratio := func(hit, miss float64) float64 {
		if hit+miss == 0 {
			return 0
		}
		return hit / (hit + miss)
	}
	m["masq.cache_hit_ratio"] = ratio(m["masq.cache_hits"], m["masq.cache_misses"])
	m["rct.verdict_hit_ratio"] = ratio(m["rct.verdict_hits"], m["rct.verdict_misses"])
}
