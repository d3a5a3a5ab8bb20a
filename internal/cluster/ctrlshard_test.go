package cluster_test

// The sharded-controller failover soak: the generalized form of the
// controller-crash soak. The control plane runs as four shards, each with a
// push-replicated standby; one shard's primary is crashed mid-workload,
// while a link cut forces a stream to re-establish its connection around
// the failover window. Invariants: the standby is promoted with the
// replicated table under a bumped epoch on that shard ONLY — the other
// shards' epochs, tables, and connections are undisturbed; no stale mapping
// survives reconciliation; streams recover; and both the crash and no-crash
// schedules are pure functions of the seed.

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"masq/internal/apps/perftest"
	"masq/internal/apps/reconnect"
	"masq/internal/chaos"
	"masq/internal/cluster"
	"masq/internal/controller"
	"masq/internal/masq"
	"masq/internal/packet"
	"masq/internal/simtime"
)

// ctrlShardFailoverSummary runs the sharded-controller soak once and
// returns a deterministic digest. With crash=false the same workload runs
// without the shard failure (the control arm of the determinism check).
func ctrlShardFailoverSummary(t *testing.T, seed int64, crash bool) []byte {
	t.Helper()
	cfg := shortRetry(cluster.DefaultConfig())
	cfg.Hosts = 3
	cfg.CtrlShards = 4
	cfg.Masq.PushDown = true
	cfg.Masq.GraceTTL = simtime.Ms(30)
	cfg.Masq.LeaseRenewEvery = simtime.Ms(1)
	cfg.Ctrl.LeaseTTL = simtime.Ms(20)
	cfg.Ctrl.Seed = seed
	cfg.Ctrl.Replicate = true
	cfg.Ctrl.ReplDelay = simtime.Us(20)
	cfg.Ctrl.FailoverDetect = simtime.Ms(2)
	tb := cluster.New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	mk := func(host int, last byte) *cluster.Node {
		n, err := tb.NewNode(cluster.ModeMasQ, host, vni, packet.NewIP(192, 168, 12, last))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	c0, s0 := mk(0, 1), mk(1, 2) // stream A: host0 → host1, killed by the link cut
	c1, s1 := mk(2, 3), mk(1, 4) // stream B: host2 → host1, rides out the failover
	nodes := []*cluster.Node{c0, s0, c1, s1}

	// The victim is the shard owning stream A's client registration, so the
	// reconnect's RConnrename races the failover on that exact shard.
	k0, _, ok := c0.Provider.(*masq.Frontend).VBond().Registration()
	if !ok {
		t.Fatal("c0 holds no registration")
	}
	victim := tb.CtrlSharded.Owner(k0)

	horizon := simtime.Ms(50)
	// Shard crash at 15ms; the standby promotes at 17ms (FailoverDetect).
	// The restart edge at 25ms is a no-op — the promotion already happened.
	// The link cut [16ms, 18ms) exhausts stream A's retransmissions, so its
	// reconnect lands around the promotion instant.
	events := chaos.Outage(tb.HostLink(0),
		simtime.Time(simtime.Ms(16)), simtime.Time(simtime.Ms(18)))
	if crash {
		events = append(events, chaos.ShardCrash(victim,
			simtime.Time(simtime.Ms(15)), simtime.Time(simtime.Ms(25))))
	}
	tb.Chaos.Arm(chaos.Plan{Seed: seed, Events: events})
	tb.StartLeases(simtime.Time(horizon))

	pol := reconnect.Policy{
		MaxAttempts: 12,
		Backoff:     simtime.Us(500),
		MaxBackoff:  simtime.Ms(4),
		DialTimeout: simtime.Ms(5),
	}
	resA := perftest.StartResilientWriteBW(tb, c0, s0, 7700, 8192, horizon, pol)
	resB := perftest.StartResilientWriteBW(tb, c1, s1, 7701, 8192, horizon, pol)

	// Snapshot at 45ms, with lease renewals still running (the engine drains
	// past the horizon, by which time leases have lazily expired).
	var table map[controller.Key]controller.Mapping
	caches := make([]map[controller.Key]controller.Mapping, cfg.Hosts)
	shardStats := make([]controller.ShardStats, cfg.CtrlShards)
	tb.Eng.At(simtime.Time(simtime.Ms(45)), func() {
		table = tb.CtrlSharded.Dump(vni)
		for i := range shardStats {
			shardStats[i] = tb.CtrlSharded.ShardStats(i)
		}
		for i, be := range tb.Backends {
			if be != nil {
				caches[i] = be.CacheSnapshot()
			}
		}
	})
	tb.Eng.Run()

	if !resA.Triggered() || !resB.Triggered() {
		t.Fatalf("streams stuck (pending procs: %v)", tb.Eng.PendingProcs())
	}
	a, b := resA.Value(), resB.Value()
	if a.Msgs == 0 || b.Msgs == 0 {
		t.Fatalf("a stream moved no data: A=%+v B=%+v", a, b)
	}
	if a.GaveUp || b.GaveUp {
		t.Fatalf("a stream gave up reconnecting: A=%+v B=%+v", a, b)
	}

	// Reconvergence: the union of the shard tables must equal the union of
	// live vBond registrations — no lost endpoint, no resurrected ghost.
	if len(table) != len(nodes) {
		t.Fatalf("controller has %d mappings at 45ms, want %d", len(table), len(nodes))
	}
	for _, n := range nodes {
		k, m, ok := n.Provider.(*masq.Frontend).VBond().Registration()
		if !ok {
			t.Fatalf("node %s holds no registration", n.Name)
		}
		if got, ok := table[k]; !ok || got != m {
			t.Fatalf("controller table diverged for %s: got %+v ok=%v want %+v",
				n.Name, got, ok, m)
		}
	}
	// No stale mapping survives: every cache entry agrees with the
	// authoritative table.
	for i, cache := range caches {
		for k, m := range cache {
			if got, ok := table[k]; !ok || got != m {
				t.Fatalf("backend %d caches stale mapping %+v for %+v", i, m, k)
			}
		}
	}

	var resets, epochBumps uint64
	for _, be := range tb.Backends {
		if be == nil {
			continue
		}
		resets += be.Stats.GraceResets
		epochBumps += be.Stats.EpochBumps
	}
	// Replication means the promoted table is (nearly) complete: no grace
	// connection should ever be RESET — at worst it is re-validated against
	// the promoted incarnation.
	if resets != 0 {
		t.Fatalf("%d grace connections were reset; replication should prevent any", resets)
	}
	if crash {
		// The failover's blast radius is exactly one shard: epoch bump and
		// failover count on the victim, every other shard untouched.
		for i, st := range shardStats {
			if i == victim {
				if st.Epoch != 2 || st.Failovers != 1 || st.Down {
					t.Fatalf("victim shard %d at 45ms: %+v, want epoch 2 after one failover", i, st)
				}
			} else if st.Epoch != 1 || st.Failovers != 0 {
				t.Fatalf("shard %d disturbed by shard %d's failover: %+v", i, victim, st)
			}
		}
		if tb.Chaos.Stats.ShardCrashes != 1 {
			t.Fatalf("chaos fired %d shard crashes, want 1", tb.Chaos.Stats.ShardCrashes)
		}
		if epochBumps == 0 {
			t.Fatal("no backend observed the per-shard epoch bump")
		}
		for i, be := range tb.Backends {
			if be != nil && be.ShardEpoch(victim) != 2 {
				t.Fatalf("backend %d stuck at epoch %d on the victim shard, want 2",
					i, be.ShardEpoch(victim))
			}
		}
	} else {
		for i, st := range shardStats {
			if st.Epoch != 1 || st.Failovers != 0 {
				t.Fatalf("control arm: shard %d saw %+v, want epoch 1", i, st)
			}
		}
	}

	var sum bytes.Buffer
	sum.Write(tb.Chaos.TraceBytes())
	fmt.Fprintf(&sum, "\nvictim=%d\n", victim)
	fmt.Fprintf(&sum, "A msgs=%d bytes=%d fatals=%d reconnects=%d\n", a.Msgs, a.Bytes, a.Fatals, a.Reconnects)
	fmt.Fprintf(&sum, "B msgs=%d bytes=%d fatals=%d reconnects=%d\n", b.Msgs, b.Bytes, b.Fatals, b.Reconnects)
	for i, st := range shardStats {
		fmt.Fprintf(&sum, "shard%d epoch=%d leases=%d hwm=%d lag=%d fenced=%d failovers=%d partitions=%d\n",
			i, st.Epoch, st.Leases, st.QueueHWM, st.ReplLag, st.FencedWrites, st.Failovers, st.Partitions)
	}
	for i, be := range tb.Backends {
		if be == nil {
			continue
		}
		fmt.Fprintf(&sum, "backend%d epoch=%d grace=%d/%d reval=%d resets=%d fenced=%d gaps=%d resyncs=%d renewals=%d/%d bumps=%d\n",
			i, be.Epoch(), be.Stats.GraceRenames, be.Stats.GraceExpired,
			be.Stats.GraceRevalidated, be.Stats.GraceResets, be.Stats.FencedNotifies,
			be.Stats.NotifyGaps, be.Stats.Resyncs,
			be.Stats.LeaseRenewals, be.Stats.LeaseRenewFailures, be.Stats.EpochBumps)
	}
	fmt.Fprintf(&sum, "table=%d\n", len(table))
	return sum.Bytes()
}

// TestCtrlShardFailoverSoak is the sharded-controller capstone: one shard's
// primary dies under live traffic and a concurrent link cut; its standby is
// promoted with the replicated table while every other shard — and every
// connection they own — is undisturbed. Both arms must be pure functions of
// the seed.
func TestCtrlShardFailoverSoak(t *testing.T) {
	withA := ctrlShardFailoverSummary(t, 4712, true)
	withB := ctrlShardFailoverSummary(t, 4712, true)
	if !bytes.Equal(withA, withB) {
		t.Fatalf("same-seed failover runs diverged:\n--- A ---\n%s\n--- B ---\n%s", withA, withB)
	}
	withoutA := ctrlShardFailoverSummary(t, 4712, false)
	withoutB := ctrlShardFailoverSummary(t, 4712, false)
	if !bytes.Equal(withoutA, withoutB) {
		t.Fatalf("same-seed control runs diverged:\n--- A ---\n%s\n--- B ---\n%s", withoutA, withoutB)
	}
	if bytes.Equal(withA, withoutA) {
		t.Fatal("failover and control digests are identical — the crash had no observable effect")
	}
}

// TestTotalOutageOnShardedController: the legacy whole-controller chaos
// event on a sharded control plane crashes every shard; with replication on,
// each standby promotes independently and the restart edge is a no-op.
func TestTotalOutageOnShardedController(t *testing.T) {
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 2
	cfg.CtrlShards = 2
	cfg.Ctrl.Replicate = true
	cfg.Ctrl.FailoverDetect = simtime.Ms(2)
	tb := cluster.New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	if _, err := tb.NewNode(cluster.ModeMasQ, 0, vni, packet.NewIP(192, 168, 13, 1)); err != nil {
		t.Fatal(err)
	}
	tb.CrashController(simtime.Time(simtime.Ms(5)), simtime.Time(simtime.Ms(15)))
	tb.Eng.Run()
	for i := 0; i < cfg.CtrlShards; i++ {
		st := tb.CtrlSharded.ShardStats(i)
		if st.Epoch != 2 || st.Failovers != 1 || st.Down {
			t.Fatalf("shard %d after total outage: %+v, want promoted at epoch 2", i, st)
		}
	}
}

// oracleDigest runs the plain soak workload (streams, link cut, leases — no
// controller failure) and digests everything the workload can observe:
// stream counters, backend stats, and the reconverged mapping table.
func oracleDigest(t *testing.T, ctrlShards int) []byte {
	t.Helper()
	cfg := shortRetry(cluster.DefaultConfig())
	cfg.Hosts = 3
	cfg.CtrlShards = ctrlShards
	cfg.Masq.PushDown = true
	cfg.Masq.GraceTTL = simtime.Ms(30)
	cfg.Masq.LeaseRenewEvery = simtime.Ms(1)
	cfg.Ctrl.LeaseTTL = simtime.Ms(20)
	cfg.Ctrl.Seed = 99
	tb := cluster.New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	mk := func(host int, last byte) *cluster.Node {
		n, err := tb.NewNode(cluster.ModeMasQ, host, vni, packet.NewIP(192, 168, 15, last))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	c0, s0 := mk(0, 1), mk(1, 2)
	c1, s1 := mk(2, 3), mk(1, 4)

	horizon := simtime.Ms(50)
	tb.Chaos.Arm(chaos.Plan{Seed: 99, Events: chaos.Outage(tb.HostLink(0),
		simtime.Time(simtime.Ms(16)), simtime.Time(simtime.Ms(18)))})
	tb.StartLeases(simtime.Time(horizon))
	pol := reconnect.Policy{
		MaxAttempts: 12,
		Backoff:     simtime.Us(500),
		MaxBackoff:  simtime.Ms(4),
		DialTimeout: simtime.Ms(5),
	}
	resA := perftest.StartResilientWriteBW(tb, c0, s0, 7800, 8192, horizon, pol)
	resB := perftest.StartResilientWriteBW(tb, c1, s1, 7801, 8192, horizon, pol)

	var table map[controller.Key]controller.Mapping
	tb.Eng.At(simtime.Time(simtime.Ms(45)), func() { table = tb.CtrlSharded.Dump(vni) })
	tb.Eng.Run()
	if !resA.Triggered() || !resB.Triggered() {
		t.Fatalf("streams stuck (ctrlShards=%d; pending: %v)", ctrlShards, tb.Eng.PendingProcs())
	}
	a, b := resA.Value(), resB.Value()

	var sum bytes.Buffer
	fmt.Fprintf(&sum, "A msgs=%d bytes=%d fatals=%d reconnects=%d gaveup=%v\n",
		a.Msgs, a.Bytes, a.Fatals, a.Reconnects, a.GaveUp)
	fmt.Fprintf(&sum, "B msgs=%d bytes=%d fatals=%d reconnects=%d gaveup=%v\n",
		b.Msgs, b.Bytes, b.Fatals, b.Reconnects, b.GaveUp)
	for _, n := range []*cluster.Node{c0, s0, c1, s1} {
		k, m, ok := n.Provider.(*masq.Frontend).VBond().Registration()
		got, inTable := table[k]
		fmt.Fprintf(&sum, "%s reg=%v mapped=%v match=%v\n", n.Name, ok, inTable, got == m)
	}
	for i, be := range tb.Backends {
		if be == nil {
			continue
		}
		fmt.Fprintf(&sum, "backend%d epoch=%d hits=%d misses=%d inval=%d renames=%d retries=%d renewals=%d/%d batches=%d/%d resyncs=%d\n",
			i, be.Epoch(), be.Stats.CacheHits, be.Stats.CacheMisses, be.Stats.Invalidations,
			be.Stats.Renames, be.Stats.QueryRetries,
			be.Stats.LeaseRenewals, be.Stats.LeaseRenewFailures,
			be.Stats.BatchRPCs, be.Stats.BatchedLookups, be.Stats.Resyncs)
	}
	fmt.Fprintf(&sum, "table=%d\n", len(table))
	return sum.Bytes()
}

// TestOneShardControllerMatchesSeedOracle is the seed-oracle guard: the
// one-shard controller with replication off must reproduce every
// workload-observable value (stream counters, backend stats, reconverged
// table) of testdata/ctrl_oracle.digest byte for byte. The fixture was
// recorded from the original single-controller implementation, before
// the one-shard Sharded front replaced it; CtrlShards 0 and 1 must both
// match it.
func TestOneShardControllerMatchesSeedOracle(t *testing.T) {
	want, err := os.ReadFile("testdata/ctrl_oracle.digest")
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		if got := oracleDigest(t, shards); !bytes.Equal(got, want) {
			t.Fatalf("CtrlShards=%d diverges from the seed oracle:\n--- oracle ---\n%s\n--- got ---\n%s",
				shards, want, got)
		}
	}
}
