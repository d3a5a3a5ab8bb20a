// Command masqctl builds a small multi-tenant MasQ scenario and dumps the
// control-plane state an operator would inspect: tenant security policies,
// the SDN controller's (VNI, vGID)→pGID mapping table, each host's
// RConntrack (RCT) table and VF grouping, and per-device statistics. It
// then exercises a rule change so the enforcement path is visible.
package main

import (
	"flag"
	"fmt"
	"sort"

	"masq"
	"masq/internal/cluster"
	"masq/internal/controller"
	mqbackend "masq/internal/masq"
	"masq/internal/simtime"
)

func main() {
	kill := flag.Bool("kill", true, "revoke a rule at the end to show RConntrack enforcement")
	doChaos := flag.Bool("chaos", true, "inject a link outage and a VM crash at the end and dump fault counters")
	ctrlCrash := flag.Bool("ctrlcrash", true, "crash and restart the controller at the end; show grace-mode renames, the epoch bump, and lease-driven reconvergence")
	doMigrate := flag.Bool("migrate", true, "live-migrate a VM to a spare host under a live RDMA stream; print the blackout breakdown and per-phase counters")
	ctrlFailover := flag.Bool("ctrlfailover", true, "run a 4-shard replicated controller, crash one shard's primary mid-workload, and dump the per-shard counter table")
	nrules := flag.Int("rules", 0, "bulk-load N synthetic rules into acme's chain first (e.g. 100000): the decision index keeps valid_conn and enforcement flat at any N")
	flag.Parse()

	cfg := masq.DefaultConfig()
	cfg.Trace = true // collect per-verb layer attribution while the scenario runs
	// Fast retry exhaustion so the chaos section's outage kills a QP in
	// a few simulated milliseconds instead of tens.
	cfg.RNIC.RetransTimeout = masq.Us(500)
	cfg.RNIC.MaxRetry = 3
	if *ctrlCrash {
		// The controller-crash demo needs push-down (so rename caches are
		// warm before the crash) and a grace TTL generous enough to cover
		// entries seeded when the scenario started.
		cfg.Masq.PushDown = true
		cfg.Masq.GraceTTL = masq.Ms(500)
	}
	if *doMigrate {
		cfg.Hosts = 3 // spare destination host for the live-migration demo
	}
	tb := masq.NewTestbed(cfg)
	acme := tb.AddTenant(100, "acme")
	globex := tb.AddTenant(200, "globex")
	acmeRule := tb.AllowAll(100)
	tb.AllowAll(200)
	if *nrules > 0 {
		// Synthetic chain in the 198.18/15 benchmarking space — disjoint from
		// the scenario's 10/8 VMs, so it only exercises scale, never verdicts.
		// One AddRules call: a bulk load indexes the batch in one pass and
		// notifies subscribers once, not once per rule.
		seed := uint32(1)
		next := func(m int) int {
			seed = seed*1664525 + 1013904223
			return int(seed>>8) % m
		}
		batch := make([]masq.Rule, 0, *nrules)
		for i := 0; i < *nrules; i++ {
			act := masq.Deny
			if next(2) == 0 {
				act = masq.Allow
			}
			src, _ := masq.ParseCIDR(fmt.Sprintf("198.18.%d.%d/%d", next(250), next(250), []int{16, 24, 32}[next(3)]))
			dst, _ := masq.ParseCIDR(fmt.Sprintf("198.19.%d.%d/%d", next(250), next(250), []int{16, 24, 32}[next(3)]))
			batch = append(batch, masq.Rule{
				Priority: 2 + next(1024), Proto: masq.ProtoRDMA, Src: src, Dst: dst, Action: act,
			})
		}
		acme.Policy.AddRules(batch)
	}

	mk := func(vni uint32, host int, ip masq.IP) *cluster.Node {
		n, err := tb.NewNode(masq.ModeMasQ, host, vni, ip)
		if err != nil {
			panic(err)
		}
		return n
	}
	a1, a2 := mk(100, 0, masq.NewIP(10, 0, 1, 1)), mk(100, 1, masq.NewIP(10, 0, 1, 2))
	g1, g2 := mk(200, 0, masq.NewIP(10, 0, 1, 1)), mk(200, 1, masq.NewIP(10, 0, 1, 2))

	connect := func(c, s *cluster.Node, port uint16) (*cluster.Endpoint, *cluster.Endpoint) {
		var cep, sep *cluster.Endpoint
		tb.Eng.Spawn("wire", func(p *simtime.Proc) {
			var err error
			if cep, err = c.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				panic(err)
			}
			if sep, err = s.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				panic(err)
			}
			se, ce := cluster.Pair(tb.Eng, sep, cep, port)
			if err := se.Wait(p); err != nil {
				panic(err)
			}
			if err := ce.Wait(p); err != nil {
				panic(err)
			}
		})
		tb.Eng.Run()
		return cep, sep
	}
	connect(a1, a2, 7000)
	gep, gsep := connect(g1, g2, 7001)

	fmt.Println("=== tenants ===")
	for _, t := range []*masq.Tenant{acme, globex} {
		fmt.Printf("VNI %-4d %-8s rules:\n", t.VNI, t.Name)
		rules := t.Policy.Rules()
		shown := rules
		if len(shown) > 8 {
			shown = shown[:8]
		}
		for _, r := range shown {
			fmt.Printf("  #%d prio %-3d proto %-4v %v -> %v : %v\n",
				r.ID, r.Priority, protoName(int(r.Proto)), r.Src, r.Dst, r.Action)
		}
		if len(rules) > len(shown) {
			fmt.Printf("  … and %d more\n", len(rules)-len(shown))
		}
		inf := t.Policy.IndexInfo()
		fmt.Printf("  decision index: %d rules over %d prefix-pair classes, %d buckets (%d incremental updates)\n",
			inf.Rules, inf.Pairs, inf.Buckets, inf.Updates)
	}

	fmt.Println("\n=== SDN controller mapping table (VNI, vGID) -> physical ===")
	dumpMappings(tb, 100)
	dumpMappings(tb, 200)
	fmt.Printf("controller stats: %d queries, %d updates\n", tb.Ctrl.Stats.Queries, tb.Ctrl.Stats.Updates)
	fmt.Printf("controller faults: %d timeouts (%d dropped replies)\n",
		tb.Ctrl.Stats.Timeouts, tb.Ctrl.Stats.DroppedReplies)
	fmt.Printf("controller pushes: %d sent, %d delivered, %d dropped\n",
		tb.Ctrl.Stats.NotifySent, tb.Ctrl.Stats.NotifyDelivered, tb.Ctrl.Stats.NotifyDropped)
	fmt.Printf("controller epoch %d: %d crashes, %d restarts; leases: %d renewed, %d expired; %d updates lost in crashes, %d queued pushes wiped\n",
		tb.Ctrl.Epoch(), tb.Ctrl.Stats.Crashes, tb.Ctrl.Stats.Restarts,
		tb.Ctrl.Stats.Renewals, tb.Ctrl.Stats.LeaseExpired,
		tb.Ctrl.Stats.LostUpdates, tb.Ctrl.Stats.NotifyWiped)
	fmt.Printf("controller subscriber queue depth HWMs: %v (overall %d)\n",
		tb.Ctrl.QueueHWMs(), tb.Ctrl.Stats.NotifyQueueHWM)
	fmt.Printf("controller batches: %d batch RPCs resolving %d keys, %d piggybacked renewals\n",
		tb.Ctrl.Stats.BatchQueries, tb.Ctrl.Stats.BatchedKeys, tb.Ctrl.Stats.BatchRenewals)

	fmt.Println("\n=== per-host MasQ backends ===")
	for i := range tb.Hosts {
		be := tb.Backend(i)
		fmt.Printf("host%d (%v):\n", i, tb.Hosts[i].IP)
		fmt.Printf("  rename cache: %d hits, %d misses, %d invalidations\n",
			be.Stats.CacheHits, be.Stats.CacheMisses, be.Stats.Invalidations)
		fmt.Printf("  renames applied: %d (%d recovered from stale mappings)\n",
			be.Stats.Renames, be.Stats.StaleRenames)
		fmt.Printf("  controller queries: %d retries, %d gave up\n",
			be.Stats.QueryRetries, be.Stats.QueryFailures)
		fmt.Printf("  epoch %d (%d bumps): %d stale pushes fenced, %d notify gaps, %d resyncs\n",
			be.Epoch(), be.Stats.EpochBumps, be.Stats.FencedNotifies,
			be.Stats.NotifyGaps, be.Stats.Resyncs)
		fmt.Printf("  leases: %d renewed, %d failed; grace: %d renames, %d expired, %d revalidated, %d reset\n",
			be.Stats.LeaseRenewals, be.Stats.LeaseRenewFailures,
			be.Stats.GraceRenames, be.Stats.GraceExpired,
			be.Stats.GraceRevalidated, be.Stats.GraceResets)
		fmt.Printf("  setup fast path: batches %d rpcs/%d lookups (max %d); pool %d hits, %d misses, %d refills, %d flushes; shared %d carriers, %d attaches, %d flushes\n",
			be.Stats.BatchRPCs, be.Stats.BatchedLookups, be.Stats.BatchMax,
			be.Stats.PoolHits, be.Stats.PoolMisses, be.Stats.PoolRefills, be.Stats.PoolFlushes,
			be.Stats.SharedCarriers, be.Stats.SharedAttaches, be.Stats.SharedFlushes)
		cts := be.CT.Stats
		fmt.Printf("  rule engine: verdict cache %d hits / %d misses; scans %d incremental, %d full, %d skipped; %d entries revalidated\n",
			cts.VerdictHits, cts.VerdictMisses, cts.IncrScans, cts.FullScans, cts.SkippedScans, cts.Revalidated)
		conns := be.CT.Conns()
		sort.Slice(conns, func(a, b int) bool { return conns[a].QPN < conns[b].QPN })
		fmt.Printf("  RCT table (%d established connections):\n", len(conns))
		for _, id := range conns {
			fmt.Printf("    %v\n", id)
		}
		fmt.Printf("  device: %d QPs live, tx %d pkts, rx %d pkts, %d retransmits\n",
			tb.Hosts[i].Dev.QPs(), tb.Hosts[i].Dev.Stats.TxPackets,
			tb.Hosts[i].Dev.Stats.RxPackets, tb.Hosts[i].Dev.Stats.Retransmits)
	}

	fmt.Println("\n=== wire diagnosis (Sec. 5): (physical IP, QPN) -> tenant virtual IP ===")
	for i := range tb.Hosts {
		be := tb.Backend(i)
		for qpn := uint32(1); qpn <= 8; qpn++ {
			if vni, vip, ok := be.WireInfo(qpn); ok {
				fmt.Printf("  packet to %v, DestQP %d  =>  tenant VNI %d, VM %v\n",
					tb.Hosts[i].IP, qpn, vni, vip)
			}
		}
	}

	fmt.Println("\n=== control-path trace: per-tenant-VM × per-verb layer self-times ===")
	for _, row := range tb.Trace.Aggregate() {
		fmt.Printf("  %-14s %-16s %-14s x%-3d %v\n", row.Actor, row.Verb, row.Layer, row.Count, row.Self)
	}
	// Rename and retry counts, summed over the backends: nonzero ones
	// only, in name order.
	counts := map[string]uint64{}
	for _, be := range tb.Backends {
		if be == nil {
			continue
		}
		counts["controller.query_retries"] += be.Stats.QueryRetries
		counts["rconnrename.cache_hits"] += be.Stats.CacheHits
		counts["rconnrename.cache_misses"] += be.Stats.CacheMisses
		counts["rconnrename.grace"] += be.Stats.GraceRenames
		counts["rconnrename.renames"] += be.Stats.Renames
		counts["rconnrename.stale"] += be.Stats.StaleRenames
	}
	var names []string
	for name, v := range counts {
		if v > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) > 0 {
		fmt.Println("trace counters:")
		for _, name := range names {
			fmt.Printf("  %-28s %d\n", name, counts[name])
		}
	}

	if *kill {
		fmt.Println("\n=== revoking acme's allow rule ===")
		acme.Policy.RemoveRule(acmeRule)
		tb.Eng.Run() // let the enforcement processes run
		for i := range tb.Hosts {
			be := tb.Backend(i)
			fmt.Printf("host%d: RCT now holds %d connections; resets performed: %d (%d incremental / %d full scans, %d entries revalidated)\n",
				i, len(be.CT.Conns()), be.CT.Stats.Resets,
				be.CT.Stats.IncrScans, be.CT.Stats.FullScans, be.CT.Stats.Revalidated)
		}
		fmt.Println("globex's connections are untouched (different tenant policy)")
	}

	if *doChaos {
		fmt.Println("\n=== chaos: link outage, then a VM crash ===")
		// Cut host0's wire long enough to exhaust the transport's
		// retries: globex's client QP dies, and the guest sees the full
		// async-event sequence (port down, QP fatal, port up).
		now := tb.Eng.Now()
		tb.Chaos.Arm(masq.ChaosPlan{Events: masq.ChaosOutage(tb.HostLink(0),
			now.Add(masq.Ms(1)), now.Add(masq.Ms(6)))})
		var guestEvents []masq.AsyncEvent
		tb.Eng.Spawn("guest-watcher", func(p *masq.Proc) {
			aev, ok := masq.AsAsync(gep.Dev)
			if !ok {
				return
			}
			for {
				ev, ok := aev.GetAsyncEventTimeout(p, masq.Ms(20))
				if !ok {
					return
				}
				guestEvents = append(guestEvents, ev)
			}
		})
		sent, failed := 0, 0
		tb.Eng.Spawn("g1-writer", func(p *masq.Proc) {
			peer := gsep.Info()
			for i := 0; ; i++ {
				if err := gep.QP.PostSend(p, masq.SendWR{
					WRID: uint64(i), Op: masq.WRWrite, LocalAddr: gep.Buf,
					LKey: gep.MR.LKey(), Len: 4096, RemoteAddr: peer.Addr, RKey: peer.RKey,
				}); err != nil {
					return
				}
				wc, ok := gep.SCQ.WaitTimeout(p, masq.Ms(100))
				if !ok || wc.Status != masq.WCSuccess {
					failed++
					return
				}
				sent++
			}
		})
		tb.Eng.Run()
		fmt.Printf("g1 writer: %d writes completed, then %d failed when retries exhausted\n", sent, failed)
		fmt.Println("g1 guest async events (via ibv_get_async_event):")
		for _, ev := range guestEvents {
			fmt.Printf("  %v\n", ev)
		}

		// Now kill g2's VM outright: its host backend flushes the RCT
		// and MRs and the controller unmaps the tenant endpoint — the
		// surviving peer is told nothing (it would discover the death by
		// retry exhaustion, exactly like the outage above).
		before := len(tb.Ctrl.Dump(200))
		if err := tb.CrashNode(g2); err != nil {
			panic(err)
		}
		tb.Eng.Run()
		fmt.Printf("crashed g2: controller VNI-200 mappings %d -> %d\n", before, len(tb.Ctrl.Dump(200)))

		fmt.Println("\n=== fault & recovery counters ===")
		fmt.Printf("injector: %d link transitions, %d loss windows, %d switch transitions, %d crashes\n",
			tb.Chaos.Stats.LinkTransitions, tb.Chaos.Stats.LossWindows,
			tb.Chaos.Stats.SwitchTransitions, tb.Chaos.Stats.Crashes)
		for _, line := range tb.Chaos.Trace() {
			fmt.Printf("  trace: %s\n", line)
		}
		for i, l := range tb.Links {
			st := l.Stats()
			fmt.Printf("link%d: %d delivered, %d dropped (%d link-down, %d loss-model, %d hook)\n",
				i, st.Delivered, st.Dropped, st.DroppedDown, st.DroppedLoss, st.DroppedHook)
		}
		for i := range tb.Hosts {
			be := tb.Backend(i)
			fmt.Printf("host%d: %d device async events; backend: %d QP fatals, %d async cleanups, %d VM crashes\n",
				i, tb.Hosts[i].Dev.Stats.AsyncEvents,
				be.Stats.FatalEvents, be.Stats.AsyncCleanups, be.Stats.Crashes)
		}
		for _, n := range []*cluster.Node{a1, a2, g1, g2} {
			st := n.OOB.Stats
			fmt.Printf("oob %-3s: %d SYN retx, %d DATA retx, %d dup DATA, %d resets\n",
				n.Name, st.SynRetx, st.DataRetx, st.DupData, st.Resets)
		}
	}

	if *ctrlCrash {
		fmt.Println("\n=== controller crash: epochs, leases, grace mode ===")
		// Re-allow acme (the enforcement demo revoked its rule) so the
		// in-the-dark connection below passes the security policy.
		tb.AllowAll(100)
		// Pre-build the endpoints now — MR pinning costs milliseconds of
		// virtual time — so only the QP state walk lands inside the outage.
		var dep, dsep *cluster.Endpoint
		tb.Eng.Spawn("dark-setup", func(p *simtime.Proc) {
			var err error
			if dep, err = a1.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				panic(err)
			}
			if dsep, err = a2.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				panic(err)
			}
		})
		tb.Eng.Run()

		now := tb.Eng.Now()
		crashAt := now.Add(masq.Ms(1))
		restartAt := crashAt.Add(masq.Ms(10))
		epochBefore := tb.Ctrl.Epoch()
		tb.StartLeases(restartAt.Add(masq.Ms(20)))
		tb.CrashController(crashAt, restartAt)

		var downSeen, graced bool
		tb.Eng.Spawn("connect-in-the-dark", func(p *simtime.Proc) {
			p.Sleep(crashAt.Add(masq.Ms(2)).Sub(p.Now()))
			be := tb.Backend(0)
			downSeen = be.CtrlDown()
			before := be.Stats.GraceRenames
			se, ce := cluster.Pair(tb.Eng, dsep, dep, 7002)
			if err := se.Wait(p); err != nil {
				panic(err)
			}
			if err := ce.Wait(p); err != nil {
				panic(err)
			}
			graced = be.Stats.GraceRenames > before
		})
		// Leases lazily expire once renewals stop, so read the reconverged
		// table mid-run rather than after the engine drains.
		var acmeMaps, globexMaps int
		tb.Eng.At(restartAt.Add(masq.Ms(10)), func() {
			acmeMaps, globexMaps = len(tb.Ctrl.Dump(100)), len(tb.Ctrl.Dump(200))
		})
		tb.Eng.Run()

		fmt.Printf("controller dark for [%v, %v); leases renew every %v\n",
			crashAt, restartAt, cfg.Masq.LeaseRenewEvery)
		fmt.Printf("backend had detected the outage before connecting: %v\n", downSeen)
		fmt.Printf("a1 -> a2 RC connection established in the dark; rename grace-served from cache: %v\n", graced)
		fmt.Printf("controller epoch %d -> %d (%d crash, %d restart); restarted empty, rebuilt by lease re-registration\n",
			epochBefore, tb.Ctrl.Epoch(), tb.Ctrl.Stats.Crashes, tb.Ctrl.Stats.Restarts)
		fmt.Printf("table 10 ms after restart: VNI 100 has %d mappings, VNI 200 has %d\n",
			acmeMaps, globexMaps)
		if *doChaos {
			fmt.Println("(g2 was crashed earlier and stayed out — reconvergence resurrects no ghosts)")
		}
		for i := range tb.Hosts {
			be := tb.Backend(i)
			fmt.Printf("host%d: epoch %d (%d bumps); grace: %d renames, %d revalidated, %d reset; leases: %d renewed, %d failed\n",
				i, be.Epoch(), be.Stats.EpochBumps, be.Stats.GraceRenames,
				be.Stats.GraceRevalidated, be.Stats.GraceResets,
				be.Stats.LeaseRenewals, be.Stats.LeaseRenewFailures)
		}
	}
	if *doMigrate {
		fmt.Println("\n=== transparent live migration: a2 -> host2 under a live stream ===")
		tb.AllowAll(100) // earlier sections may have revoked acme's rule
		var mc, ms *cluster.Endpoint
		tb.Eng.Spawn("mig-setup", func(p *simtime.Proc) {
			var err error
			if mc, err = a1.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				panic(err)
			}
			if ms, err = a2.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				panic(err)
			}
			se, ce := cluster.Pair(tb.Eng, ms, mc, 7003)
			if err := se.Wait(p); err != nil {
				panic(err)
			}
			if err := ce.Wait(p); err != nil {
				panic(err)
			}
		})
		tb.Eng.Run()

		// a1 streams 24 distinct 1 KiB messages into a2 while a2's VM moves
		// host1 -> host2 mid-stream. Both sides count completions: the move
		// must lose and duplicate nothing.
		const total, msgLen = 24, 1024
		sentOK, recvOK := 0, 0
		tb.Eng.Spawn("mig-server", func(p *simtime.Proc) {
			for i := 0; i < total; i++ {
				if err := ms.QP.PostRecv(p, masq.RecvWR{
					WRID: uint64(i), Addr: ms.Buf + uint64(i*msgLen), LKey: ms.MR.LKey(), Len: msgLen,
				}); err != nil {
					panic(err)
				}
			}
			for i := 0; i < total; i++ {
				wc, ok := ms.RCQ.WaitTimeout(p, masq.Ms(100))
				if !ok {
					return
				}
				if wc.Status == masq.WCSuccess {
					recvOK++
				}
			}
		})
		tb.Eng.Spawn("mig-client", func(p *simtime.Proc) {
			p.Sleep(masq.Us(50)) // let the receives land first
			for i := 0; i < total; i++ {
				if err := mc.QP.PostSend(p, masq.SendWR{
					WRID: uint64(i), Op: masq.WRSend,
					LocalAddr: mc.Buf + uint64(i*msgLen), LKey: mc.MR.LKey(), Len: msgLen,
				}); err != nil {
					return
				}
				p.Sleep(masq.Us(250))
			}
			for i := 0; i < total; i++ {
				wc, ok := mc.SCQ.WaitTimeout(p, masq.Ms(100))
				if !ok {
					return
				}
				if wc.Status == masq.WCSuccess {
					sentOK++
				}
			}
		})
		var mrep *masq.MigrateReport
		var merr error
		tb.Eng.Spawn("migrator", func(p *simtime.Proc) {
			p.Sleep(masq.Ms(1)) // land in the middle of the stream
			mrep, merr = tb.LiveMigrateNode(p, a2, 2, masq.MigrateOpts{
				DirtyRate:         0.5e9, // guest dirties at half the copy rate
				CopyBandwidth:     1e9,
				StopCopyThreshold: 8 << 10,
			})
		})
		tb.Eng.Run()
		if merr != nil {
			panic(merr)
		}
		fmt.Printf("pre-copy: %d rounds, %d KB shipped in %v (VM live); final dirty set %d KB\n",
			mrep.PreCopyRounds, mrep.PreCopyBytes/1024, mrep.PreCopyTime, mrep.StopCopyBytes/1024)
		fmt.Printf("blackout %v = freeze %v + stop-copy %v + restore %v + commit %v\n",
			mrep.Blackout, mrep.FreezeTime, mrep.StopCopyTime, mrep.RestoreTime, mrep.CommitTime)
		fmt.Printf("carried across: %d QPs, %d MRs, %d tracked connections\n", mrep.QPs, mrep.MRs, mrep.Conns)
		fmt.Printf("stream across the move: %d/%d sends completed, %d/%d receives completed — zero lost, zero duplicated\n",
			sentOK, total, recvOK, total)
		srcBE, dstBE, peerBE := tb.Backend(1), tb.Backend(2), tb.Backend(0)
		fmt.Printf("src host1: %d migration out, %d QP-pool flushes; dst host2: %d migration in\n",
			srcBE.Stats.MigrOut, srcBE.Stats.PoolFlushes, dstBE.Stats.MigrIn)
		fmt.Printf("peer host0: %d QPs suspended, %d renamed in place, %d resumed with PSN replay\n",
			peerBE.Stats.MigrSuspendedQPs, peerBE.Stats.MigrRenames, peerBE.Stats.MigrResumes)
		fmt.Printf("controller: %d suspend pushes, %d move commits; a2 now served by host%d\n",
			tb.Ctrl.Stats.Suspends, tb.Ctrl.Stats.Moves, 2)
	}

	if *ctrlFailover {
		fmt.Println("\n=== sharded controller: per-shard failover on a fresh 4-shard testbed ===")
		// The main scenario runs a one-shard controller; the four-shard
		// demo gets its own testbed so the two deployments are shown side
		// by side.
		cfg2 := masq.DefaultConfig()
		cfg2.Hosts = 3
		cfg2.CtrlShards = 4
		cfg2.Masq.PushDown = true
		cfg2.Masq.LeaseRenewEvery = masq.Ms(1)
		cfg2.Ctrl.LeaseTTL = masq.Ms(20)
		cfg2.Ctrl.Replicate = true
		cfg2.Ctrl.ReplDelay = masq.Us(20)
		cfg2.Ctrl.FailoverDetect = masq.Ms(2)
		tb2 := masq.NewTestbed(cfg2)
		tb2.AddTenant(100, "acme")
		tb2.AllowAll(100)
		mk2 := func(host int, last byte) *cluster.Node {
			n, err := tb2.NewNode(masq.ModeMasQ, host, 100, masq.NewIP(10, 0, 2, last))
			if err != nil {
				panic(err)
			}
			return n
		}
		f1, f2, f3, f4 := mk2(0, 1), mk2(1, 2), mk2(2, 3), mk2(1, 4)
		tb2.Eng.Spawn("shard-wire", func(p *simtime.Proc) {
			for _, pair := range [][2]*cluster.Node{{f1, f2}, {f3, f4}} {
				c, err := pair[0].Setup(p, cluster.DefaultEndpointOpts())
				if err != nil {
					panic(err)
				}
				s, err := pair[1].Setup(p, cluster.DefaultEndpointOpts())
				if err != nil {
					panic(err)
				}
				se, ce := cluster.Pair(tb2.Eng, s, c, 7500)
				if err := se.Wait(p); err != nil {
					panic(err)
				}
				if err := ce.Wait(p); err != nil {
					panic(err)
				}
			}
		})
		tb2.Eng.Run()
		base := tb2.Eng.Now() // the wiring above burned virtual time
		tb2.StartLeases(base.Add(masq.Ms(40)))

		vb := f1.Provider.(*mqbackend.Frontend).VBond()
		key := controller.Key{VNI: vb.VNI(), VGID: vb.GID()}
		victim := tb2.CtrlSharded.Owner(key)
		tb2.Eng.At(base.Add(masq.Ms(10)), func() { tb2.CtrlSharded.CrashShard(victim) })

		// Snapshot the per-shard counters mid-run, with renewals still
		// live — after the engine drains, leases have lazily expired.
		shards := tb2.CtrlSharded.NumShards()
		stats := make([]controller.ShardStats, shards)
		tb2.Eng.At(base.Add(masq.Ms(30)), func() {
			for i := range stats {
				stats[i] = tb2.CtrlSharded.ShardStats(i)
			}
		})
		tb2.Eng.Run()

		fmt.Printf("4 shards, replicated standbys (repl delay %v, failover detect %v)\n",
			cfg2.Ctrl.ReplDelay, cfg2.Ctrl.FailoverDetect)
		fmt.Printf("crashed shard %d's primary at 10 ms (it owns f1's registration); standby promoted at 12 ms\n", victim)
		fmt.Println("per-shard counters 20 ms after the crash:")
		fmt.Println("  shard  epoch  leases  queueHWM  replLag  fenced  failovers  down")
		for i, st := range stats {
			mark := ""
			if i == victim {
				mark = "  <- failed over"
			}
			fmt.Printf("  %5d  %5d  %6d  %8d  %7d  %6d  %9d  %5v%s\n",
				i, st.Epoch, st.Leases, st.QueueHWM, st.ReplLag, st.FencedWrites,
				st.Failovers, st.Down, mark)
		}
		for i := range tb2.Hosts {
			be := tb2.Backend(i)
			fmt.Printf("host%d: victim-shard epoch %d (%d bumps); leases %d renewed, %d failed\n",
				i, be.ShardEpoch(victim), be.Stats.EpochBumps,
				be.Stats.LeaseRenewals, be.Stats.LeaseRenewFailures)
		}
		fmt.Println("other shards kept epoch 1: their connections never noticed")
	}
}

func protoName(p int) string {
	switch p {
	case 1:
		return "tcp"
	case 2:
		return "rdma"
	}
	return "any"
}

func dumpMappings(tb *masq.Testbed, vni uint32) {
	dump := tb.Ctrl.Dump(vni)
	keys := make([]controller.Key, 0, len(dump))
	for k := range dump {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].VGID.String() < keys[j].VGID.String() })
	for _, k := range keys {
		m := dump[k]
		fmt.Printf("  VNI %-4d %-22v -> pGID %-22v host %v\n", k.VNI, k.VGID, m.PGID, m.PIP)
	}
}
