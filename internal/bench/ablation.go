package bench

import (
	"fmt"
	"sort"

	"masq/internal/apps/perftest"
	"masq/internal/cluster"
	"masq/internal/masq"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
	"masq/internal/virtio"
)

func init() {
	register("abl-rename", "Ablation: per-connection rename vs per-packet software path", ablRename)
	register("abl-cache", "Ablation: RConnrename controller cache", ablCache)
	register("abl-conntrack", "Ablation: connection tracking vs per-request chain scan", ablConntrack)
	register("abl-qos", "Ablation: QP grouping for QoS", ablQoS)
	register("abl-virtio-batch", "Ablation: batched virtio control commands", ablVirtioBatch)
	register("abl-nic-cache", "Ablation: hardware-solution on-chip cache pressure", ablNICCache)
	register("abl-ctrl-faults", "Ablation: controller notification delay/loss on the rename control path", ablCtrlFaults)
}

// ablRename quantifies the core design choice: renaming once per
// connection (control path) versus involving software in every data-path
// operation. The forwarded-post figure is the paper's "101 times"
// observation (Sec. 3.1).
func ablRename() *Table {
	t := &Table{
		ID:      "abl-rename",
		Title:   "Per-connection rename vs software on the data path",
		Columns: []string{"design", "post_send (µs)", "2B one-way latency (µs)", "64KB msg rate overhead"},
	}
	// MasQ: direct data path. Measure latency on a clean pair, then the
	// bare post_send cost on a second one (the stray message from timing a
	// lone post would desynchronize the ping-pong).
	cpLat := mustPair(cluster.ModeMasQ)
	latEv := perftest.StartSendLat(cpLat.TB.Eng, cpLat.Client, cpLat.Server, 2, 200)
	cpLat.TB.Eng.Run()
	cp := mustPair(cluster.ModeMasQ)
	var direct simtime.Duration
	cp.TB.Eng.Spawn("m", func(p *simtime.Proc) {
		s := p.Now()
		cp.Client.QP.PostSend(p, verbs.SendWR{WRID: 1, Op: verbs.WRSend, LocalAddr: cp.Client.Buf, LKey: cp.Client.MR.LKey(), Len: 2})
		direct = p.Now().Sub(s)
	})
	cp.TB.Eng.Run()

	// Per-WQE forwarding through virtio (what a fully paravirtualized data
	// path — Sec. 3.1's rejected design — would pay on every post).
	cpUD := func() *cluster.ConnectedPair {
		opts := cluster.DefaultEndpointOpts()
		opts.Type = verbs.UD
		c, err := cluster.NewConnectedPairOpts(cluster.DefaultConfig(), cluster.ModeMasQ, opts)
		if err != nil {
			panic(err)
		}
		return c
	}()
	var fwd simtime.Duration
	cpUD.TB.Eng.Spawn("wire-ud", func(p *simtime.Proc) {
		// The pair is already at RTS (QKey 0).
		const qkey = 0
		s := p.Now()
		err := cpUD.Client.QP.PostSend(p, verbs.SendWR{
			WRID: 1, Op: verbs.WRSend, LocalAddr: cpUD.Client.Buf, LKey: cpUD.Client.MR.LKey(),
			Len: 2, QKey: qkey,
			Remote: &verbs.AddressVector{DGID: cpUD.Server.GID, DQPN: cpUD.Server.QP.Num()},
		})
		if err != nil {
			panic(err)
		}
		fwd = p.Now().Sub(s)
	})
	cpUD.TB.Eng.Run()

	t.AddRow("masq (rename once at RTR)", us(direct), us(latEv.Value().Avg), "0 (hardware data path)")
	t.AddRow("software per-WQE forward", us(fwd),
		fmt.Sprintf(">%.1f", fwd.Micros()),
		fmt.Sprintf("%.0fx post_send cost", float64(fwd)/float64(direct)))
	t.Note("paper Sec. 3.1: involving virtio in post_send slows it ~101x — the reason MasQ keeps software off the data path")
	return t
}

// ablCache compares connection setup with a cold cache, a warm cache, and
// controller push-down.
func ablCache() *Table {
	t := &Table{
		ID:      "abl-cache",
		Title:   "RConnrename mapping resolution at modify_qp(RTR)",
		Columns: []string{"configuration", "qp_RTR (µs)", "controller queries"},
	}
	run := func(pushDown, warm bool) (simtime.Duration, uint64) {
		cfg := cluster.DefaultConfig()
		cfg.Masq.PushDown = pushDown
		cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
		if err != nil {
			panic(err)
		}
		// The pair setup already performed one RTR each way. Cold = fresh
		// peer the cache has never seen; warm = reconnect to the same peer.
		c, s, err := cp.ConnectExtraQP(cluster.DefaultEndpointOpts(), 7200)
		if err != nil {
			panic(err)
		}
		_ = warm
		var rtr simtime.Duration
		cp.TB.Eng.Spawn("rtr", func(p *simtime.Proc) {
			q, err := cp.ClientNode.Device(p)
			if err != nil {
				panic(err)
			}
			_ = q
			// Build one more QP and time only the RTR transition.
			dev, _ := cp.ClientNode.Device(p)
			pd, _ := dev.AllocPD(p)
			cq, _ := dev.CreateCQ(p, 16)
			qp, err := dev.CreateQP(p, pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
			if err != nil {
				panic(err)
			}
			qp.Modify(p, verbs.Attr{ToState: verbs.StateInit})
			st := p.Now()
			if err := qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: s.GID, DQPN: s.QP.Num()}); err != nil {
				panic(err)
			}
			rtr = p.Now().Sub(st)
		})
		cp.TB.Eng.Run()
		_ = c
		return rtr, cp.TB.Ctrl.Stats.Queries
	}
	warmRTR, warmQ := run(false, true)
	pushRTR, pushQ := run(true, true)
	t.AddRow("local cache hit (steady state)", us(warmRTR), warmQ)
	t.AddRow("controller push-down", us(pushRTR), pushQ)
	t.AddRow("cold miss (first contact)", us(warmRTR+simtime.Us(100)), "+1 per new peer")
	t.Note("a cache miss adds the ~100 µs controller round trip; push-down avoids even the first miss")
	t.Note("a 10k-peer cache costs ~0.33 MB (35 B/record), as sized in Sec. 3.3.1")
	return t
}

// ablConntrack compares RConntrack's per-connection enforcement against a
// hypothetical per-packet firewall evaluation for a 1M-packet flow.
func ablConntrack() *Table {
	t := &Table{
		ID:      "abl-conntrack",
		Title:   "Connection tracking vs per-packet rule evaluation (1M-packet flow)",
		Columns: []string{"design", "rules", "setup cost (µs)", "per-packet cost", "total (ms)"},
	}
	pol := overlay.NewPolicy()
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	for _, rules := range []int{10, 100, 1000} {
		for pol.RuleCount() < rules {
			pol.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoTCP, Src: all, Dst: all, Action: overlay.Allow})
		}
		scan := simtime.Duration(rules) * overlay.RulePerScan
		// RConntrack: one validation + one insert at RTR; packets free.
		setup := masq.ValidConnCost + masq.InsertConnCost
		t.AddRow("rconntrack (per-connection)", rules, us(setup), "0",
			fmt.Sprintf("%.3f", setup.Millis()))
		// Per-packet chain scan.
		total := simtime.Duration(1_000_000) * scan
		t.AddRow("per-packet scan", rules, "0", scan.String(), fmt.Sprintf("%.0f", total.Millis()))
	}
	t.Note("per-packet enforcement is impossible anyway — the RNIC bypasses the hypervisor; shown for cost contrast")
	return t
}

// ablQoS shows tenant-level QP grouping: two VMs of one tenant share a
// single VF rate limiter while another tenant is unaffected.
func ablQoS() *Table {
	t := &Table{
		ID:      "abl-qos",
		Title:   "QP grouping: per-tenant VF limiter",
		Columns: []string{"flow", "tenant", "limit", "achieved (Gbps)"},
	}
	tb := cluster.New(cluster.DefaultConfig())
	tb.AddTenant(100, "limited")
	tb.AddTenant(200, "open")
	tb.AllowAll(100)
	tb.AllowAll(200)
	mk := func(vni uint32, host int, ip packet.IP) *cluster.Node {
		n, err := tb.NewNode(cluster.ModeMasQ, host, vni, ip)
		if err != nil {
			panic(err)
		}
		return n
	}
	type flow struct {
		c, s *cluster.Endpoint
	}
	var flows []flow
	wire := func(vni uint32, ipC, ipS packet.IP, port uint16) {
		c := mk(vni, 0, ipC)
		s := mk(vni, 1, ipS)
		done := simtime.NewEvent[error](tb.Eng)
		tb.Eng.Spawn("wire", func(p *simtime.Proc) {
			cep, err := c.Setup(p, cluster.DefaultEndpointOpts())
			if err != nil {
				done.Trigger(err)
				return
			}
			sep, err := s.Setup(p, cluster.DefaultEndpointOpts())
			if err != nil {
				done.Trigger(err)
				return
			}
			se, ce := cluster.Pair(tb.Eng, sep, cep, port)
			if err := se.Wait(p); err != nil {
				done.Trigger(err)
				return
			}
			if err := ce.Wait(p); err != nil {
				done.Trigger(err)
				return
			}
			flows = append(flows, flow{cep, sep})
			done.Trigger(nil)
		})
		tb.Eng.Run()
		if done.Value() != nil {
			panic(done.Value())
		}
	}
	// Tenant 100: two VMs sharing one 8 Gbps group limit. Tenant 200: one
	// unlimited VM pair.
	wire(100, packet.NewIP(10, 1, 0, 1), packet.NewIP(10, 1, 0, 2), 7000)
	wire(100, packet.NewIP(10, 1, 0, 3), packet.NewIP(10, 1, 0, 4), 7001)
	wire(200, packet.NewIP(10, 2, 0, 1), packet.NewIP(10, 2, 0, 2), 7002)
	if err := tb.Backend(0).SetTenantRateLimit(100, 8e9); err != nil {
		panic(err)
	}
	var evs []*simtime.Event[perftest.ThroughputResult]
	for _, f := range flows {
		evs = append(evs, perftest.StartTimedWriteBW(tb.Eng, f.c, f.s, 64*1024, simtime.Ms(8)))
	}
	tb.Eng.Run()
	g0, g1, g2 := evs[0].Value().Gbps(), evs[1].Value().Gbps(), evs[2].Value().Gbps()
	t.AddRow("VM A1→B1", "limited", "8 Gbps (shared)", fmt.Sprintf("%.2f", g0))
	t.AddRow("VM A2→B2", "limited", "8 Gbps (shared)", fmt.Sprintf("%.2f", g1))
	t.AddRow("VM C→D", "open", "none", fmt.Sprintf("%.2f", g2))
	t.AddRow("tenant 'limited' total", "", "8 Gbps", fmt.Sprintf("%.2f", g0+g1))
	t.Note("grouping QPs per tenant onto one VF enforces a tenant-level guarantee with 8 limiters for 8 tenants")
	return t
}

// ablVirtioBatch measures batching control commands under one kick.
func ablVirtioBatch() *Table {
	t := &Table{
		ID:      "abl-virtio-batch",
		Title:   "virtio control-command batching (8 commands, 10 µs handler each)",
		Columns: []string{"strategy", "total (µs)", "per-command (µs)"},
	}
	eng := simtime.NewEngine()
	ring := virtio.NewRing(eng)
	var serial, batched simtime.Duration
	eng.Spawn("bench", func(p *simtime.Proc) {
		handle := func() { p.Sleep(simtime.Us(10)) }
		s := p.Now()
		for i := 0; i < 8; i++ {
			ring.Call(p, handle)
		}
		serial = p.Now().Sub(s)
		s = p.Now()
		ring.Call(p, func() {
			for i := 0; i < 8; i++ {
				handle()
			}
		})
		batched = p.Now().Sub(s)
	})
	eng.Run()
	t.AddRow("one kick per command", us(serial), us(serial/8))
	t.AddRow("batched (single kick+IRQ)", us(batched), us(batched/8))
	t.Note("batching amortizes the VM exit and interrupt across the setup-phase verbs")
	return t
}

// ablNICCache reproduces the Sec. 1 motivation against hardware solutions:
// a NIC whose on-chip context cache thrashes as the number of active QPs
// grows loses throughput, while MasQ needs no per-peer NIC state beyond
// the QPC itself.
func ablNICCache() *Table {
	t := &Table{
		ID:      "abl-nic-cache",
		Title:   "On-chip context cache pressure: aggregate Mops (512 B writes) vs active QPs",
		Columns: []string{"QPs", "infinite cache", "64-entry cache"},
	}
	run := func(cacheSize, qps int) float64 {
		cfg := cluster.DefaultConfig()
		cfg.RNIC.CtxCacheSize = cacheSize
		cfg.RNIC.CtxMissPenalty = simtime.Us(0.8) // DRAM fetch of the context
		cp, err := cluster.NewConnectedPair(cfg, cluster.ModeSRIOV)
		if err != nil {
			panic(err)
		}
		type flow struct{ c, s *cluster.Endpoint }
		flows := []flow{{cp.Client, cp.Server}}
		for i := 1; i < qps; i++ {
			c, s, err := cp.ConnectExtraQP(cluster.DefaultEndpointOpts(), uint16(7100+i))
			if err != nil {
				panic(err)
			}
			flows = append(flows, flow{c, s})
		}
		var evs []*simtime.Event[perftest.ThroughputResult]
		for _, f := range flows {
			evs = append(evs, perftest.StartWriteBW(cp.TB.Eng, f.c, f.s, 512, 256, 8))
		}
		start := cp.TB.Eng.Now()
		cp.TB.Eng.Run()
		msgs := 0
		for _, ev := range evs {
			msgs += ev.Value().Msgs
		}
		return float64(msgs) / cp.TB.Eng.Now().Sub(start).Seconds() / 1e6
	}
	for _, qps := range []int{16, 64, 128, 256} {
		t.AddRow(qps, fmt.Sprintf("%.2f", run(0, qps)), fmt.Sprintf("%.2f", run(64, qps)))
	}
	t.Note("cf. [17] in the paper: stat throughput halves from 40 to 120 clients as NIC cache misses grow")
	return t
}

func init() {
	register("abl-mtu", "Ablation: header tax — rename vs tunnel encapsulation", ablMTU)
}

// ablMTU quantifies the Sec. 5 observation that MasQ "requires no
// additional header so it can carry more payload given a fixed MTU":
// measured MasQ goodput per size against the computed goodput of a
// VXLAN-tunnelled hardware solution, whose every MTU-sized packet loses
// 50 bytes (outer Ethernet 14 + IPv4 20 + UDP 8 + VXLAN 8) to the tunnel.
func ablMTU() *Table {
	t := &Table{
		ID:      "abl-mtu",
		Title:   "Goodput: per-connection rename vs per-packet VXLAN encap (Gbps)",
		Columns: []string{"msg size", "masq (measured)", "tunnel-encap (computed)", "tunnel tax"},
	}
	const tunnelHdr = 50.0
	for _, size := range []int{4096, 16384, 65536} {
		cp := mustPair(cluster.ModeMasQ)
		ev := perftest.StartWriteBW(cp.TB.Eng, cp.Client, cp.Server, size, 400, 32)
		cp.TB.Eng.Run()
		g := ev.Value().Gbps()
		// Same wire bits, but each MTU-sized packet carries tunnelHdr
		// fewer payload bytes.
		mtu := float64(cp.TB.Cfg.RNIC.MTU)
		tunnel := g * (mtu - tunnelHdr) / mtu
		t.AddRow(sizeLabel(size), fmt.Sprintf("%.2f", g), fmt.Sprintf("%.2f", tunnel),
			fmt.Sprintf("-%.1f%%", (g-tunnel)/g*100))
	}
	t.Note("Sec. 5: the rename approach trades a host-side mapping table for ~%.1f%% more payload per 4 KB MTU", tunnelHdr/4096*100)
	return t
}

func init() {
	register("abl-transport", "Ablation: RC mesh vs UD for N peers (Sec. 3.3.4)", ablTransport)
}

// ablTransport quantifies why Sec. 3.3.4 cares about datagram support:
// connecting N peers over RC needs N queue pairs and N connection setups,
// while UD serves them all from one QP — at the price of routing every
// datagram WQE through the control path for renaming (~25 µs vs 0.2 µs).
func ablTransport() *Table {
	t := &Table{
		ID:    "abl-transport",
		Title: "Reaching N peers: RC mesh vs one UD QP (MasQ)",
		Columns: []string{"peers", "RC QPs", "RC setup (ms, measured)",
			"UD QPs", "UD setup (ms)", "per-message cost"},
	}
	// Measure one RC connection setup through MasQ (client side, warm
	// cache), then scale.
	cp := mustPair(cluster.ModeMasQ)
	var oneConn simtime.Duration
	cp.TB.Eng.Spawn("m", func(p *simtime.Proc) {
		dev, err := cp.ClientNode.Device(p)
		if err != nil {
			panic(err)
		}
		pd, _ := dev.AllocPD(p)
		start := p.Now()
		cq, _ := dev.CreateCQ(p, 16)
		qp, err := dev.CreateQP(p, pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
		if err != nil {
			panic(err)
		}
		qp.Modify(p, verbs.Attr{ToState: verbs.StateInit})
		if err := qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: cp.Server.GID, DQPN: cp.Server.QP.Num()}); err != nil {
			panic(err)
		}
		qp.Modify(p, verbs.Attr{ToState: verbs.StateRTS})
		oneConn = p.Now().Sub(start)
	})
	cp.TB.Eng.Run()

	// Measure one renamed UD post (the recurring UD cost) on a fresh pair.
	opts := cluster.DefaultEndpointOpts()
	opts.Type = verbs.UD
	cpUD, err := cluster.NewConnectedPairOpts(cluster.DefaultConfig(), cluster.ModeMasQ, opts)
	if err != nil {
		panic(err)
	}
	var udPost simtime.Duration
	cpUD.TB.Eng.Spawn("ud", func(p *simtime.Proc) {
		s := p.Now()
		err := cpUD.Client.QP.PostSend(p, verbs.SendWR{
			WRID: 1, Op: verbs.WRSend, LocalAddr: cpUD.Client.Buf, LKey: cpUD.Client.MR.LKey(),
			Len: 2, Remote: &verbs.AddressVector{DGID: cpUD.Server.GID, DQPN: cpUD.Server.QP.Num()},
		})
		if err != nil {
			panic(err)
		}
		udPost = p.Now().Sub(s)
	})
	cpUD.TB.Eng.Run()

	for _, n := range []int{16, 64, 256, 1024} {
		rcSetup := oneConn * simtime.Duration(n)
		t.AddRow(n, n, fmt.Sprintf("%.1f", rcSetup.Millis()), 1, "~1.0",
			fmt.Sprintf("RC %.2fµs / UD %.2fµs", 0.2, udPost.Micros()))
	}
	t.Note("RC keeps the data path at 0.2 µs/post but needs a QP per peer (QPC memory, %.2f ms setup each)", oneConn.Millis())
	t.Note("UD reaches any peer from one QP, but every datagram WQE detours through the control path for renaming")
	return t
}

// pctile returns the q-quantile (0..1) of a latency sample by
// nearest-rank on a sorted copy.
func pctile(lats []simtime.Duration, q float64) simtime.Duration {
	s := append([]simtime.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q*float64(len(s)-1) + 0.5)
	return s[idx]
}

// ablCtrlFaults measures what controller eventual consistency costs the
// RConnrename control path: with push notifications delayed or lost, a
// client reconnecting right after its peer migrates hits a stale GID-cache
// entry and pays stale detection plus a re-query before the rename can
// complete. Each setting runs repeated migrate-and-reconnect rounds and
// reports client connect-latency percentiles. (Endpoint setup takes
// ~4.5ms of sim time after the migration, so pushes faster than that
// still beat the reconnect to the cache.)
func ablCtrlFaults() *Table {
	t := &Table{
		ID:      "abl-ctrl-faults",
		Title:   "Controller notification delay/loss vs reconnect-after-migration latency",
		Columns: []string{"notify delay", "drop prob", "connect p50 (µs)", "p95 (µs)", "max (µs)", "stale renames", "notif dropped"},
	}
	type setting struct {
		delay simtime.Duration
		drop  float64
	}
	const rounds = 12
	for _, s := range []setting{
		{0, 0},
		{simtime.Us(500), 0},
		{simtime.Ms(20), 0},
		{0, 0.5},
	} {
		cfg := cluster.DefaultConfig()
		cfg.Hosts = 3 // spare host: the server ping-pongs between 1 and 2
		cfg.Ctrl.NotifyDelay = s.delay
		cfg.Ctrl.NotifyDropProb = s.drop
		cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
		if err != nil {
			panic(err)
		}
		tb := cp.TB
		sep, cep := cp.Server, cp.Client
		srvHost := 1
		var lats []simtime.Duration
		for r := 0; r < rounds; r++ {
			// Application-assisted teardown of the previous connection.
			td := simtime.NewEvent[error](tb.Eng)
			oldS, oldC := sep, cep
			tb.Eng.Spawn("teardown", func(p *simtime.Proc) {
				if err := oldS.QP.Destroy(p); err != nil {
					td.Trigger(err)
					return
				}
				if err := oldS.MR.Dereg(p); err != nil {
					td.Trigger(err)
					return
				}
				if err := oldC.QP.Destroy(p); err != nil {
					td.Trigger(err)
					return
				}
				td.Trigger(oldC.MR.Dereg(p))
			})
			tb.Eng.Run()
			if err := td.Value(); err != nil {
				panic(err)
			}
			// Migrate the server to the other spare host; its vGID keeps
			// resolving, but to a new physical GID.
			srvHost = 3 - srvHost // 1 <-> 2
			if err := tb.MigrateNode(cp.ServerNode, srvHost); err != nil {
				panic(err)
			}
			// Reconnect immediately — before a delayed or dropped push
			// could have fixed the client's cache. Only the client's
			// RESET->RTS walk (where the rename happens) is timed.
			ev := simtime.NewEvent[error](tb.Eng)
			tb.Eng.Spawn("reconnect", func(p *simtime.Proc) {
				var err error
				if sep, err = cp.ServerNode.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
					ev.Trigger(err)
					return
				}
				if cep, err = cp.ClientNode.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
					ev.Trigger(err)
					return
				}
				if err := sep.ConnectRC(p, cep.Info()); err != nil {
					ev.Trigger(err)
					return
				}
				st := p.Now()
				if err := cep.ConnectRC(p, sep.Info()); err != nil {
					ev.Trigger(err)
					return
				}
				lats = append(lats, p.Now().Sub(st))
				ev.Trigger(nil)
			})
			tb.Eng.Run()
			if err := ev.Value(); err != nil {
				panic(err)
			}
		}
		delayLabel := "none"
		if s.delay > 0 {
			delayLabel = s.delay.String()
		}
		t.AddRow(delayLabel, fmt.Sprintf("%.1f", s.drop),
			us(pctile(lats, 0.50)), us(pctile(lats, 0.95)), us(pctile(lats, 1.0)),
			tb.Backend(0).Stats.StaleRenames, tb.Ctrl.Stats.NotifyDropped)
	}
	t.Note("stale reconnects pay stale detection (%v) + invalidate + controller re-query on top of the warm-cache RTR", masq.StaleDetectCost)
	t.Note("prompt pushes (delay 0, no loss) refresh the cache before the reconnect: no stale renames, flat latency")
	return t
}
