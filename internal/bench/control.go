package bench

import (
	"fmt"

	"masq/internal/cluster"
	"masq/internal/masq"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/trace"
	"masq/internal/verbs"
)

func init() {
	register("table2", "Table 2: application and RNIC behaviour in the ERROR state", table2)
	register("table4", "Table 4: cost of security-related operations", table4)
	register("table5", "Table 5: maximum number of VMs", table5)
	register("fig15", "Fig. 15: RDMA connection establishment delay + breakdown", fig15)
	register("fig16", "Fig. 16: MasQ control-verb cost by software layer", fig16)
	register("fig17", "Fig. 17: rate limiting and security-rule timeline", fig17)
	register("fig18", "Fig. 18: cost breakdown to reset an RDMA connection", fig18)
}

// table2 drives a QP into ERROR and reports the observed behaviour per
// Table 2's rows.
func table2() *Table {
	t := &Table{
		ID:      "table2",
		Title:   "Behaviour when the QP state is modified to ERROR",
		Columns: []string{"actor", "operation", "observed"},
	}
	cp := mustPair(cluster.ModeMasQ)
	eng := cp.TB.Eng

	var postRecvObs, postSendObs, pollObs, inObs, outObs string
	eng.Spawn("table2", func(p *simtime.Proc) {
		s, c := cp.Server, cp.Client
		// Outstanding receive, then force ERROR via the provider.
		s.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: s.Buf, LKey: s.MR.LKey(), Len: 64})
		if err := s.QP.Modify(p, verbs.Attr{ToState: verbs.StateError}); err != nil {
			panic(err)
		}
		// Rows: post receive / post send in ERROR.
		if err := s.QP.PostRecv(p, verbs.RecvWR{WRID: 2, Addr: s.Buf, LKey: s.MR.LKey(), Len: 64}); err == nil {
			postRecvObs = "allowed"
		} else {
			postRecvObs = "rejected"
		}
		if err := s.QP.PostSend(p, verbs.SendWR{WRID: 3, Op: verbs.WRSend, LocalAddr: s.Buf, LKey: s.MR.LKey(), Len: 4}); err == nil {
			postSendObs = "allowed"
		} else {
			postSendObs = "rejected"
		}
		// Row: poll → error CQEs (flushes).
		flushed := 0
		for {
			wc, ok := s.RCQ.WaitTimeout(p, simtime.Ms(1))
			if !ok {
				break
			}
			if wc.Status == verbs.WCFlushErr {
				flushed++
			}
		}
		for {
			wc, ok := s.SCQ.WaitTimeout(p, simtime.Ms(1))
			if !ok {
				break
			}
			if wc.Status == verbs.WCFlushErr {
				flushed++
			}
		}
		pollObs = fmt.Sprintf("allowed; %d error CQEs (WR_FLUSH_ERR)", flushed)
		// Row: incoming packets dropped.
		before := cp.TB.Hosts[1].Dev.Stats.Dropped
		c.QP.PostSend(p, verbs.SendWR{WRID: 4, Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: 4})
		p.Sleep(simtime.Ms(50))
		if cp.TB.Hosts[1].Dev.Stats.Dropped > before {
			inObs = "dropped"
		} else {
			inObs = "processed (!)"
		}
		// Row: outgoing packets — none.
		if cp.TB.Hosts[1].Dev.Stats.TxMsgs == 0 {
			outObs = "none"
		} else {
			outObs = fmt.Sprintf("%d messages (!)", cp.TB.Hosts[1].Dev.Stats.TxMsgs)
		}
	})
	eng.Run()
	t.AddRow("application", "post receive request", postRecvObs)
	t.AddRow("application", "post send request", postSendObs)
	t.AddRow("application", "poll completion queue", pollObs)
	t.AddRow("RNIC", "recv/send request processing", "flushed with error")
	t.AddRow("RNIC", "incoming packets", inObs)
	t.AddRow("RNIC", "outgoing packets", outObs)
	return t
}

func table4() *Table {
	t := &Table{
		ID:      "table4",
		Title:   "Cost of security-related operations",
		Columns: []string{"caller", "basic op", "time (µs)"},
	}
	cp := mustPair(cluster.ModeMasQ)
	eng := cp.TB.Eng
	be := cp.TB.Backend(0)
	dev := cp.TB.Hosts[0].Dev

	var valid, insert, del, reset simtime.Duration
	eng.Spawn("table4", func(p *simtime.Proc) {
		id := masq.ConnID{VNI: 100, SrcVIP: packet.NewIP(192, 168, 1, 1), DstVIP: packet.NewIP(192, 168, 1, 2), QPN: 99}
		s := p.Now()
		be.CT.Validate(p, id)
		valid = p.Now().Sub(s)

		qp := dev.QP(findRTSQP(dev))
		s = p.Now()
		be.CT.Insert(p, id, qp)
		insert = p.Now().Sub(s)

		s = p.Now()
		be.CT.Delete(p, qp.Num)
		del = p.Now().Sub(s)

		s = p.Now()
		dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateError})
		reset = p.Now().Sub(s)
	})
	eng.Run()
	t.AddRow("update_rules", "insert_rule()", us(masq.InsertRuleCost))
	t.AddRow("update_rules", "reset_conn()", us(reset))
	t.AddRow("modify_qp_RTR", "valid_conn()", us(valid))
	t.AddRow("modify_qp_RTR", "insert_conn()", us(insert))
	t.AddRow("destroy_qp", "delete_conn()", us(del))
	t.Note("paper: 1.5 / 518 / 2.5 / 1.5 / 1.5 µs")
	return t
}

func findRTSQP(dev *rnic.Device) uint32 {
	for qpn := uint32(1); qpn < 64; qpn++ {
		if qp := dev.QP(qpn); qp != nil && qp.State() == rnic.StateRTS {
			return qpn
		}
	}
	panic("bench: no RTS QP on device")
}

func table5() *Table {
	t := &Table{
		ID:      "table5",
		Title:   "Maximum number of VMs per host",
		Columns: []string{"virtualization", "max #VM", "limiting factor"},
	}
	cfg := cluster.DefaultConfig()
	cfg.VMMem = 512 << 20
	count := func(mode cluster.Mode) int {
		tb := cluster.New(cfg)
		tb.AddTenant(100, "t")
		tb.AllowAll(100)
		n := 0
		for i := 0; ; i++ {
			if _, err := tb.NewNode(mode, 0, 100, packet.NewIP(10, byte(i>>8), byte(i), 1)); err != nil {
				break
			}
			n++
		}
		return n
	}
	t.AddRow("sr-iov", count(cluster.ModeSRIOV), "non-ARI PCIe (8 VFs)")
	t.AddRow("masq", count(cluster.ModeMasQ), "host memory")
	t.Note("paper: 8 vs 160 (1 vCPU, 512 MB VMs on a 96 GB host)")
	return t
}

// fig15 measures the client-side connection-establishment delay and the
// per-verb breakdown across the four systems.
func fig15() *Table { return fig15With(false) }

// fig15With runs fig15 with tracing optionally enabled. The two variants
// must produce identical tables: recording spans reads the sim clock but
// never advances it (the determinism guard test asserts this).
func fig15With(traceOn bool) *Table {
	t := &Table{
		ID:    "fig15",
		Title: "Connection establishment: total (ms) and per-verb breakdown (µs)",
		Columns: []string{"system", "total", "reg_mr", "create_cq", "create_qp",
			"query_gid", "qp_INIT", "qp_RTR", "qp_RTS"},
	}
	for _, mode := range []cluster.Mode{cluster.ModeHost, cluster.ModeFreeFlow, cluster.ModeSRIOV, cluster.ModeMasQ} {
		cfg := cluster.DefaultConfig()
		cfg.Trace = traceOn
		tb := cluster.New(cfg)
		tb.AddTenant(100, "t")
		tb.AllowAll(100)
		cNode, err := tb.NewNode(mode, 0, 100, packet.NewIP(192, 168, 1, 1))
		if err != nil {
			panic(err)
		}
		sNode, err := tb.NewNode(mode, 1, 100, packet.NewIP(192, 168, 1, 2))
		if err != nil {
			panic(err)
		}
		var total simtime.Duration
		var verbsT [7]simtime.Duration
		ready := simtime.NewEvent[*cluster.Endpoint](tb.Eng)
		tb.Eng.Spawn("srv", func(p *simtime.Proc) {
			sNode.Device(p)
			opts := cluster.DefaultEndpointOpts()
			opts.SharedCQ = true
			sep, err := sNode.Setup(p, opts)
			if err != nil {
				panic(err)
			}
			ready.Trigger(sep)
			peer, err := sep.ExchangeServer(p, 7000)
			if err == nil {
				err = sep.ConnectRC(p, peer)
			}
			if err != nil {
				panic(err)
			}
		})
		tb.Eng.Spawn("cli", func(p *simtime.Proc) {
			dev, err := cNode.Device(p)
			if err != nil {
				panic(err)
			}
			sep := ready.Wait(p)
			_ = sep
			start := p.Now()
			meas := func(i int, fn func() error) {
				s := p.Now()
				if err := fn(); err != nil {
					panic(err)
				}
				verbsT[i] = p.Now().Sub(s)
			}
			pd, _ := dev.AllocPD(p)
			va, _ := cNode.Alloc(1024)
			var mr verbs.MR
			meas(0, func() error { var e error; mr, e = dev.RegMR(p, pd, va, 1024, verbs.AccessLocalWrite); return e })
			var cq verbs.CQ
			meas(1, func() error { var e error; cq, e = dev.CreateCQ(p, 200); return e })
			var qp verbs.QP
			meas(2, func() error {
				var e error
				qp, e = dev.CreateQP(p, pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 100, MaxRecvWR: 100})
				return e
			})
			meas(3, func() error { _, e := dev.QueryGID(p); return e })
			_ = mr
			// Swap ConnInfo out of band (not a verb; excluded from breakdown).
			ep := &cluster.Endpoint{Node: cNode, Dev: dev, PD: pd, SCQ: cq, RCQ: cq, QP: qp, MR: mr, Buf: va, Len: 1024}
			gid, _ := dev.QueryGID(p)
			ep.GID = gid
			peer, err := ep.ExchangeClient(p, sNode.VIP, 7000, simtime.Ms(50))
			if err != nil {
				panic(fmt.Sprintf("%v: %v", mode, err))
			}
			meas(4, func() error { return qp.Modify(p, verbs.Attr{ToState: verbs.StateInit}) })
			meas(5, func() error {
				return qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: peer.GID, DQPN: peer.QPN})
			})
			meas(6, func() error { return qp.Modify(p, verbs.Attr{ToState: verbs.StateRTS}) })
			total = p.Now().Sub(start)
		})
		tb.Eng.Run()
		t.AddRow(mode.String(), fmt.Sprintf("%.2f", total.Millis()),
			us(verbsT[0]), us(verbsT[1]), us(verbsT[2]), us(verbsT[3]),
			us(verbsT[4]), us(verbsT[5]), us(verbsT[6]))
	}
	t.Note("paper totals: host 0.8 ms, freeflow 3.9 ms, sr-iov 1.9 ms, masq 2.1 ms")
	t.Note("totals include the out-of-band TCP exchange; the query_gid row repeats inside setup")
	return t
}

// fig16Row is the measured per-layer attribution of one control verb.
type fig16Row struct {
	name  string           // display name (qp_INIT, not modify_qp_INIT)
	total simtime.Duration // measured wall time of the verb call
	lib   simtime.Duration // verbs-library self time
	vio   simtime.Duration // virtio transport: kick + irq self time
	masqd simtime.Duration // MasQ driver: frontend, ring service, backend, rename, conntrack, controller
	rnicd simtime.Duration // host RDMA driver (RNIC firmware) self time
	param simtime.Duration // cross-check: old parameter reconstruction of the driver share
}

// fig16Data performs the MasQ connection setup with the trace spine enabled
// and returns each control verb's *measured* layer attribution (self times
// from internal/trace spans). The warm-up connection that populates the
// rename cache runs with the recorder disabled, so only the measured verbs
// appear. The param column reproduces the pre-trace estimate — the
// VF-factored Table 1 cost — as a cross-check.
func fig16Data() []fig16Row {
	cfg := cluster.DefaultConfig()
	cfg.Trace = true
	tb := cluster.New(cfg)
	rec := tb.Trace
	rec.SetEnabled(false) // setup and warm-up are not measured
	tb.AddTenant(100, "t")
	tb.AllowAll(100)
	cNode, _ := tb.NewNode(cluster.ModeMasQ, 0, 100, packet.NewIP(192, 168, 1, 1))
	sNode, _ := tb.NewNode(cluster.ModeMasQ, 1, 100, packet.NewIP(192, 168, 1, 2))

	tb.Eng.Spawn("fig16", func(p *simtime.Proc) {
		d, err := cNode.Device(p)
		if err != nil {
			panic(err)
		}
		sep, err := sNode.Setup(p, cluster.DefaultEndpointOpts())
		if err != nil {
			panic(err)
		}
		pd, _ := d.AllocPD(p)
		va, _ := cNode.Alloc(1024)
		// Warm the RConnrename cache first: the paper excludes controller
		// cost ("not necessary at most times with the help of a local
		// cache") — a throwaway connection performs the one cold query.
		{
			wcq, _ := d.CreateCQ(p, 16)
			wqp, _ := d.CreateQP(p, pd, wcq, wcq, verbs.RC, verbs.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
			wqp.Modify(p, verbs.Attr{ToState: verbs.StateInit})
			if err := wqp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: sep.GID, DQPN: sep.QP.Num()}); err != nil {
				panic(err)
			}
		}
		// The measured region: each verb call below opens a trace
		// invocation via the instrumented device; no manual timing.
		rec.SetEnabled(true)
		must := func(err error) {
			if err != nil {
				panic(err)
			}
		}
		_, err = d.RegMR(p, pd, va, 1024, verbs.AccessLocalWrite)
		must(err)
		cq, err := d.CreateCQ(p, 200)
		must(err)
		qp, err := d.CreateQP(p, pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 100, MaxRecvWR: 100})
		must(err)
		_, err = d.QueryGID(p)
		must(err)
		must(qp.Modify(p, verbs.Attr{ToState: verbs.StateInit}))
		must(qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: sep.GID, DQPN: sep.QP.Num()}))
		must(qp.Modify(p, verbs.Attr{ToState: verbs.StateRTS}))
		rec.SetEnabled(false)
	})
	tb.Eng.Run()

	// The cross-check reconstruction the bench used before the trace spine:
	// driver share = Table 1 cost × the VF control multiplier (query_gid is
	// answered in-guest at PF cost). The calibration constant comes from
	// the device model — its single home.
	dev := tb.Hosts[0].Dev
	base := func(v rnic.Verb) simtime.Duration {
		return simtime.Duration(float64(dev.VerbCost(v)) * rnic.VFControlFactor)
	}
	param := map[string]simtime.Duration{
		rnic.VerbRegMR.String():        base(rnic.VerbRegMR),
		rnic.VerbCreateCQ.String():     base(rnic.VerbCreateCQ),
		rnic.VerbCreateQP.String():     base(rnic.VerbCreateQP),
		rnic.VerbQueryGID.String():     dev.VerbCost(rnic.VerbQueryGID),
		rnic.VerbModifyQPInit.String(): base(rnic.VerbModifyQPInit),
		rnic.VerbModifyQPRTR.String():  base(rnic.VerbModifyQPRTR),
		rnic.VerbModifyQPRTS.String():  base(rnic.VerbModifyQPRTS),
	}
	display := map[string]string{
		rnic.VerbModifyQPInit.String(): "qp_INIT",
		rnic.VerbModifyQPRTR.String():  "qp_RTR",
		rnic.VerbModifyQPRTS.String():  "qp_RTS",
	}

	var rows []fig16Row
	for _, b := range rec.Attribute() {
		name := b.Verb
		if d, ok := display[name]; ok {
			name = d
		}
		// The ring-service leg (backend wakeup/dequeue) belongs to the MasQ
		// driver in the paper's taxonomy; kick + irq are virtio transport.
		ring := b.Named["virtio/ring-service"]
		rows = append(rows, fig16Row{
			name:  name,
			total: b.Total,
			lib:   b.Layer[trace.LayerVerbs],
			vio:   b.Layer[trace.LayerVirtio] - ring,
			masqd: b.Layer[trace.LayerMasqFrontend] + b.Layer[trace.LayerMasqBackend] +
				b.Layer[trace.LayerRConnrename] + b.Layer[trace.LayerRConntrack] +
				b.Layer[trace.LayerController] + ring,
			rnicd: b.Layer[trace.LayerRNIC],
			param: param[b.Verb],
		})
	}
	return rows
}

// fig16 splits each MasQ control verb's cost into software layers — guest
// verbs library, virtio transport, MasQ driver (frontend+backend logic),
// and the host RDMA driver — *measured* from internal/trace spans rather
// than reconstructed from model parameters.
func fig16() *Table {
	t := &Table{
		ID:    "fig16",
		Title: "MasQ control-verb cost by software layer (measured, µs and %)",
		Columns: []string{"verb", "total", "verbs lib", "virtio", "masq driver",
			"rdma driver", "masq+virtio %", "rdma drv (param)"},
	}
	for _, r := range fig16Data() {
		pct := float64(r.vio+r.masqd) / float64(r.total) * 100
		t.AddRow(r.name, us(r.total), us(r.lib), us(r.vio), us(r.masqd), us(r.rnicd),
			fmt.Sprintf("%.1f", pct), us(r.param))
	}
	t.Note("paper: >80%% of each verb's cost is the RDMA driver + user library; <20%% is MasQ")
	t.Note("the rename cache was warmed first, as in the paper's methodology (controller excluded)")
	t.Note("measured from trace spans; 'rdma drv (param)' is the old Table-1 × VF-factor reconstruction")
	t.Note("query_gid is answered in-guest by vBond, so its cost appears as library time when measured")
	return t
}

// fig17 reproduces the timeline: two MasQ VM pairs stream concurrently;
// VM 0 is rate-limited to 10 then 5 Gbps and finally killed by a security
// rule while VM 1 absorbs the spare bandwidth. The timeline is compressed
// 100× relative to the paper's 60 s wall-clock run.
func fig17() *Table {
	t := &Table{
		ID:      "fig17",
		Title:   "Timeline: rate limiting and security enforcement (Gbps per 30 ms sample)",
		Columns: []string{"t (ms)", "VM0", "VM1", "aggregate", "phase"},
	}
	cfg := cluster.DefaultConfig()
	tb := cluster.New(cfg)
	// Two tenants so the two VM pairs sit on distinct VFs (QP groups).
	tb.AddTenant(100, "vm0-tenant")
	tb.AddTenant(200, "vm1-tenant")
	rule0 := tb.AllowAll(100)
	tb.AllowAll(200)

	mk := func(vni uint32, host int, ip packet.IP) *cluster.Node {
		n, err := tb.NewNode(cluster.ModeMasQ, host, vni, ip)
		if err != nil {
			panic(err)
		}
		return n
	}
	c0, s0 := mk(100, 0, packet.NewIP(10, 1, 0, 1)), mk(100, 1, packet.NewIP(10, 1, 0, 2))
	c1, s1 := mk(200, 0, packet.NewIP(10, 2, 0, 1)), mk(200, 1, packet.NewIP(10, 2, 0, 2))

	pairUp := func(c, s *cluster.Node, port uint16) (*cluster.Endpoint, *cluster.Endpoint) {
		var cep, sep *cluster.Endpoint
		done := simtime.NewEvent[error](tb.Eng)
		tb.Eng.Spawn("wire", func(p *simtime.Proc) {
			var err error
			if cep, err = c.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				done.Trigger(err)
				return
			}
			if sep, err = s.Setup(p, cluster.DefaultEndpointOpts()); err != nil {
				done.Trigger(err)
				return
			}
			se, ce := cluster.Pair(tb.Eng, sep, cep, port)
			if err := se.Wait(p); err != nil {
				done.Trigger(err)
				return
			}
			done.Trigger(ce.Wait(p))
		})
		tb.Eng.Run()
		if done.Value() != nil {
			panic(done.Value())
		}
		return cep, sep
	}
	cep0, sep0 := pairUp(c0, s0, 7000)
	cep1, sep1 := pairUp(c1, s1, 7001)

	// Byte counters updated by the flows, sampled every 30 ms.
	var bytes0, bytes1 int64
	stream := func(cep, sep *cluster.Endpoint, counter *int64) {
		peer := sep.Info()
		tb.Eng.Spawn("stream", func(p *simtime.Proc) {
			const size = 64 * 1024
			posted, completed := 0, 0
			for {
				for posted-completed < 8 {
					if err := cep.QP.PostSend(p, verbs.SendWR{
						WRID: uint64(posted), Op: verbs.WRWrite,
						LocalAddr: cep.Buf, LKey: cep.MR.LKey(), Len: size,
						RemoteAddr: peer.Addr, RKey: peer.RKey,
					}); err != nil {
						return
					}
					posted++
				}
				wc, ok := cep.SCQ.WaitTimeout(p, simtime.Ms(200))
				if !ok || wc.Status != verbs.WCSuccess {
					return // killed by the security rule
				}
				completed++
				*counter += size
			}
		})
	}
	stream(cep0, sep0, &bytes0)
	stream(cep1, sep1, &bytes1)

	// Phase control: unlimited → 10 G → 5 G → security kill.
	sample := simtime.Ms(30)
	phases := map[int]string{}
	tb.Eng.Spawn("control", func(p *simtime.Proc) {
		phases[0] = "unlimited"
		p.Sleep(4 * sample)
		tb.Backend(0).SetTenantRateLimit(100, 10e9)
		phases[4] = "VM0 limited to 10 Gbps"
		p.Sleep(4 * sample)
		tb.Backend(0).SetTenantRateLimit(100, 5e9)
		phases[8] = "VM0 limited to 5 Gbps"
		p.Sleep(4 * sample)
		tb.Fab.Tenant(100).Policy.RemoveRule(rule0)
		phases[12] = "security rule kills VM0"
	})

	var rows [][3]float64
	tb.Eng.Spawn("sampler", func(p *simtime.Proc) {
		var last0, last1 int64
		for i := 0; i < 16; i++ {
			p.Sleep(sample)
			d0 := float64((bytes0-last0)*8) / sample.Seconds() / 1e9
			d1 := float64((bytes1-last1)*8) / sample.Seconds() / 1e9
			last0, last1 = bytes0, bytes1
			rows = append(rows, [3]float64{d0, d1, d0 + d1})
		}
		tb.Eng.Stop()
	})
	tb.Eng.Run()
	for i, r := range rows {
		phase := phases[i]
		t.AddRow(fmt.Sprintf("%d", (i+1)*30), fmt.Sprintf("%.1f", r[0]),
			fmt.Sprintf("%.1f", r[1]), fmt.Sprintf("%.1f", r[2]), phase)
	}
	t.Note("timeline compressed 100x vs the paper's 60 s; same phase sequence")
	t.Note("paper: VM1 immediately consumes bandwidth VM0 gives up; VM0 drops to 0 on rule removal")
	return t
}

func fig18() *Table {
	t := &Table{
		ID:      "fig18",
		Title:   "Cost to reset an RDMA connection (µs)",
		Columns: []string{"scenario", "kernel routine", "RNIC processing", "total"},
	}
	measure := func(mode cluster.Mode, heavy bool) (k, r, total simtime.Duration) {
		cp := mustPair(mode)
		eng := cp.TB.Eng
		dev := cp.TB.Hosts[0].Dev
		if heavy {
			// Saturate the QP before resetting it.
			peer := cp.Server.Info()
			eng.Spawn("load", func(p *simtime.Proc) {
				for i := 0; i < 32; i++ {
					cp.Client.QP.PostSend(p, verbs.SendWR{
						WRID: uint64(i), Op: verbs.WRWrite, LocalAddr: cp.Client.Buf,
						LKey: cp.Client.MR.LKey(), Len: 64 * 1024,
						RemoteAddr: peer.Addr, RKey: peer.RKey,
					})
				}
			})
		}
		eng.Spawn("reset", func(p *simtime.Proc) {
			if heavy {
				p.Sleep(simtime.Us(50)) // mid-transfer
			}
			qp := dev.QP(findRTSQP(dev))
			k, r = dev.ResetCostBreakdown(qp)
			s := p.Now()
			if err := dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateError}); err != nil {
				panic(err)
			}
			total = p.Now().Sub(s)
			eng.Stop()
		})
		eng.Run()
		return
	}
	k, r, total := measure(cluster.ModeMasQ, false)
	t.AddRow("w/o traffic (VF)", us(k), us(r), us(total))
	k, r, total = measure(cluster.ModeMasQ, true)
	t.AddRow("w/ heavy traffic (VF)", us(k), us(r), us(total))
	k, r, total = measure(cluster.ModeMasQPF, false)
	t.AddRow("w/o traffic (PF)", us(k), us(r), us(total))
	t.Note("paper: 518 (VF idle), 838 (VF loaded), 253 (PF idle)")
	return t
}
