package bench

import (
	"fmt"

	"masq/internal/apps/perftest"
	"masq/internal/cluster"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
	"masq/internal/virtio"
)

func init() {
	register("table1", "Table 1: verbs cost, Host-RDMA vs w/ virtio", table1)
	register("fig8a", "Fig. 8a: 2 B send/write latency across systems", fig8a)
	register("fig8b", "Fig. 8b: data-path verb call time across systems", fig8b)
	register("fig9", "Fig. 9: MasQ on PF vs VF latency", fig9)
	register("fig10", "Fig. 10: throughput vs message size", fig10)
	register("fig11", "Fig. 11: aggregate throughput vs number of QPs", fig11)
	register("fig12", "Fig. 12: rate-limiting accuracy", fig12)
}

func us(d simtime.Duration) string { return fmt.Sprintf("%.2f", d.Micros()) }

func mustPair(mode cluster.Mode) *cluster.ConnectedPair {
	cp, err := cluster.NewConnectedPair(cluster.DefaultConfig(), mode)
	if err != nil {
		panic(fmt.Sprintf("bench: %v pair: %v", mode, err))
	}
	return cp
}

// table1 measures every verb on the host path and estimates the
// paravirtualized cost by adding the measured virtio round trip — the same
// methodology as the paper ("w/ virtio" = Host-RDMA + measured ~20 µs).
func table1() *Table {
	t := &Table{
		ID:      "table1",
		Title:   "Verbs call time: Host-RDMA vs w/ virtio",
		Columns: []string{"step", "verbs", "host (µs)", "w/ virtio (µs)", "slowdown"},
	}
	cp := mustPair(cluster.ModeHost)
	eng := cp.TB.Eng
	dev := cp.TB.Hosts[0].Dev
	node := cp.ClientNode

	// Measure the virtio round trip on a scratch ring.
	ring := virtio.NewRing(eng)
	var rtt simtime.Duration
	eng.Spawn("t1-rtt", func(p *simtime.Proc) {
		s := p.Now()
		ring.Call(p, func() {})
		rtt = p.Now().Sub(s)
	})
	eng.Run()

	type row struct {
		verb      string
		forwarded bool
		dur       simtime.Duration
	}
	var rows []row
	eng.Spawn("t1-measure", func(p *simtime.Proc) {
		meas := func(name string, forwarded bool, fn func()) {
			s := p.Now()
			fn()
			rows = append(rows, row{name, forwarded, p.Now().Sub(s)})
		}
		fn := dev.PF()
		meas("ibv_get_device_list(...)", true, func() { dev.GetDeviceList(p) })
		meas("ibv_open_device(...)", true, func() { dev.Open(p) })
		var pd *rnic.PD
		meas("ibv_alloc_pd(...)", false, func() { pd = dev.AllocPD(p, fn) })
		va, _ := node.Alloc(1024)
		ext, _ := node.Mem.PinToPhys(va, 1024)
		var mr *rnic.MR
		meas("ibv_reg_mr(buf=1KB)", true, func() { mr = dev.RegMR(p, fn, pd, va, 1024, ext, rnic.AccessLocalWrite) })
		var cq *rnic.CQ
		meas("ibv_create_cq(cqe=200)", true, func() { cq = dev.CreateCQ(p, fn, 200) })
		var qp *rnic.QP
		meas("ibv_create_qp(wr=100)", true, func() { qp = dev.CreateQP(p, fn, pd, cq, cq, rnic.RC, rnic.DefaultCaps()) })
		meas("ibv_query_gid(...)", false, func() { dev.QueryGID(p, fn, 0) })
		meas("ibv_modify_qp(INIT)", true, func() { dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateInit}) })
		meas("ibv_modify_qp(RTR)", true, func() { dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTR}) })
		meas("ibv_modify_qp(RTS)", true, func() { dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateRTS}) })
		meas("ibv_post_send/recv(...)", true, func() {
			qp.PostRecv(p, rnic.RecvWR{WRID: 1, Addr: va, LKey: mr.LKey, Len: 16})
		})
		meas("ibv_poll_cq(...)", true, func() { cq.TryPoll(p) })
		meas("ibv_destroy_qp(...)", true, func() { dev.DestroyQP(p, qp) })
		meas("ibv_destroy_cq(...)", true, func() { dev.DestroyCQ(p, fn, cq) })
		meas("ibv_dereg_mr(...)", true, func() { dev.DeregMR(p, fn, mr) })
		meas("ibv_dealloc_pd(...)", false, func() { dev.DeallocPD(p, pd) })
		meas("ibv_close_device(...)", true, func() { dev.Close(p) })
	})
	eng.Run()

	for i, r := range rows {
		if r.forwarded {
			v := r.dur + rtt
			t.AddRow(i+1, r.verb, us(r.dur), us(v), fmt.Sprintf("%.1f", float64(v)/float64(r.dur)))
		} else {
			t.AddRow(i+1, r.verb, us(r.dur), "-", "1.0")
		}
	}
	t.Note("measured virtio round trip: %v (paper: ~20 µs)", rtt)
	t.Note("'-': pure-software verbs, not forwarded (as in the paper)")
	return t
}

func fig8a() *Table {
	t := &Table{
		ID:      "fig8a",
		Title:   "2 B one-way latency (µs)",
		Columns: []string{"system", "send", "write"},
	}
	for _, mode := range []cluster.Mode{cluster.ModeHost, cluster.ModeFreeFlow, cluster.ModeSRIOV, cluster.ModeMasQ} {
		cp := mustPair(mode)
		sendEv := perftest.StartSendLat(cp.TB.Eng, cp.Client, cp.Server, 2, 500)
		cp.TB.Eng.Run()
		cp2 := mustPair(mode)
		writeEv := perftest.StartWriteLat(cp2.TB.Eng, cp2.Client, cp2.Server, 2, 500)
		cp2.TB.Eng.Run()
		t.AddRow(mode.String(), us(sendEv.Value().Avg), us(writeEv.Value().Avg))
	}
	t.Note("paper: host 0.8/0.7, freeflow 2.1/1.3, sr-iov 1.1/1.0, masq 1.1/1.0")
	return t
}

func fig8b() *Table {
	t := &Table{
		ID:      "fig8b",
		Title:   "Data-path verb call time (µs)",
		Columns: []string{"system", "post_recv", "post_send", "poll_cq"},
	}
	for _, mode := range []cluster.Mode{cluster.ModeHost, cluster.ModeFreeFlow, cluster.ModeSRIOV, cluster.ModeMasQ} {
		cp := mustPair(mode)
		var recv, send, poll simtime.Duration
		cp.TB.Eng.Spawn("verbtime", func(p *simtime.Proc) {
			c := cp.Client
			s := p.Now()
			c.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: c.Buf, LKey: c.MR.LKey(), Len: 16})
			recv = p.Now().Sub(s)
			s = p.Now()
			c.QP.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: 2})
			send = p.Now().Sub(s)
			s = p.Now()
			c.SCQ.TryPoll(p)
			poll = p.Now().Sub(s)
		})
		cp.TB.Eng.Run()
		t.AddRow(mode.String(), us(recv), us(send), us(poll))
	}
	t.Note("paper: freeflow's data verbs are ≥5x host; masq/sr-iov match host")
	return t
}

func fig9() *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "MasQ(PF) vs MasQ(VF) vs Host latency (µs)",
		Columns: []string{"system", "send 2B", "write 2B", "send 16KB", "write 16KB"},
	}
	for _, mode := range []cluster.Mode{cluster.ModeHost, cluster.ModeMasQ, cluster.ModeMasQPF} {
		label := map[cluster.Mode]string{
			cluster.ModeHost: "host-rdma", cluster.ModeMasQ: "masq (VF)", cluster.ModeMasQPF: "masq (PF)",
		}[mode]
		var cells []any
		cells = append(cells, label)
		for _, size := range []int{2, 16 * 1024} {
			cp := mustPair(mode)
			sEv := perftest.StartSendLat(cp.TB.Eng, cp.Client, cp.Server, size, 300)
			cp.TB.Eng.Run()
			cp2 := mustPair(mode)
			wEv := perftest.StartWriteLat(cp2.TB.Eng, cp2.Client, cp2.Server, size, 300)
			cp2.TB.Eng.Run()
			cells = append(cells, us(sEv.Value().Avg), us(wEv.Value().Avg))
		}
		t.AddRow(cells...)
	}
	t.Note("paper: PF placement recovers host latency (0.8/0.7 µs; 16KB ≈ 5.2 µs)")
	return t
}

func fig10() *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Throughput vs message size (Gbps)",
		Columns: []string{"size", "op", "host-rdma", "freeflow", "sr-iov", "masq"},
	}
	sizes := []int{2, 8, 32, 128, 512, 2048, 8192, 32768}
	modes := []cluster.Mode{cluster.ModeHost, cluster.ModeFreeFlow, cluster.ModeSRIOV, cluster.ModeMasQ}
	for _, size := range sizes {
		iters := 2000
		if size >= 8192 {
			iters = 600
		}
		for _, op := range []string{"send", "write"} {
			cells := []any{sizeLabel(size), op}
			for _, mode := range modes {
				cp := mustPair(mode)
				var ev *simtime.Event[perftest.ThroughputResult]
				if op == "send" {
					ev = perftest.StartSendBW(cp.TB.Eng, cp.Client, cp.Server, size, iters, 64)
				} else {
					ev = perftest.StartWriteBW(cp.TB.Eng, cp.Client, cp.Server, size, iters, 64)
				}
				cp.TB.Eng.Run()
				cells = append(cells, fmt.Sprintf("%.2f", ev.Value().Gbps()))
			}
			t.AddRow(cells...)
		}
	}
	t.Note("paper: masq == host/sr-iov at every size; freeflow trails below ~8 KB")
	return t
}

func sizeLabel(n int) string {
	if n >= 1024 {
		return fmt.Sprintf("%dk", n/1024)
	}
	return fmt.Sprint(n)
}

func fig11() *Table {
	t := &Table{
		ID:      "fig11",
		Title:   "Aggregate throughput vs number of QPs (Gbps)",
		Columns: []string{"QPs", "host-rdma", "sr-iov", "masq"},
	}
	counts := []int{1, 4, 16, 64, 256, 1024}
	modes := []cluster.Mode{cluster.ModeHost, cluster.ModeSRIOV, cluster.ModeMasQ}
	results := make(map[cluster.Mode]map[int]float64)
	for _, mode := range modes {
		results[mode] = make(map[int]float64)
		for _, n := range counts {
			results[mode][n] = aggregateQPs(mode, n)
		}
	}
	for _, n := range counts {
		t.AddRow(n, fmt.Sprintf("%.1f", results[cluster.ModeHost][n]),
			fmt.Sprintf("%.1f", results[cluster.ModeSRIOV][n]),
			fmt.Sprintf("%.1f", results[cluster.ModeMasQ][n]))
	}
	t.Note("paper: flat at line rate from 1 to 1024 QPs for all three systems")
	return t
}

// aggregateQPs opens n RC connections between one node pair and measures
// the aggregate goodput of concurrent 64 KB writes (ib_write_bw style).
func aggregateQPs(mode cluster.Mode, n int) float64 {
	cp := mustPair(mode)
	eng := cp.TB.Eng
	type flow struct{ c, s *cluster.Endpoint }
	flows := []flow{{cp.Client, cp.Server}}
	for i := 1; i < n; i++ {
		c, s, err := cp.ConnectExtraQP(cluster.DefaultEndpointOpts(), uint16(7100+i))
		if err != nil {
			panic(err)
		}
		flows = append(flows, flow{c, s})
	}
	const size = 64 * 1024
	iters := 512 / n
	if iters < 2 {
		iters = 2
	}
	var start, end simtime.Time
	var total int64
	startEv := simtime.NewEvent[struct{}](eng)
	remaining := n
	for _, f := range flows {
		f := f
		eng.Spawn("aggflow", func(p *simtime.Proc) {
			if start == 0 {
				start = p.Now()
				startEv.Trigger(struct{}{})
			}
			ev := perftest.StartWriteBW(eng, f.c, f.s, size, iters, 8)
			r := ev.Wait(p)
			total += r.Bytes
			if p.Now() > end {
				end = p.Now()
			}
			remaining--
		})
	}
	eng.Run()
	if remaining != 0 || end == start {
		panic("fig11: flows did not finish")
	}
	return float64(total*8) / end.Sub(start).Seconds() / 1e9
}

func fig12() *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "Rate limiting accuracy: configured vs achieved (Gbps)",
		Columns: []string{"configured", "sr-iov", "masq"},
	}
	limits := []float64{1e9, 5e9, 10e9, 20e9, 30e9, 40e9}
	for _, limit := range limits {
		row := []any{fmt.Sprintf("%.0f", limit/1e9)}
		for _, mode := range []cluster.Mode{cluster.ModeSRIOV, cluster.ModeMasQ} {
			cp := mustPair(mode)
			if mode == cluster.ModeMasQ {
				if err := cp.TB.Backend(0).SetTenantRateLimit(100, limit); err != nil {
					panic(err)
				}
			} else {
				cp.ClientNode.VF.SetRateLimit(limit)
			}
			ev := perftest.StartTimedWriteBW(cp.TB.Eng, cp.Client, cp.Server, 64*1024, simtime.Ms(8))
			cp.TB.Eng.Run()
			row = append(row, fmt.Sprintf("%.2f", ev.Value().Gbps()))
		}
		t.AddRow(row...)
	}
	t.Note("paper: achieved tracks configured across 1–40 Gbps with no CPU cost")
	return t
}
