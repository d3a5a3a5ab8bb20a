package bench

import (
	"fmt"

	"masq/internal/cluster"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

func init() {
	register("abl-ctrl-crash", "Ablation: controller crash — grace-mode connection setup vs outage length", ablCtrlCrash)
}

// ablCtrlCrash measures connection establishment through a controller
// outage. The controller crashes (table and pending pushes lost) and
// restarts after a varying outage; a client keeps attempting RC setups
// toward a peer whose mapping sits in the warm rename cache. With grace
// mode on, attempts succeed from the cache while the entry is within the
// grace TTL and start failing only once it ages out — setup success
// degrades with outage length but never collapses to zero while the cached
// lease is fresh. The last columns show the recovery edge: how long after
// the restart lease renewals take to rebuild the controller's table, and
// the epoch the cluster converged on.
func ablCtrlCrash() *Table {
	t := &Table{
		ID:    "abl-ctrl-crash",
		Title: "Connection setup through a controller crash (grace TTL 8 ms, leases renewed every 1 ms)",
		Columns: []string{"outage (ms)", "attempts", "ok", "graced", "failed",
			"success %", "reconverge (µs)", "epoch"},
	}
	const vni = 100     // NewConnectedPair's tenant
	const attempts = 16 // fixed train: one setup per ms from the crash instant
	for _, outage := range []simtime.Duration{0, simtime.Ms(2), simtime.Ms(5), simtime.Ms(10), simtime.Ms(20)} {
		cfg := cluster.DefaultConfig()
		cfg.Masq.PushDown = true
		cfg.Masq.GraceTTL = simtime.Ms(8)
		cfg.Masq.LeaseRenewEvery = simtime.Ms(1)
		cfg.Masq.QueryRetries = 1 // fail fast: one timeout per dark attempt
		cfg.Ctrl.LeaseTTL = simtime.Ms(15)
		cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
		if err != nil {
			panic(err)
		}
		tb := cp.TB
		base := tb.Eng.Now() // pair setup already ran the engine
		crashAt := base.Add(simtime.Ms(2))
		restartAt := crashAt.Add(outage)
		tb.StartLeases(restartAt.Add(simtime.Ms(30)))
		if outage > 0 {
			tb.CrashController(crashAt, restartAt)
		}

		peer := cp.Server.Info()
		var okN, failN int
		tb.Eng.Spawn("connect-train", func(p *simtime.Proc) {
			dev, err := cp.ClientNode.Device(p)
			if err != nil {
				panic(err)
			}
			// A fixed train of attempts from the crash instant — the same
			// workload against every outage length, so the success rate is
			// directly comparable across rows. Failed attempts drift the
			// train (each burns a query timeout), exactly like a real
			// connect storm against a dead control plane.
			for i := 0; i < attempts; i++ {
				next := crashAt.Add(simtime.Ms(float64(i)))
				if p.Now() < next {
					p.Sleep(next.Sub(p.Now()))
				}
				pd, _ := dev.AllocPD(p)
				cq, _ := dev.CreateCQ(p, 4)
				qp, err := dev.CreateQP(p, pd, cq, cq, verbs.RC, verbs.QPCaps{MaxSendWR: 1, MaxRecvWR: 1})
				if err != nil {
					panic(err)
				}
				qp.Modify(p, verbs.Attr{ToState: verbs.StateInit})
				if err := qp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: peer.GID, DQPN: peer.QPN}); err != nil {
					failN++
				} else {
					okN++
				}
				qp.Destroy(p)
				cq.Destroy(p)
			}
		})
		reconverge := simtime.Duration(-1)
		if outage > 0 {
			tb.Eng.Spawn("reconverge-watch", func(p *simtime.Proc) {
				p.Sleep(restartAt.Sub(p.Now()))
				for {
					if len(tb.Ctrl.Dump(vni)) == 2 {
						reconverge = p.Now().Sub(restartAt)
						return
					}
					p.Sleep(simtime.Us(100))
				}
			})
		}
		tb.Eng.Run()

		total := okN + failN
		rate := 0.0
		if total > 0 {
			rate = 100 * float64(okN) / float64(total)
		}
		recon := "-"
		if reconverge >= 0 {
			recon = us(reconverge)
		}
		t.AddRow(fmt.Sprintf("%.0f", outage.Micros()/1000), total, okN,
			tb.Backend(0).Stats.GraceRenames, failN,
			fmt.Sprintf("%.0f", rate), recon, tb.Ctrl.Epoch())
	}
	t.Note("grace mode serves setups from cache entries younger than the grace TTL; an outage longer than the TTL is the first to fail attempts")
	t.Note("reconvergence is edge-driven: the first lease-renewal round after the restart re-registers every live endpoint under the new epoch")
	return t
}
