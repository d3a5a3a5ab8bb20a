// CtrlSharding: the sharded, replicated SDN controller. The mapping table
// is split across four shards by consistent hash of (VNI, vGID); each shard
// has a push-replicated standby. The example connects two RDMA pairs, then
// crashes one shard's primary mid-workload: its standby is promoted with
// the replicated table under a bumped epoch, lease renewals repair the
// replication-lag tail, and the other three shards — and the connections
// they own — never notice.
package main

import (
	"fmt"
	"log"

	"masq"
	"masq/internal/cluster"
	"masq/internal/controller"
	mqbackend "masq/internal/masq"
	"masq/internal/simtime"
)

func main() {
	fmt.Println("== sharded, replicated SDN controller ==")

	cfg := masq.DefaultConfig()
	cfg.Hosts = 3
	cfg.CtrlShards = 4        // four mapping-table shards
	cfg.Ctrl.Replicate = true // each with a push-replicated standby
	cfg.Ctrl.ReplDelay = masq.Us(20)
	cfg.Ctrl.FailoverDetect = masq.Ms(2)
	cfg.Masq.PushDown = true
	cfg.Masq.LeaseRenewEvery = masq.Ms(1)
	cfg.Ctrl.LeaseTTL = masq.Ms(20)
	tb := masq.NewTestbed(cfg)
	tb.AddTenant(100, "acme")
	tb.AllowAll(100)

	mk := func(host int, last byte) *cluster.Node {
		n, err := tb.NewNode(masq.ModeMasQ, host, 100, masq.NewIP(10, 0, 3, last))
		if err != nil {
			log.Fatal(err)
		}
		return n
	}
	a, b := mk(0, 1), mk(1, 2) // pair 1
	c, d := mk(2, 3), mk(1, 4) // pair 2

	// Connect both pairs.
	tb.Eng.Spawn("wire", func(p *simtime.Proc) {
		for i, pair := range [][2]*cluster.Node{{a, b}, {c, d}} {
			cep, err := pair[0].Setup(p, cluster.DefaultEndpointOpts())
			if err != nil {
				log.Fatal(err)
			}
			sep, err := pair[1].Setup(p, cluster.DefaultEndpointOpts())
			if err != nil {
				log.Fatal(err)
			}
			se, ce := cluster.Pair(tb.Eng, sep, cep, uint16(7000+i))
			if err := se.Wait(p); err != nil {
				log.Fatal(err)
			}
			if err := ce.Wait(p); err != nil {
				log.Fatal(err)
			}
		}
	})
	tb.Eng.Run()

	// Every node's (VNI, vGID) key hashes to one shard — that shard owns
	// its registration, lease, and rename pushes.
	fmt.Println("\nshard ownership:")
	for _, n := range []*cluster.Node{a, b, c, d} {
		vb := n.Provider.(*mqbackend.Frontend).VBond()
		k := controller.Key{VNI: vb.VNI(), VGID: vb.GID()}
		fmt.Printf("  %-3s %v -> shard %d\n", n.Name, vb.VIP(), tb.CtrlSharded.Owner(k))
	}

	vb := a.Provider.(*mqbackend.Frontend).VBond()
	victim := tb.CtrlSharded.Owner(controller.Key{VNI: vb.VNI(), VGID: vb.GID()})

	base := tb.Eng.Now()
	tb.StartLeases(base.Add(masq.Ms(40)))
	tb.Eng.At(base.Add(masq.Ms(10)), func() {
		fmt.Printf("\n[%v] crashing shard %d's primary (it owns %s's mapping)\n",
			masq.Ms(10), victim, a.Name)
		tb.CtrlSharded.CrashShard(victim)
	})

	stats := make([]controller.ShardStats, cfg.CtrlShards)
	tb.Eng.At(base.Add(masq.Ms(30)), func() {
		for i := range stats {
			stats[i] = tb.CtrlSharded.ShardStats(i)
		}
	})
	tb.Eng.Run()

	fmt.Printf("\n20 ms later (standby promoted after the %v detect window):\n", cfg.Ctrl.FailoverDetect)
	fmt.Println("  shard  epoch  leases  failovers  fenced  down")
	for i, st := range stats {
		mark := ""
		if i == victim {
			mark = "  <- promoted standby"
		}
		fmt.Printf("  %5d  %5d  %6d  %9d  %6d  %5v%s\n",
			i, st.Epoch, st.Leases, st.Failovers, st.FencedWrites, st.Down, mark)
	}
	fmt.Println("\nthe failed-over shard serves at epoch 2; the other shards kept epoch 1 —")
	fmt.Println("their leases, pushes, and connections were untouched the whole time.")
}
