package cluster

import (
	"fmt"
	"strings"
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// shardedWorkload builds a 4-host ToR testbed with one SR-IOV node per
// host and runs three RDMA pairs — (0←1), (2←3), (0←3) — each side as a
// proc on its own host's engine, syncing only through the out-of-band
// overlay channel and RDMA frames. It returns one virtual-time log per
// node; the logs must be byte-identical for every shard count.
func shardedWorkload(t *testing.T, shards int) []string {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Hosts = 4
	cfg.Shards = shards
	tb := New(cfg)
	const vni = 100
	tb.AddTenant(vni, "tenant")
	tb.AllowAll(vni)

	nodes := make([]*Node, 4)
	for i := range nodes {
		n, err := tb.NewNode(ModeSRIOV, i, vni, packet.NewIP(10, 0, 0, byte(i+1)))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
	}

	logs := make([]*strings.Builder, 4)
	for i := range logs {
		logs[i] = &strings.Builder{}
	}
	logf := func(i int, p *simtime.Proc, format string, args ...any) {
		fmt.Fprintf(logs[i], "%d n%d ", p.Now(), i)
		fmt.Fprintf(logs[i], format, args...)
		logs[i].WriteByte('\n')
	}

	serve := func(idx int, port uint16, tag string) {
		n := nodes[idx]
		tb.HostEngine(idx).Spawn(fmt.Sprintf("srv%d-%s", idx, tag), func(p *simtime.Proc) {
			ep, err := n.Setup(p, DefaultEndpointOpts())
			if err != nil {
				t.Errorf("server %d setup: %v", idx, err)
				return
			}
			peer, err := ep.ExchangeServer(p, port)
			if err != nil {
				t.Errorf("server %d exchange: %v", idx, err)
				return
			}
			if err := ep.ConnectRC(p, peer); err != nil {
				t.Errorf("server %d connect: %v", idx, err)
				return
			}
			ep.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: ep.Buf, LKey: ep.MR.LKey(), Len: ep.Len})
			wc := ep.RCQ.Wait(p)
			got := make([]byte, wc.ByteLen)
			n.Read(ep.Buf, got)
			logf(idx, p, "recv %s status=%v payload=%q", tag, wc.Status, got)
		})
	}
	dial := func(idx, serverIdx int, port uint16, tag string) {
		n := nodes[idx]
		tb.HostEngine(idx).Spawn(fmt.Sprintf("cli%d-%s", idx, tag), func(p *simtime.Proc) {
			ep, err := n.Setup(p, DefaultEndpointOpts())
			if err != nil {
				t.Errorf("client %d setup: %v", idx, err)
				return
			}
			peer, err := ep.ExchangeClient(p, nodes[serverIdx].VIP, port, simtime.Ms(50))
			if err != nil {
				t.Errorf("client %d exchange: %v", idx, err)
				return
			}
			if err := ep.ConnectRC(p, peer); err != nil {
				t.Errorf("client %d connect: %v", idx, err)
				return
			}
			logf(idx, p, "connected %s", tag)
			// Give the server a beat to post its receive.
			p.Sleep(simtime.Us(50))
			msg := []byte("hello-" + tag)
			n.Write(ep.Buf, msg)
			ep.QP.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: ep.Buf, LKey: ep.MR.LKey(), Len: len(msg)})
			wc := ep.SCQ.Wait(p)
			logf(idx, p, "sent %s status=%v", tag, wc.Status)
		})
	}

	serve(0, 7000, "a")
	dial(1, 0, 7000, "a")
	serve(2, 7001, "b")
	dial(3, 2, 7001, "b")
	serve(0, 7002, "c")
	dial(3, 0, 7002, "c")

	tb.Run()
	out := make([]string, 4)
	for i, b := range logs {
		if b.Len() == 0 {
			t.Fatalf("node %d logged nothing (shards=%d); pending procs: %v",
				i, shards, tb.PendingProcs())
		}
		out[i] = b.String()
	}
	return out
}

// TestShardedClusterDeterminismAB: the full stack — SR-IOV verbs, RNIC
// pipelines, overlay OOB, ToR switch — produces byte-identical virtual
// time logs on 1 (oracle), 2, and 4 shards.
func TestShardedClusterDeterminismAB(t *testing.T) {
	oracle := shardedWorkload(t, 1)
	for _, shards := range []int{2, 4} {
		got := shardedWorkload(t, shards)
		for i := range oracle {
			if got[i] != oracle[i] {
				t.Fatalf("node %d log diverges between 1 and %d shards:\noracle:\n%s\ngot:\n%s",
					i, shards, oracle[i], got[i])
			}
		}
	}
}

// TestShardedRejectsUnsupportedModes: with more than one shard, FreeFlow
// (which resolves peers through the shared fabric from host procs) is
// refused with a clear error, while ModeHost and MasQ — whose backends
// reach the controller through per-host exchange proxies — are admitted.
func TestShardedRejectsUnsupportedModes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 4
	cfg.Shards = 2
	tb := New(cfg)
	tb.AddTenant(100, "t")
	if _, err := tb.NewNode(ModeMasQ, 0, 100, packet.NewIP(10, 0, 0, 1)); err != nil {
		t.Fatalf("ModeMasQ refused on a 2-shard testbed: %v", err)
	}
	if _, err := tb.NewNode(ModeFreeFlow, 0, 100, packet.NewIP(10, 0, 0, 2)); err == nil {
		t.Fatal("ModeFreeFlow node allowed on a 2-shard testbed")
	}
	if _, err := tb.NewNode(ModeHost, 0, 100, packet.NewIP(10, 0, 0, 3)); err != nil {
		t.Fatalf("ModeHost refused: %v", err)
	}
}

// TestShardedMasqOracleMode: the full MasQ stack runs at any engine-shard
// count. Without engine shards the connect instant is the single-engine
// reference value; on a sharded engine every controller RPC rides a
// controller.Remote exchange hop each way, and the connect instant is the
// same for 1 (the oracle), 2 and 4 engine shards.
func TestShardedMasqOracleMode(t *testing.T) {
	run := func(shards int) simtime.Time {
		cfg := DefaultConfig()
		cfg.Shards = shards
		tb := New(cfg)
		const vni = 7
		tb.AddTenant(vni, "t")
		tb.AllowAll(vni)
		s, err := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(10, 0, 0, 1))
		if err != nil {
			t.Fatal(err)
		}
		c, err := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(10, 0, 0, 2))
		if err != nil {
			t.Fatal(err)
		}
		var connected simtime.Time
		tb.HostEngine(0).Spawn("srv", func(p *simtime.Proc) {
			ep, err := s.Setup(p, DefaultEndpointOpts())
			if err != nil {
				t.Error(err)
				return
			}
			peer, err := ep.ExchangeServer(p, 7000)
			if err != nil {
				t.Error(err)
				return
			}
			if err := ep.ConnectRC(p, peer); err != nil {
				t.Error(err)
			}
		})
		tb.HostEngine(1).Spawn("cli", func(p *simtime.Proc) {
			ep, err := c.Setup(p, DefaultEndpointOpts())
			if err != nil {
				t.Error(err)
				return
			}
			peer, err := ep.ExchangeClient(p, s.VIP, 7000, simtime.Ms(50))
			if err != nil {
				t.Error(err)
				return
			}
			if err := ep.ConnectRC(p, peer); err != nil {
				t.Error(err)
				return
			}
			connected = p.Now()
		})
		tb.Run()
		if connected == 0 {
			t.Fatalf("setup never completed (shards=%d); pending: %v", shards, tb.PendingProcs())
		}
		return connected
	}
	// Without engine shards no exchange hop sits on the connect path.
	const unshardedConnect = simtime.Time(4484284)
	if got := run(0); got != unshardedConnect {
		t.Fatalf("MasQ connect instant without engine shards = %d ns, want %d ns", got, unshardedConnect)
	}
	oracle := run(1)
	// One controller round trip on the connect path crosses the Remote
	// exchanges: PropDelay out, PropDelay back.
	if hop := 2 * DefaultConfig().PropDelay; oracle != unshardedConnect.Add(hop) {
		t.Fatalf("MasQ connect instant on 1 engine shard = %d ns, want %d ns (single engine + %v)",
			oracle, unshardedConnect.Add(hop), hop)
	}
	for _, shards := range []int{2, 4} {
		if got := run(shards); got != oracle {
			t.Fatalf("MasQ connect instant on %d engine shards = %d ns, 1-shard oracle = %d ns",
				shards, got, oracle)
		}
	}
}
