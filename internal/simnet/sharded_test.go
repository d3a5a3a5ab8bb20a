package simnet

import (
	"fmt"
	"strings"
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// pingLog runs two hosts exchanging frames across a ConnectVia link on a
// ShardedEngine with the given shard count (host 0 on shard 0, host 1 on
// shard min(1, shards-1)) and returns each side's arrival log.
func pingLog(shards int) [2]string {
	se := simtime.NewSharded(shards)
	s0, s1 := 0, 0
	if shards > 1 {
		s1 = 1
	}
	a := NewPort(se.Shard(s0), "a")
	b := NewPort(se.Shard(s1), "b")
	ConnectVia(se, a, b, Gbps(40), simtime.Us(2))

	var logs [2]strings.Builder
	se.Shard(s0).Spawn("host-a", func(p *simtime.Proc) {
		for i := 0; i < 20; i++ {
			a.Send(frameTo(macB, macA, 100+i))
			p.Sleep(simtime.Us(1))
		}
	})
	se.Shard(s1).Spawn("host-b", func(p *simtime.Proc) {
		for i := 0; i < 20; i++ {
			b.Send(frameTo(macA, macB, 200+i))
			p.Sleep(simtime.Us(1))
		}
	})
	se.Shard(s0).Spawn("rx-a", func(p *simtime.Proc) {
		for {
			f := a.RX.Get(p)
			fmt.Fprintf(&logs[0], "%d a<-%d\n", p.Now(), len(f))
		}
	})
	se.Shard(s1).Spawn("rx-b", func(p *simtime.Proc) {
		for {
			f := b.RX.Get(p)
			fmt.Fprintf(&logs[1], "%d b<-%d\n", p.Now(), len(f))
		}
	})
	se.RunUntil(simtime.Time(simtime.Ms(1)))
	return [2]string{logs[0].String(), logs[1].String()}
}

// TestConnectViaCrossShardMatchesOracle: the same two-host frame exchange
// over a ConnectVia link yields byte-identical arrival logs whether both
// hosts share one shard (the oracle) or sit on separate shards.
func TestConnectViaCrossShardMatchesOracle(t *testing.T) {
	oracle := pingLog(1)
	got := pingLog(2)
	if oracle[0] == "" || oracle[1] == "" {
		t.Fatal("no frames delivered; test is vacuous")
	}
	if got != oracle {
		t.Fatalf("cross-shard run diverges from oracle:\noracle a:\n%sgot a:\n%s\noracle b:\n%sgot b:\n%s",
			oracle[0], got[0], oracle[1], got[1])
	}
}

// TestConnectViaMatchesConnectTiming: on one shard, a ConnectVia link
// delivers frames at exactly the same virtual instants as a plain Connect
// link with the same bandwidth and propagation delay — the exchange hop
// reorders nothing and adds no virtual latency.
func TestConnectViaMatchesConnectTiming(t *testing.T) {
	run := func(via bool) string {
		var log strings.Builder
		var eng *simtime.Engine
		var a, b *Port
		if via {
			se := simtime.NewSharded(1)
			eng = se.Shard(0)
			a, b = NewPort(eng, "a"), NewPort(eng, "b")
			ConnectVia(se, a, b, Gbps(40), simtime.Us(2))
			send(eng, a, b, &log)
			se.Run()
		} else {
			eng = simtime.NewEngine()
			a, b = NewPort(eng, "a"), NewPort(eng, "b")
			Connect(eng, a, b, Gbps(40), simtime.Us(2))
			send(eng, a, b, &log)
			eng.Run()
		}
		return log.String()
	}
	plain, via := run(false), run(true)
	if plain == "" {
		t.Fatal("no arrivals logged")
	}
	if plain != via {
		t.Fatalf("ConnectVia timing diverges from Connect:\nplain:\n%svia:\n%s", plain, via)
	}
}

func send(eng *simtime.Engine, a, b *Port, log *strings.Builder) {
	eng.Spawn("tx", func(p *simtime.Proc) {
		for i := 0; i < 5; i++ {
			a.Send(frameTo(macB, macA, 1000))
		}
	})
	eng.Spawn("rx", func(p *simtime.Proc) {
		for {
			f := b.RX.Get(p)
			fmt.Fprintf(log, "%d len=%d\n", p.Now(), len(f))
		}
	})
}

// TestLinkMinLatencyAndCrossShard: a link spanning shards is marked
// cross-shard (which gates fault injection and taps), and its propagation
// delay becomes the sharded engine's lookahead.
func TestLinkMinLatencyAndCrossShard(t *testing.T) {
	se := simtime.NewSharded(2)
	a := NewPort(se.Shard(0), "a")
	b := NewPort(se.Shard(1), "b")
	l := ConnectVia(se, a, b, Gbps(40), simtime.Us(3))
	if !l.cross {
		t.Fatal("link spanning shards 0 and 1 not marked cross-shard")
	}
	if se.Lookahead() != simtime.Us(3) {
		t.Fatalf("lookahead = %v, want 3µs", se.Lookahead())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AttachTap on a cross-shard link did not panic")
		}
	}()
	l.AttachTap()
}

// TestSwitchAttachPortVia: a ToR switch on shard 0 with uplinks to hosts
// on distinct shards forwards frames between them, byte-identically to
// the single-shard oracle.
func TestSwitchAttachPortVia(t *testing.T) {
	run := func(shards int) string {
		se := simtime.NewSharded(shards)
		sw := NewSwitch(se.Shard(0), "tor", simtime.Us(0.3))
		shardOf := func(i int) int { return i % shards }
		ports := make([]*Port, 3)
		for i := range ports {
			ports[i] = NewPort(se.Shard(shardOf(i)), "h"+itoa(i))
			sw.AttachPortVia(se, ports[i], Gbps(40), simtime.Us(1))
		}
		var logs [3]strings.Builder
		for i := range ports {
			i := i
			p := ports[i]
			se.Shard(shardOf(i)).Spawn("rx", func(pr *simtime.Proc) {
				for {
					f := p.RX.Get(pr)
					fmt.Fprintf(&logs[i], "%d h%d<-%v\n", pr.Now(), i, f.SrcMAC())
				}
			})
		}
		mac := func(i int) packet.MAC { return packet.MAC{2, 0, 0, 0, 0, byte(i)} }
		for i := range ports {
			i := i
			p := ports[i]
			se.Shard(shardOf(i)).Spawn("tx", func(pr *simtime.Proc) {
				for k := 0; k < 10; k++ {
					dst := (i + 1 + k%2) % 3
					p.Send(frameTo(mac(dst), mac(i), 64))
					pr.Sleep(simtime.Us(2))
				}
			})
		}
		se.RunUntil(simtime.Time(simtime.Ms(1)))
		return logs[0].String() + logs[1].String() + logs[2].String()
	}
	oracle := run(1)
	if oracle == "" {
		t.Fatal("no frames forwarded")
	}
	for _, n := range []int{2, 3} {
		if got := run(n); got != oracle {
			t.Fatalf("%d-shard switch run diverges from oracle:\n%s\nvs\n%s", n, oracle, got)
		}
	}
}
