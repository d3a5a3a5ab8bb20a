package mpi

import (
	"fmt"
	"testing"

	"masq/internal/cluster"
	"masq/internal/simtime"
)

func world(t *testing.T, mode cluster.Mode, ranks int) *World {
	t.Helper()
	tb := cluster.New(cluster.DefaultConfig())
	tb.AddTenant(100, "hpc")
	tb.AllowAll(100)
	nodes, err := SpawnRanks(tb, mode, 100, ranks)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWorld(tb, nodes, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSendRecvAcrossRanks(t *testing.T) {
	w := world(t, cluster.ModeMasQ, 2)
	err := w.Run(func(p *simtime.Proc, r *Rank) error {
		if r.ID == 0 {
			return r.Send(p, 1, []byte("rank0->rank1"))
		}
		msg, err := r.Recv(p, 0)
		if err != nil {
			return err
		}
		if string(msg) != "rank0->rank1" {
			return fmt.Errorf("got %q", msg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendRecvLoopbackRanks(t *testing.T) {
	// 4 ranks over 2 hosts: ranks 0,2 share a VM (loopback), 1,3 the other.
	w := world(t, cluster.ModeMasQ, 4)
	err := w.Run(func(p *simtime.Proc, r *Rank) error {
		// Ring: send to (id+1)%4, recv from (id-1+4)%4.
		n := w.Size
		pe, err := r.postSend(p, (r.ID+1)%n, []byte{byte(r.ID)})
		if err != nil {
			return err
		}
		in, err := r.Recv(p, (r.ID-1+n)%n)
		if err != nil {
			return err
		}
		pe.ep.SCQ.Wait(p)
		if int(in[0]) != (r.ID-1+n)%n {
			return fmt.Errorf("rank %d got token %d", r.ID, in[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestManyMessagesExceedSlots(t *testing.T) {
	// More messages than pre-posted slots: the slot ring must recycle.
	w := world(t, cluster.ModeHost, 2)
	const msgs = 50 // > 8 slots
	err := w.Run(func(p *simtime.Proc, r *Rank) error {
		if r.ID == 0 {
			for i := 0; i < msgs; i++ {
				if err := r.Send(p, 1, []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			in, err := r.Recv(p, 0)
			if err != nil {
				return err
			}
			if in[0] != byte(i) {
				return fmt.Errorf("out of order: got %d want %d", in[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := world(t, cluster.ModeMasQ, 4)
	var after [4]simtime.Time
	err := w.Run(func(p *simtime.Proc, r *Rank) error {
		// Stagger arrival: rank i sleeps i ms.
		p.Sleep(simtime.Duration(r.ID) * simtime.Ms(1))
		if err := r.Barrier(p); err != nil {
			return err
		}
		after[r.ID] = p.Now()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody may leave the barrier before the slowest rank arrived (3 ms).
	for i, ts := range after {
		if ts < simtime.Time(simtime.Ms(3)) {
			t.Errorf("rank %d left barrier at %v", i, ts)
		}
	}
}

func TestBcastBinomialTree(t *testing.T) {
	for _, ranks := range []int{2, 4, 7, 8} {
		w := world(t, cluster.ModeHost, ranks)
		payload := []byte("broadcast payload")
		err := w.Run(func(p *simtime.Proc, r *Rank) error {
			var data []byte
			if r.ID == 2%ranks {
				data = payload
			}
			out, err := r.Bcast(p, 2%ranks, data)
			if err != nil {
				return err
			}
			if string(out) != string(payload) {
				return fmt.Errorf("rank %d got %q", r.ID, out)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, ranks := range []int{2, 4, 6, 8} {
		w := world(t, cluster.ModeHost, ranks)
		want := float64(ranks * (ranks - 1) / 2) // sum of rank ids
		err := w.Run(func(p *simtime.Proc, r *Rank) error {
			vec := []float64{float64(r.ID), 2 * float64(r.ID)}
			out, err := r.Allreduce(p, vec)
			if err != nil {
				return err
			}
			if out[0] != want || out[1] != 2*want {
				return fmt.Errorf("rank %d got %v, want [%v %v]", r.ID, out, want, 2*want)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
	}
}

func TestOSULatencyShape(t *testing.T) {
	latFor := func(mode cluster.Mode) simtime.Duration {
		w := world(t, mode, 2)
		lat, err := PtToPtLatency(w, 4, 50)
		if err != nil {
			t.Fatal(err)
		}
		return lat
	}
	host := latFor(cluster.ModeHost)
	mq := latFor(cluster.ModeMasQ)
	ff := latFor(cluster.ModeFreeFlow)
	// Fig. 13a shape.
	if !(host < mq && mq < ff) {
		t.Fatalf("latency ordering host=%v masq=%v freeflow=%v", host, mq, ff)
	}
	if mq > simtime.Us(3) {
		t.Fatalf("masq 4B MPI latency = %v, want small single-digit µs", mq)
	}
}

func TestOSUBandwidthLargeMessages(t *testing.T) {
	w := world(t, cluster.ModeMasQ, 2)
	gbps, err := PtToPtBandwidth(w, 64*1024, 320, 32)
	if err != nil {
		t.Fatal(err)
	}
	if gbps < 30 || gbps > 40 {
		t.Fatalf("MPI bw = %.1f Gbps", gbps)
	}
}

func TestOSUCollectiveLatencies(t *testing.T) {
	w := world(t, cluster.ModeMasQ, 8)
	bcast, err := BcastLatency(w, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	w2 := world(t, cluster.ModeMasQ, 8)
	allred, err := AllreduceLatency(w2, 64, 10)
	if err != nil {
		t.Fatal(err)
	}
	if bcast <= 0 || allred <= 0 {
		t.Fatalf("bcast=%v allreduce=%v", bcast, allred)
	}
	// Allreduce does log2(n) full exchanges: costlier than a bcast wave.
	if allred < bcast/4 {
		t.Fatalf("allreduce=%v suspiciously below bcast=%v", allred, bcast)
	}
}

func TestMessageTooLargeRejected(t *testing.T) {
	w := world(t, cluster.ModeHost, 2)
	err := w.Run(func(p *simtime.Proc, r *Rank) error {
		if r.ID != 0 {
			return nil
		}
		if err := r.Send(p, 1, make([]byte, DefaultOptions().MaxMsg+1)); err == nil {
			return fmt.Errorf("oversized send accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
