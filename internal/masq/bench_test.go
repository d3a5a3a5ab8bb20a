package masq

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// BenchmarkRCTInsertDelete measures one insert_conn plus delete_conn on an
// otherwise empty RCT table, the table work of one connection's life.
func BenchmarkRCTInsertDelete(b *testing.B) {
	eng := simtime.NewEngine()
	ct := NewRConntrack(nil)
	id := ConnID{VNI: 100, SrcVIP: packet.IP{10, 0, 0, 1}, DstVIP: packet.IP{10, 0, 0, 2}, QPN: 7}
	n := b.N
	eng.Spawn("backend", func(p *simtime.Proc) {
		for i := 0; i < n; i++ {
			ct.Insert(p, id, nil)
			ct.Delete(p, id.QPN)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}

// rctInsertDeleteAllocs is the committed allocation budget of one insert_conn
// plus delete_conn: the entry itself. It may only go down.
const rctInsertDeleteAllocs = 1

// TestRCTInsertDeleteAllocates gates the RCT table's work for one
// connection. The entry is its own node in its QPN's list and its endpoint
// pair's list, and a VNI keeps its pair map, so an insert and a delete on a
// warm table allocate nothing but the entry.
func TestRCTInsertDeleteAllocates(t *testing.T) {
	eng := simtime.NewEngine()
	ct := NewRConntrack(nil)
	id := ConnID{VNI: 100, SrcVIP: packet.IP{10, 0, 0, 1}, DstVIP: packet.IP{10, 0, 0, 2}, QPN: 7}
	ping := simtime.NewQueue[struct{}](eng)
	eng.Spawn("backend", func(p *simtime.Proc) {
		for {
			ping.Get(p)
			ct.Insert(p, id, nil)
			ct.Delete(p, id.QPN)
		}
	})
	step := func() {
		ping.Put(struct{}{})
		eng.RunUntil(eng.Now().Add(simtime.Ms(1)))
	}
	step() // warm the table's maps and the engine's pools
	if allocs := testing.AllocsPerRun(100, step); allocs > rctInsertDeleteAllocs {
		t.Fatalf("insert plus delete makes %.1f allocations, budget %d", allocs, rctInsertDeleteAllocs)
	}
}

// connectWalk is one connection's control path through the frontend:
// create a CQ and an RC QP, INIT, RTR toward peer, RTS, then destroy the
// QP and the CQ.
func connectWalk(p *simtime.Proc, dev verbs.Device, pd verbs.PD, peer packet.GID) error {
	cq, err := dev.CreateCQ(p, 16)
	if err != nil {
		return err
	}
	qp, err := dev.CreateQP(p, pd, cq, cq, rnic.RC, rnic.QPCaps{MaxSendWR: 4, MaxRecvWR: 4})
	if err != nil {
		return err
	}
	if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateInit}); err != nil {
		return err
	}
	if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateRTR, DGID: peer, DQPN: 42}); err != nil {
		return err
	}
	if err := qp.Modify(p, verbs.Attr{ToState: rnic.StateRTS}); err != nil {
		return err
	}
	if err := qp.Destroy(p); err != nil {
		return err
	}
	return cq.Destroy(p)
}

// forwardedConnect runs one connectWalk from peerBed's frontend toward its
// peer per step, on a guest proc that opened the device and allocated a
// PD once. The first step is a rename-cache miss; every later one is a
// hit.
func forwardedConnect(tb testing.TB) (step func()) {
	tb.Helper()
	b, fe, peer := peerBed(tb, nil)
	ping := simtime.NewQueue[struct{}](b.eng)
	b.eng.Spawn("guest", func(p *simtime.Proc) {
		dev, err := fe.Open(p)
		if err != nil {
			tb.Error(err)
			return
		}
		pd, err := dev.AllocPD(p)
		if err != nil {
			tb.Error(err)
			return
		}
		for {
			ping.Get(p)
			if err := connectWalk(p, dev, pd, peer); err != nil {
				tb.Error(err)
				return
			}
		}
	})
	return func() {
		ping.Put(struct{}{})
		b.eng.RunUntil(b.eng.Now().Add(simtime.Ms(10)))
	}
}

// forwardedConnectAllocs is the committed allocation budget of one warm
// connectWalk. It may only go down.
const forwardedConnectAllocs = 7

// TestForwardedConnectAllocates gates the allocations of one warm
// connection's walk through the frontend, the virtio ring and the backend.
func TestForwardedConnectAllocates(t *testing.T) {
	step := forwardedConnect(t)
	step() // warm the rename cache, the RCT table and the engine's pools
	if allocs := testing.AllocsPerRun(20, step); allocs > forwardedConnectAllocs {
		t.Fatalf("a warm forwarded connect makes %.1f allocations, budget %d", allocs, forwardedConnectAllocs)
	}
}

// BenchmarkForwardedConnect measures one warm connectWalk through the
// frontend: seven forwarded verbs, each a virtio round trip served by the
// backend. One op is one walk.
func BenchmarkForwardedConnect(b *testing.B) {
	step := forwardedConnect(b)
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
