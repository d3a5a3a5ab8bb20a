package rnic

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"masq/internal/simtime"
)

// rcStream is one warm RC connection from device a to device b, driven a
// message at a time. A message is a WRITE, a SEND or a READ of up to
// streamMax bytes, four segments at the default MTU; at 1 KB a WRITE or a
// SEND is one data segment plus its ACK, and a READ one request plus one
// response. A SEND also takes a receive WQE from a backlog the responder
// keeps topped up.
type rcStream struct {
	e      *env
	op     WROp
	srcVA  uint64
	dstVA  uint64
	next   *simtime.Queue[int] // lengths of the messages to send
	sent   int                 // requester completions
	recvd  int                 // responder receive completions (SEND)
	failed []WC
}

const (
	streamMax   = 4 * 4096
	recvBacklog = 8
)

func newRCStream(tb testing.TB, op WROp) *rcStream {
	tb.Helper()
	e := newEnv(tb)
	s := &rcStream{e: e, op: op, next: simtime.NewQueue[int](e.eng)}
	e.eng.Spawn("setup", func(p *simtime.Proc) {
		c := makeEndpoint(tb, p, e.a, RC)
		srv := makeEndpoint(tb, p, e.b, RC)
		connect(tb, p, c, srv)
		var smr, rmr *MR
		s.srcVA, smr = e.a.buffer(tb, p, c.pd, streamMax, AccessLocalWrite)
		s.dstVA, rmr = e.b.buffer(tb, p, srv.pd, streamMax, AccessLocalWrite|AccessRemoteWrite|AccessRemoteRead)
		wr := SendWR{Op: op, LocalAddr: s.srcVA, LKey: smr.LKey, RemoteAddr: s.dstVA, RKey: rmr.RKey}
		e.eng.Spawn("requester", func(p *simtime.Proc) {
			for {
				wr.Len = s.next.Get(p)
				wr.WRID++
				if err := c.qp.PostSend(p, wr); err != nil {
					panic(err)
				}
				s.complete(c.scq.Wait(p), &s.sent)
			}
		})
		if op != WRSend {
			return
		}
		recv := RecvWR{Addr: s.dstVA, LKey: rmr.LKey, Len: streamMax}
		for i := 0; i < recvBacklog; i++ {
			srv.qp.PostRecv(p, recv)
		}
		e.eng.Spawn("responder", func(p *simtime.Proc) {
			for {
				s.complete(srv.rcq.Wait(p), &s.recvd)
				if err := srv.qp.PostRecv(p, recv); err != nil {
					panic(err)
				}
			}
		})
	})
	e.eng.Run()
	return s
}

func (s *rcStream) complete(wc WC, n *int) {
	if wc.Status != WCSuccess {
		s.failed = append(s.failed, wc)
	}
	*n++
}

// send posts one n-byte message and runs the engine until the requester
// and, for a SEND, the responder have its completion.
func (s *rcStream) send(n int) {
	sent, recvd := s.sent+1, s.recvd
	if s.op == WRSend {
		recvd++
	}
	s.next.Put(n)
	for s.sent < sent || s.recvd < recvd {
		s.e.eng.RunUntil(s.e.eng.Now().Add(simtime.Us(1)))
	}
}

// TestRCDataPathAllocatesNothing gates the RC data path's steady state: a
// warm 1 KB WRITE or SEND, through the TX pipeline, the link, the RX
// pipeline, the ACK back and the completions, makes no allocation. Wire
// frames come from the packet free list, decode arenas and the delayed
// actions from the device's pools, and the receive queue slides instead of
// regrowing. The one allocation left on the path, the retransmit timer's
// re-arm, comes once per RetransTimeout (4 ms) of virtual time, about
// every 2,000 messages here, so it rounds away in the per-message average.
func TestRCDataPathAllocatesNothing(t *testing.T) {
	for _, op := range []WROp{WRWrite, WRSend} {
		t.Run(op.String(), func(t *testing.T) {
			s := newRCStream(t, op)
			step := func() { s.send(1024) }
			for i := 0; i < 2*recvBacklog; i++ {
				step() // warm the pools, the queues and the free list
			}
			if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
				t.Fatalf("%v allocates %.1f per message, want 0", op, allocs)
			}
			if len(s.failed) > 0 {
				t.Fatalf("completions failed: %+v", s.failed)
			}
		})
	}
}

// TestRCReadAllocations gates a warm 1 KB RC READ: the request through the
// TX pipeline, the response built in the responder's scratch encoder and
// sent by its pooled emit jobs, and the requester's completion, a pooled
// retire job that names no WQE, so the READ's send WQE is recycled like any
// other. readAllocBudget may only go down.
func TestRCReadAllocations(t *testing.T) {
	const readAllocBudget = 0
	s := newRCStream(t, WRRead)
	step := func() { s.send(1024) }
	for i := 0; i < 2*recvBacklog; i++ {
		step() // warm the pools, the queues and the free list
	}
	if allocs := testing.AllocsPerRun(500, step); allocs > readAllocBudget {
		t.Fatalf("READ allocates %.1f per message, want at most %d", allocs, readAllocBudget)
	}
	if len(s.failed) > 0 {
		t.Fatalf("completions failed: %+v", s.failed)
	}
}

// BenchmarkRCSegmentAck measures one warm 1 KB RC message between two
// devices: a data segment through the TX pipeline, the link and the RX
// pipeline, its ACK back, and the completions. One op is one message.
func BenchmarkRCSegmentAck(b *testing.B) {
	for _, op := range []WROp{WRWrite, WRSend} {
		b.Run(op.String(), func(b *testing.B) {
			s := newRCStream(b, op)
			for i := 0; i < 2*recvBacklog; i++ {
				s.send(1024)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.send(1024)
			}
			b.StopTimer()
			if len(s.failed) > 0 {
				b.Fatalf("completions failed: %+v", s.failed)
			}
		})
	}
}

// streamDigest runs n seeded messages of 1 B to 16 KB with seeded payloads
// over a fresh rcStream, checks that each lands intact in the responder's
// buffer, and hashes every frame the link carried, with its time. A
// multi-segment message keeps several frames in flight, so a frame
// recycled while its packet still waits in the RX pipeline would carry a
// later segment's bytes into the responder's memory.
func streamDigest(tb testing.TB, op WROp, seed int64, n int) string {
	s := newRCStream(tb, op)
	tap := s.e.link.AttachTap()
	rng := rand.New(rand.NewSource(seed))
	payload := make([]byte, streamMax)
	got := make([]byte, streamMax)
	for i := 0; i < n; i++ {
		size := 1 + rng.Intn(streamMax)
		rng.Read(payload[:size])
		s.e.a.hva.Write(s.srcVA, payload[:size])
		s.send(size)
		s.e.b.hva.Read(s.dstVA, got[:size])
		if !bytes.Equal(got[:size], payload[:size]) {
			tb.Errorf("%v seed %d: message %d (%d B) arrived corrupted", op, seed, i, size)
			break
		}
	}
	if len(s.failed) > 0 {
		tb.Errorf("%v seed %d: completions failed: %+v", op, seed, s.failed)
	}
	h := sha256.New()
	for _, f := range tap.Frames() {
		var ts [8]byte
		binary.BigEndian.PutUint64(ts[:], uint64(f.TimeNanos))
		h.Write(ts[:])
		h.Write(f.Data)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestConcurrentTestbedsAreByteIdentical runs two testbeds on two
// goroutines at once. Their devices share the process-wide frame free list,
// so frames one testbed releases carry the other's traffic next; each
// testbed must still put on its link exactly the bytes it does alone.
// Under -race this also checks the free list's locking.
func TestConcurrentTestbedsAreByteIdentical(t *testing.T) {
	const n = 300
	ops := []WROp{WRWrite, WRSend}
	alone := make([]string, len(ops))
	for i, op := range ops {
		alone[i] = streamDigest(t, op, int64(i+1), n)
	}
	together := make([]string, len(ops))
	var wg sync.WaitGroup
	for i, op := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = streamDigest(t, op, int64(i+1), n)
		}()
	}
	wg.Wait()
	for i, op := range ops {
		if together[i] != alone[i] {
			t.Errorf("%v: digest %s beside another testbed, %s alone", op, together[i], alone[i])
		}
	}
}
