package rnic

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// TestReliabilityUnderRandomLoss is the transport's core property test:
// under seeded random loss in both directions, every message is delivered
// exactly once, in order, with intact payloads.
func TestReliabilityUnderRandomLoss(t *testing.T) {
	for _, lossPct := range []int{1, 5, 20} {
		lossPct := lossPct
		t.Run(fmt.Sprintf("loss%d%%", lossPct), func(t *testing.T) {
			pr := DefaultParams()
			pr.RetransTimeout = simtime.Us(300)
			pr.MaxRetry = 1000 // survive heavy loss
			e := newEnvParams(t, pr)
			rng := rand.New(rand.NewSource(int64(lossPct)))
			e.link.Drop = func(simnet.Frame) bool { return rng.Intn(100) < lossPct }

			const msgs = 60
			var got [][]byte
			e.eng.Spawn("test", func(p *simtime.Proc) {
				c := makeEndpoint(t, p, e.a, RC)
				s := makeEndpoint(t, p, e.b, RC)
				connect(t, p, c, s)
				sva, smr := e.a.buffer(t, p, c.pd, 8192, AccessLocalWrite)
				rva, rmr := e.b.buffer(t, p, s.pd, 64*msgs, AccessLocalWrite)

				e.eng.Spawn("receiver", func(p *simtime.Proc) {
					for i := 0; i < msgs; i++ {
						s.qp.PostRecv(p, RecvWR{WRID: uint64(i), Addr: rva + uint64(i*64), LKey: rmr.LKey, Len: 64})
					}
					for i := 0; i < msgs; i++ {
						wc := s.rcq.Wait(p)
						if wc.Status != WCSuccess {
							t.Errorf("recv %d: %v", i, wc.Status)
							return
						}
						buf := make([]byte, wc.ByteLen)
						e.b.hva.Read(rva+wc.WRID*64, buf)
						got = append(got, buf)
					}
				})
				e.eng.Spawn("sender", func(p *simtime.Proc) {
					for i := 0; i < msgs; i++ {
						msg := []byte(fmt.Sprintf("message-%03d", i))
						e.a.hva.Write(sva, msg)
						c.qp.PostSend(p, SendWR{WRID: uint64(i), Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: len(msg)})
						if wc := c.scq.Wait(p); wc.Status != WCSuccess {
							t.Errorf("send %d: %v", i, wc.Status)
							return
						}
					}
				})
			})
			e.eng.Run()
			if len(got) != msgs {
				t.Fatalf("delivered %d/%d messages", len(got), msgs)
			}
			for i, g := range got {
				want := fmt.Sprintf("message-%03d", i)
				if string(g) != want {
					t.Fatalf("msg %d = %q, want %q (ordering or duplication broken)", i, g, want)
				}
			}
			if e.a.dev.Stats.Retransmits == 0 {
				t.Error("no retransmissions despite loss — drop hook inert?")
			}
		})
	}
}

// TestWriteIntegrityUnderLoss streams multi-packet RDMA WRITEs through a
// lossy link and checks the remote buffer bit-for-bit.
func TestWriteIntegrityUnderLoss(t *testing.T) {
	pr := DefaultParams()
	pr.RetransTimeout = simtime.Us(300)
	pr.MaxRetry = 1000
	e := newEnvParams(t, pr)
	rng := rand.New(rand.NewSource(99))
	e.link.Drop = func(simnet.Frame) bool { return rng.Intn(100) < 10 }

	const size = 48 * 1024 // 12 packets
	src := make([]byte, size)
	rng.Read(src)
	var got []byte
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, size, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, size, AccessLocalWrite|AccessRemoteWrite)
		e.a.hva.Write(sva, src)
		c.qp.PostSend(p, SendWR{
			WRID: 1, Op: WRWrite, LocalAddr: sva, LKey: smr.LKey, Len: size,
			RemoteAddr: rva, RKey: rmr.RKey,
		})
		if wc := c.scq.Wait(p); wc.Status != WCSuccess {
			t.Errorf("write: %v", wc.Status)
			return
		}
		got = make([]byte, size)
		e.b.hva.Read(rva, got)
	})
	e.eng.Run()
	if !bytes.Equal(got, src) {
		t.Fatal("written data corrupted by retransmission path")
	}
}

// TestReadWritePipelineUnderLoss keeps up to 8 READs and WRITEs of 1 B to
// 9000 B (up to three segments at MTU 4096) in flight on one QP under
// seeded random loss in both directions. Every WQE must complete once, in
// order and successfully, each READ with the responder's bytes and each
// WRITE with the requester's. Go-back-N rewinds land on READs whose
// responses were lost and on WQEs whose late ACK then retires them while
// they are being sent again.
func TestReadWritePipelineUnderLoss(t *testing.T) {
	const seg, n = 9000, 32
	for _, lossPct := range []int{5, 10, 25} {
		for seed := int64(1); seed <= 8; seed++ {
			t.Run(fmt.Sprintf("loss%d%%/seed%d", lossPct, seed), func(t *testing.T) {
				pr := DefaultParams()
				pr.RetransTimeout = simtime.Us(300)
				pr.MaxRetry = 1000
				e := newEnvParams(t, pr)
				rng := rand.New(rand.NewSource(seed))
				lost := 0
				e.link.Drop = func(simnet.Frame) bool {
					if rng.Intn(100) < lossPct {
						lost++
						return true
					}
					return false
				}
				rsrc, lsrc := make([]byte, seg), make([]byte, seg)
				rng.Read(rsrc)
				rng.Read(lsrc)
				ops := make([]SendWR, n)
				var wcs []WC
				var lva, rva uint64
				e.eng.Spawn("test", func(p *simtime.Proc) {
					c := makeEndpoint(t, p, e.a, RC)
					s := makeEndpoint(t, p, e.b, RC)
					connect(t, p, c, s)
					// Each side's buffer: its source segment, then one
					// destination segment per WQE.
					var lmr, rmr *MR
					lva, lmr = e.a.buffer(t, p, c.pd, (n+1)*seg, AccessLocalWrite)
					rva, rmr = e.b.buffer(t, p, s.pd, (n+1)*seg, AccessLocalWrite|AccessRemoteRead|AccessRemoteWrite)
					e.a.hva.Write(lva, lsrc)
					e.b.hva.Write(rva, rsrc)
					for i := range ops {
						dst := uint64((i + 1) * seg)
						ops[i] = SendWR{WRID: uint64(i), Op: WRWrite, LocalAddr: lva, LKey: lmr.LKey, Len: 1 + rng.Intn(seg), RemoteAddr: rva + dst, RKey: rmr.RKey}
						if rng.Intn(2) == 0 {
							ops[i].Op, ops[i].LocalAddr, ops[i].RemoteAddr = WRRead, lva+dst, rva
						}
					}
					for i := 0; i < n; {
						burst := min(1+rng.Intn(8), n-i)
						for _, wr := range ops[i : i+burst] {
							if err := c.qp.PostSend(p, wr); err != nil {
								t.Error(err)
								return
							}
						}
						for ; burst > 0; burst-- {
							wc, ok := c.scq.WaitTimeout(p, simtime.Ms(200))
							if !ok {
								return
							}
							wcs = append(wcs, wc)
							i++
						}
					}
				})
				e.eng.RunUntil(simtime.Time(simtime.Ms(10_000)))
				if len(wcs) != n {
					t.Fatalf("%d of %d WQEs completed: %+v", len(wcs), n, wcs)
				}
				for i, wc := range wcs {
					if wc.WRID != uint64(i) || wc.Status != WCSuccess || wc.Op != ops[i].Op {
						t.Fatalf("completion %d = %+v, want WRID %d %v success", i, wc, i, ops[i].Op)
					}
				}
				got := make([]byte, seg)
				for i, wr := range ops {
					got := got[:wr.Len]
					want := rsrc[:wr.Len]
					if wr.Op == WRRead {
						e.a.hva.Read(wr.LocalAddr, got)
					} else {
						e.b.hva.Read(wr.RemoteAddr, got)
						want = lsrc[:wr.Len]
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("WQE %d (%v of %d B): data differs", i, wr.Op, wr.Len)
					}
				}
				if lost == 0 {
					t.Error("the link lost no frame")
				}
			})
		}
	}
}

// TestInterleavedSendAndWrite mixes operation types on one QP and checks
// completions arrive in posting order (RC ordering guarantee).
func TestInterleavedSendAndWrite(t *testing.T) {
	e := newEnv(t)
	var order []uint64
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64*1024, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64*1024, AccessLocalWrite|AccessRemoteWrite)
		for i := 0; i < 8; i++ {
			s.qp.PostRecv(p, RecvWR{WRID: uint64(i), Addr: rva, LKey: rmr.LKey, Len: 4096})
		}
		for i := 0; i < 16; i++ {
			wr := SendWR{WRID: uint64(i), LocalAddr: sva, LKey: smr.LKey, Len: 1000 + i*128}
			if i%2 == 0 {
				wr.Op = WRSend
			} else {
				wr.Op = WRWrite
				wr.RemoteAddr = rva + 8192
				wr.RKey = rmr.RKey
			}
			if err := c.qp.PostSend(p, wr); err != nil {
				t.Error(err)
				return
			}
		}
		for i := 0; i < 16; i++ {
			wc := c.scq.Wait(p)
			if wc.Status != WCSuccess {
				t.Errorf("wc %d: %v", i, wc.Status)
				return
			}
			order = append(order, wc.WRID)
		}
	})
	e.eng.Run()
	for i, id := range order {
		if id != uint64(i) {
			t.Fatalf("completion order %v violates RC ordering", order)
		}
	}
}

// TestManyQPsManyMessages is a soak: 24 QP pairs exchange messages
// concurrently over one link; every payload must land at its own peer.
func TestManyQPsManyMessages(t *testing.T) {
	e := newEnv(t)
	const pairs = 24
	const msgsPer = 10
	delivered := make([]int, pairs)
	e.eng.Spawn("setup", func(p *simtime.Proc) {
		for i := 0; i < pairs; i++ {
			i := i
			c := makeEndpoint(t, p, e.a, RC)
			s := makeEndpoint(t, p, e.b, RC)
			connect(t, p, c, s)
			sva, smr := e.a.buffer(t, p, c.pd, 4096, AccessLocalWrite)
			rva, rmr := e.b.buffer(t, p, s.pd, 4096, AccessLocalWrite)
			e.eng.Spawn(fmt.Sprintf("rx%d", i), func(p *simtime.Proc) {
				for m := 0; m < msgsPer; m++ {
					s.qp.PostRecv(p, RecvWR{WRID: uint64(m), Addr: rva, LKey: rmr.LKey, Len: 64})
					wc := s.rcq.Wait(p)
					if wc.Status != WCSuccess {
						t.Errorf("pair %d recv: %v", i, wc.Status)
						return
					}
					buf := make([]byte, wc.ByteLen)
					e.b.hva.Read(rva, buf)
					want := fmt.Sprintf("p%02d-m%02d", i, m)
					if string(buf) != want {
						t.Errorf("pair %d got %q want %q (cross-QP leak?)", i, buf, want)
						return
					}
					delivered[i]++
				}
			})
			e.eng.Spawn(fmt.Sprintf("tx%d", i), func(p *simtime.Proc) {
				for m := 0; m < msgsPer; m++ {
					msg := []byte(fmt.Sprintf("p%02d-m%02d", i, m))
					e.a.hva.Write(sva, msg)
					c.qp.PostSend(p, SendWR{WRID: uint64(m), Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: len(msg)})
					if wc := c.scq.Wait(p); wc.Status != WCSuccess {
						t.Errorf("pair %d send: %v", i, wc.Status)
						return
					}
				}
			})
		}
	})
	e.eng.Run()
	for i, n := range delivered {
		if n != msgsPer {
			t.Fatalf("pair %d delivered %d/%d", i, n, msgsPer)
		}
	}
}

// TestTokenBucketQuick: the bucket never admits more than burst + rate·t
// bits over any horizon.
func TestTokenBucketQuick(t *testing.T) {
	f := func(rateMbps uint16, events []uint16) bool {
		rate := float64(rateMbps%1000+1) * 1e6
		burst := 32768.0
		tb := newTokenBucket(rate, burst)
		now := simtime.Time(0)
		admitted := 0.0
		for _, ev := range events {
			now = now.Add(simtime.Duration(ev) * simtime.Microsecond)
			bits := float64(ev%2048) + 1
			if ok, _ := tb.tryTake(now, bits); ok {
				admitted += bits
			}
		}
		limit := burst + rate*float64(now)/1e9 + 1
		return admitted <= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestLRUCacheQuick: after any operation sequence the cache holds at most
// cap entries, and a just-touched key is always present.
func TestLRUCacheQuick(t *testing.T) {
	f := func(keys []uint16) bool {
		c := newLRU(8)
		for _, k := range keys {
			c.touch(uint32(k % 64))
			if c.n > 8 {
				return false
			}
			if !c.touch(uint32(k % 64)) { // immediate re-touch must hit
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRU(3)
	c.touch(1)
	c.touch(2)
	c.touch(3)
	c.touch(1)      // order (LRU→MRU): 2,3,1
	c.touch(4)      // evicts 2 → 3,1,4
	if c.touch(2) { // miss; inserting 2 evicts 3 → 1,4,2
		t.Fatal("2 should have been evicted")
	}
	if c.touch(3) {
		t.Fatal("3 should have been evicted by 2's insert")
	}
	// 3's insert evicted 1 → present: 4,2,3.
	if !c.touch(4) || !c.touch(2) || !c.touch(3) {
		t.Fatal("recently used entries evicted")
	}
}

// TestSQDStopsNewTransmissions: moving to SQD drains but does not emit
// new packets; returning to RTS resumes.
func TestSQDDrainAndResume(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		for i := 0; i < 2; i++ {
			s.qp.PostRecv(p, RecvWR{WRID: uint64(i), Addr: rva, LKey: rmr.LKey, Len: 64})
		}
		// Drain the send queue.
		if err := e.a.dev.ModifyQP(p, c.qp, Attr{ToState: StateSQD}); err != nil {
			t.Error(err)
			return
		}
		if err := c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4}); err != nil {
			t.Errorf("post in SQD should queue: %v", err)
			return
		}
		p.Sleep(simtime.Ms(2))
		if e.a.dev.Stats.TxMsgs != 0 {
			t.Error("SQD emitted a message")
		}
		// Resume.
		if err := e.a.dev.ModifyQP(p, c.qp, Attr{ToState: StateRTS}); err != nil {
			t.Error(err)
			return
		}
		wc := s.rcq.Wait(p)
		if wc.Status != WCSuccess {
			t.Errorf("post-resume recv: %v", wc.Status)
		}
	})
	e.eng.Run()
}

// TestRNRRetryExhaustionErrorsOut: a receiver that never posts a buffer
// eventually fails the sender with RNR_RETRY_EXC_ERR.
func TestRNRRetryExhaustionErrorsOut(t *testing.T) {
	pr := DefaultParams()
	pr.MaxRetry = 3
	e := newEnvParams(t, pr)
	var wc WC
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4})
		wc = c.scq.Wait(p)
	})
	e.eng.Run()
	if wc.Status != WCRNRRetryExceeded {
		t.Fatalf("WC = %+v, want RNR_RETRY_EXC_ERR", wc)
	}
}

// TestUnsignaledSendsSuppressSuccessCQEs: only the periodic signaled WR
// completes; flushes still surface errors for unsignaled ones.
func TestUnsignaledSendsSuppressSuccessCQEs(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		for i := 0; i < 8; i++ {
			s.qp.PostRecv(p, RecvWR{WRID: uint64(i), Addr: rva, LKey: rmr.LKey, Len: 64})
		}
		for i := 0; i < 8; i++ {
			wr := SendWR{WRID: uint64(i), Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4, Unsignaled: i != 7}
			if err := c.qp.PostSend(p, wr); err != nil {
				t.Error(err)
				return
			}
		}
		wc := c.scq.Wait(p)
		if wc.WRID != 7 || wc.Status != WCSuccess {
			t.Errorf("signaled WC = %+v", wc)
		}
		p.Sleep(simtime.Ms(1))
		if c.scq.Len() != 0 {
			t.Errorf("unsignaled sends produced %d extra CQEs", c.scq.Len())
		}
		// All eight messages arrived regardless.
		if got := s.rcq.Len(); got != 8 {
			t.Errorf("receiver completed %d, want 8", got)
		}
	})
	e.eng.Run()
}

// TestUnsignaledFlushStillErrors: a flush must surface even suppressed WRs
// (the application needs to learn about the failure).
func TestUnsignaledFlushStillErrors(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		// No receive posted: the send stays queued behind RNR retries.
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4, Unsignaled: true})
		e.a.dev.ModifyQP(p, c.qp, Attr{ToState: StateError})
		wc, ok := c.scq.WaitTimeout(p, simtime.Ms(1))
		if !ok || wc.Status != WCFlushErr {
			t.Errorf("flush WC = %+v ok=%v", wc, ok)
		}
		_ = s
	})
	e.eng.Run()
}

// TestInlineSendNeedsNoMR: inline payloads travel without any memory
// registration and the post-time copy protects against buffer reuse.
func TestInlineSendNeedsNoMR(t *testing.T) {
	e := newEnv(t)
	var got []byte
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite)
		s.qp.PostRecv(p, RecvWR{WRID: 1, Addr: rva, LKey: rmr.LKey, Len: 64})
		buf := []byte("inline payload!")
		if err := c.qp.PostSend(p, SendWR{WRID: 2, Op: WRSend, InlineData: buf}); err != nil {
			t.Error(err)
			return
		}
		// Clobber the app buffer immediately: the NIC must have copied.
		for i := range buf {
			buf[i] = 'X'
		}
		wc := s.rcq.Wait(p)
		if wc.Status != WCSuccess || wc.ByteLen != 15 {
			t.Errorf("recv WC = %+v", wc)
			return
		}
		got = make([]byte, wc.ByteLen)
		e.b.hva.Read(rva, got)
		c.scq.Wait(p)
	})
	e.eng.Run()
	if string(got) != "inline payload!" {
		t.Fatalf("got %q (inline copy missing?)", got)
	}
}

// TestInlineLimits: oversize inline and inline READ are rejected at post.
func TestInlineLimits(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		if err := c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, InlineData: make([]byte, 4096)}); err == nil {
			t.Error("oversize inline accepted")
		}
		if err := c.qp.PostSend(p, SendWR{WRID: 2, Op: WRRead, InlineData: []byte("x")}); err == nil {
			t.Error("inline READ accepted")
		}
	})
	e.eng.Run()
}

// TestInlineWrite: inline also works for RDMA WRITE (common for doorbells
// and small notifications).
func TestInlineWrite(t *testing.T) {
	e := newEnv(t)
	var got []byte
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteWrite)
		if err := c.qp.PostSend(p, SendWR{
			WRID: 1, Op: WRWrite, InlineData: []byte("poke"),
			RemoteAddr: rva, RKey: rmr.RKey,
		}); err != nil {
			t.Error(err)
			return
		}
		wc := c.scq.Wait(p)
		if wc.Status != WCSuccess {
			t.Errorf("WC = %+v", wc)
		}
		got = make([]byte, 4)
		e.b.hva.Read(rva, got)
	})
	e.eng.Run()
	if string(got) != "poke" {
		t.Fatalf("remote memory = %q", got)
	}
}

// TestAtomicFetchAdd: the canonical distributed counter — every increment
// returns the pre-image, all distinct, memory ends at the sum.
func TestAtomicFetchAdd(t *testing.T) {
	e := newEnv(t)
	var origs []uint64
	var final uint64
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		lva, lmr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteAtomic)
		for i := 0; i < 10; i++ {
			if err := c.qp.PostSend(p, SendWR{
				WRID: uint64(i), Op: WRAtomicFAdd,
				LocalAddr: lva, LKey: lmr.LKey,
				RemoteAddr: rva, RKey: rmr.RKey, SwapAdd: 7,
			}); err != nil {
				t.Error(err)
				return
			}
			wc := c.scq.Wait(p)
			if wc.Status != WCSuccess || wc.ByteLen != 8 {
				t.Errorf("atomic WC = %+v", wc)
				return
			}
			var buf [8]byte
			e.a.hva.Read(lva, buf[:])
			origs = append(origs, binaryBE(buf))
		}
		var fb [8]byte
		e.b.hva.Read(rva, fb[:])
		final = binaryBE(fb)
	})
	e.eng.Run()
	if len(origs) != 10 {
		t.Fatalf("completed %d atomics", len(origs))
	}
	for i, o := range origs {
		if o != uint64(i*7) {
			t.Fatalf("origs = %v; fetch-add not serialized", origs)
		}
	}
	if final != 70 {
		t.Fatalf("remote value = %d, want 70", final)
	}
}

func binaryBE(b [8]byte) uint64 {
	var v uint64
	for _, x := range b {
		v = v<<8 | uint64(x)
	}
	return v
}

// TestAtomicCompareSwap: succeeds only when the comparator matches.
func TestAtomicCompareSwap(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		lva, lmr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteAtomic)
		cas := func(compare, swap uint64) uint64 {
			c.qp.PostSend(p, SendWR{
				WRID: 1, Op: WRAtomicCSwap, LocalAddr: lva, LKey: lmr.LKey,
				RemoteAddr: rva, RKey: rmr.RKey, Compare: compare, SwapAdd: swap,
			})
			if wc := c.scq.Wait(p); wc.Status != WCSuccess {
				t.Fatalf("cas WC = %+v", wc)
			}
			var buf [8]byte
			e.a.hva.Read(lva, buf[:])
			return binaryBE(buf)
		}
		if got := cas(0, 42); got != 0 { // 0 -> 42 succeeds
			t.Errorf("cas1 orig = %d", got)
		}
		if got := cas(0, 99); got != 42 { // comparator stale: fails
			t.Errorf("cas2 orig = %d", got)
		}
		var fb [8]byte
		e.b.hva.Read(rva, fb[:])
		if binaryBE(fb) != 42 { // failed CAS left memory unchanged
			t.Errorf("remote = %d, want 42", binaryBE(fb))
		}
		if got := cas(42, 7); got != 42 { // correct comparator: swaps
			t.Errorf("cas3 orig = %d", got)
		}
	})
	e.eng.Run()
}

// TestAtomicRequiresPermissionAndAlignment.
func TestAtomicRequiresPermissionAndAlignment(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		lva, lmr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		// No AccessRemoteAtomic on the target.
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteWrite)
		c.qp.PostSend(p, SendWR{
			WRID: 1, Op: WRAtomicFAdd, LocalAddr: lva, LKey: lmr.LKey,
			RemoteAddr: rva, RKey: rmr.RKey, SwapAdd: 1,
		})
		if wc := c.scq.Wait(p); wc.Status != WCRemoteAccessErr {
			t.Errorf("permission WC = %+v", wc)
		}
	})
	e.eng.Run()
	// Misaligned target on a permitted MR.
	e2 := newEnv(t)
	e2.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e2.a, RC)
		s := makeEndpoint(t, p, e2.b, RC)
		connect(t, p, c, s)
		lva, lmr := e2.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e2.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteAtomic)
		c.qp.PostSend(p, SendWR{
			WRID: 1, Op: WRAtomicFAdd, LocalAddr: lva, LKey: lmr.LKey,
			RemoteAddr: rva + 3, RKey: rmr.RKey, SwapAdd: 1,
		})
		if wc := c.scq.Wait(p); wc.Status != WCRemoteAccessErr {
			t.Errorf("alignment WC = %+v", wc)
		}
	})
	e2.eng.Run()
}

// TestAtomicDuplicateNotReexecuted: a retransmitted fetch-add must be
// answered from the responder's history, not applied twice.
func TestAtomicDuplicateNotReexecuted(t *testing.T) {
	pr := DefaultParams()
	pr.RetransTimeout = simtime.Us(200)
	pr.MaxRetry = 100
	e := newEnvParams(t, pr)
	dropped := false
	e.link.Drop = func(f simnet.Frame) bool {
		// Drop the FIRST atomic ack (B→A) so A retransmits the request.
		if dropped || f.SrcMAC() != (packet.MAC{2, 0, 0, 0, 0, 2}) {
			return false
		}
		pkt, err := packet.Decode(f)
		if err != nil || pkt.BTH() == nil || pkt.BTH().OpCode != packet.OpAtomicAcknowledge {
			return false
		}
		dropped = true
		return true
	}
	var orig, final uint64
	e.eng.Spawn("test", func(p *simtime.Proc) {
		c := makeEndpoint(t, p, e.a, RC)
		s := makeEndpoint(t, p, e.b, RC)
		connect(t, p, c, s)
		lva, lmr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		rva, rmr := e.b.buffer(t, p, s.pd, 64, AccessLocalWrite|AccessRemoteAtomic)
		c.qp.PostSend(p, SendWR{
			WRID: 1, Op: WRAtomicFAdd, LocalAddr: lva, LKey: lmr.LKey,
			RemoteAddr: rva, RKey: rmr.RKey, SwapAdd: 5,
		})
		if wc := c.scq.Wait(p); wc.Status != WCSuccess {
			t.Errorf("WC = %+v", wc)
			return
		}
		var b [8]byte
		e.a.hva.Read(lva, b[:])
		orig = binaryBE(b)
		e.b.hva.Read(rva, b[:])
		final = binaryBE(b)
	})
	e.eng.Run()
	if !dropped {
		t.Fatal("ack drop never fired")
	}
	if orig != 0 {
		t.Fatalf("orig = %d, want 0", orig)
	}
	if final != 5 {
		t.Fatalf("remote = %d, want 5 (duplicate was re-executed?)", final)
	}
}

// TestSRQSharedAcrossQPs: two senders feed one receiver whose QPs share a
// single SRQ pool; every message consumes exactly one shared WQE.
func TestSRQSharedAcrossQPs(t *testing.T) {
	e := newEnv(t)
	var got []string
	e.eng.Spawn("test", func(p *simtime.Proc) {
		// Receiver: one SRQ, one CQ, two QPs drawing from the pool.
		fn := e.b.dev.PF()
		pd := e.b.dev.AllocPD(p, fn)
		cq := e.b.dev.CreateCQ(p, fn, 64)
		srq := e.b.dev.CreateSRQ(p, fn, 32)
		rva, rmr := e.b.buffer(t, p, pd, 16*64, AccessLocalWrite)
		for i := 0; i < 16; i++ {
			if err := srq.PostRecv(p, RecvWR{WRID: uint64(i), Addr: rva + uint64(i*64), LKey: rmr.LKey, Len: 64}); err != nil {
				t.Error(err)
				return
			}
		}
		caps := DefaultCaps()
		caps.SRQ = srq
		mkSrv := func() *endpoint {
			qp := e.b.dev.CreateQP(p, fn, pd, cq, cq, RC, caps)
			return &endpoint{n: e.b, fn: fn, pd: pd, scq: cq, rcq: cq, qp: qp}
		}
		s1, s2 := mkSrv(), mkSrv()
		c1 := makeEndpoint(t, p, e.a, RC)
		c2 := makeEndpoint(t, p, e.a, RC)
		connect(t, p, c1, s1)
		connect(t, p, c2, s2)

		sva1, smr1 := e.a.buffer(t, p, c1.pd, 4096, AccessLocalWrite)
		sva2, smr2 := e.a.buffer(t, p, c2.pd, 4096, AccessLocalWrite)
		send := func(c *endpoint, va uint64, mr *MR, msg string) {
			e.a.hva.Write(va, []byte(msg))
			c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: va, LKey: mr.LKey, Len: len(msg)})
			if wc := c.scq.Wait(p); wc.Status != WCSuccess {
				t.Errorf("send %q: %v", msg, wc.Status)
			}
		}
		send(c1, sva1, smr1, "from-qp1-a")
		send(c2, sva2, smr2, "from-qp2-a")
		send(c1, sva1, smr1, "from-qp1-b")
		for i := 0; i < 3; i++ {
			wc := cq.Wait(p)
			if wc.Status != WCSuccess || !wc.Recv {
				t.Errorf("recv wc = %+v", wc)
				return
			}
			buf := make([]byte, wc.ByteLen)
			e.b.hva.Read(rva+wc.WRID*64, buf)
			got = append(got, string(buf))
		}
		if srq.Len() != 13 {
			t.Errorf("SRQ holds %d WQEs, want 13 (3 consumed)", srq.Len())
		}
		// QPs on an SRQ must refuse private posts.
		if err := s1.qp.PostRecv(p, RecvWR{WRID: 99, Addr: rva, LKey: rmr.LKey, Len: 64}); err == nil {
			t.Error("private post_recv on an SRQ-attached QP accepted")
		}
	})
	e.eng.Run()
	want := map[string]bool{"from-qp1-a": true, "from-qp2-a": true, "from-qp1-b": true}
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for _, g := range got {
		if !want[g] {
			t.Fatalf("unexpected payload %q in %v", g, got)
		}
	}
}

// TestSRQEmptyTriggersRNR: draining the shared pool RNR-NAKs exactly like
// an empty private RQ, and refilling resumes delivery.
func TestSRQEmptyTriggersRNR(t *testing.T) {
	e := newEnv(t)
	e.eng.Spawn("test", func(p *simtime.Proc) {
		fn := e.b.dev.PF()
		pd := e.b.dev.AllocPD(p, fn)
		cq := e.b.dev.CreateCQ(p, fn, 64)
		srq := e.b.dev.CreateSRQ(p, fn, 32)
		rva, rmr := e.b.buffer(t, p, pd, 4096, AccessLocalWrite)
		caps := DefaultCaps()
		caps.SRQ = srq
		qp := e.b.dev.CreateQP(p, fn, pd, cq, cq, RC, caps)
		s := &endpoint{n: e.b, fn: fn, pd: pd, scq: cq, rcq: cq, qp: qp}
		c := makeEndpoint(t, p, e.a, RC)
		connect(t, p, c, s)
		sva, smr := e.a.buffer(t, p, c.pd, 64, AccessLocalWrite)
		// No SRQ WQEs yet: the send must spin on RNR.
		c.qp.PostSend(p, SendWR{WRID: 1, Op: WRSend, LocalAddr: sva, LKey: smr.LKey, Len: 4})
		p.Sleep(simtime.Us(250))
		if e.b.dev.Stats.RNRsSent == 0 {
			t.Error("no RNR NAK for an empty SRQ")
		}
		srq.PostRecv(p, RecvWR{WRID: 7, Addr: rva, LKey: rmr.LKey, Len: 64})
		wc := cq.Wait(p)
		if wc.Status != WCSuccess || wc.WRID != 7 {
			t.Errorf("recv wc = %+v", wc)
		}
	})
	e.eng.Run()
}
