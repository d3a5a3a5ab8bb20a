package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"masq/internal/controller"
	"masq/internal/mem"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

const vni = 100

// pairBed builds a 2-host testbed with one tenant (allow-all) and a
// connected endpoint pair under the given mode: server on host1, client on
// host0.
type pairBed struct {
	tb             *Testbed
	client, server *Endpoint
}

func newPairBed(t *testing.T, mode Mode) *pairBed {
	t.Helper()
	tb := New(DefaultConfig())
	tb.AddTenant(vni, "acme")
	tb.AllowAll(vni)
	cNode, err := tb.NewNode(mode, 0, vni, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sNode, err := tb.NewNode(mode, 1, vni, packet.NewIP(192, 168, 1, 2))
	if err != nil {
		t.Fatal(err)
	}
	pb := &pairBed{tb: tb}
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("setup", func(p *simtime.Proc) {
		var err error
		pb.client, err = cNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		pb.server, err = sNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, pb.server, pb.client, 7000)
		if err := se.Wait(p); err != nil {
			done.Trigger(err)
			return
		}
		done.Trigger(ce.Wait(p))
	})
	tb.Eng.Run()
	if !done.Triggered() {
		t.Fatalf("%v: setup never finished; pending procs: %v", mode, tb.Eng.PendingProcs())
	}
	if err := done.Value(); err != nil {
		t.Fatalf("%v: setup failed: %v", mode, err)
	}
	return pb
}

// pingPong sends msg client→server and echoes it back, verifying payload
// integrity. Returns the measured round-trip time.
func (pb *pairBed) pingPong(t *testing.T, msg []byte) simtime.Duration {
	t.Helper()
	var rtt simtime.Duration
	failed := false
	pb.tb.Eng.Spawn("server", func(p *simtime.Proc) {
		s := pb.server
		s.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: s.Buf, LKey: s.MR.LKey(), Len: s.Len})
		wc := s.RCQ.Wait(p)
		if wc.Status != verbs.WCSuccess || wc.ByteLen != len(msg) {
			t.Errorf("server recv WC = %+v", wc)
			failed = true
			return
		}
		got := make([]byte, wc.ByteLen)
		s.Node.Read(s.Buf, got)
		if string(got) != string(msg) {
			t.Errorf("server got %q, want %q", got, msg)
			failed = true
		}
		s.QP.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: s.Buf, LKey: s.MR.LKey(), Len: wc.ByteLen})
		s.SCQ.Wait(p)
	})
	pb.tb.Eng.Spawn("client", func(p *simtime.Proc) {
		c := pb.client
		c.Node.Write(c.Buf, msg)
		c.QP.PostRecv(p, verbs.RecvWR{WRID: 3, Addr: c.Buf + 32768, LKey: c.MR.LKey(), Len: len(msg)})
		start := p.Now()
		c.QP.PostSend(p, verbs.SendWR{WRID: 4, Op: verbs.WRSend, LocalAddr: c.Buf, LKey: c.MR.LKey(), Len: len(msg)})
		c.SCQ.Wait(p)
		wc := c.RCQ.Wait(p)
		rtt = p.Now().Sub(start)
		if wc.Status != verbs.WCSuccess {
			t.Errorf("client recv WC = %+v", wc)
			failed = true
			return
		}
		got := make([]byte, wc.ByteLen)
		c.Node.Read(c.Buf+32768, got)
		if string(got) != string(msg) {
			t.Errorf("echo = %q, want %q", got, msg)
			failed = true
		}
	})
	pb.tb.Eng.Run()
	if rtt == 0 && !failed {
		t.Fatal("ping-pong never completed")
	}
	return rtt
}

func TestEndToEndAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeHost, ModeSRIOV, ModeMasQ, ModeMasQPF, ModeFreeFlow} {
		t.Run(mode.String(), func(t *testing.T) {
			pb := newPairBed(t, mode)
			pb.pingPong(t, []byte("hello through "+mode.String()))
		})
	}
}

func TestLatencyOrderingAcrossModes(t *testing.T) {
	rtts := map[Mode]simtime.Duration{}
	for _, mode := range []Mode{ModeHost, ModeSRIOV, ModeMasQ, ModeFreeFlow} {
		pb := newPairBed(t, mode)
		rtts[mode] = pb.pingPong(t, []byte("xy"))
	}
	// Fig. 8a shape: host < masq ≈ sriov < freeflow.
	if !(rtts[ModeHost] < rtts[ModeMasQ]) {
		t.Errorf("host (%v) should beat masq (%v)", rtts[ModeHost], rtts[ModeMasQ])
	}
	ratio := float64(rtts[ModeMasQ]) / float64(rtts[ModeSRIOV])
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("masq (%v) should match sr-iov (%v)", rtts[ModeMasQ], rtts[ModeSRIOV])
	}
	if !(rtts[ModeFreeFlow] > rtts[ModeMasQ]*3/2) {
		t.Errorf("freeflow (%v) should be well above masq (%v)", rtts[ModeFreeFlow], rtts[ModeMasQ])
	}
}

// TestMasQWirePacketsUsePhysicalAddresses sniffs the underlay link and
// checks RConnrename's core guarantee: every RoCE packet is encapsulated
// with host (physical) IPs, never tenant (virtual) IPs.
func TestMasQWirePacketsUsePhysicalAddresses(t *testing.T) {
	tb := New(DefaultConfig())
	tb.AddTenant(vni, "acme")
	tb.AllowAll(vni)
	cNode, _ := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	sNode, _ := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2))

	// Capture the underlay with a passive tap, before any traffic flows.
	tap := tb.Links[0].AttachTap()

	pb := &pairBed{tb: tb}
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("setup", func(p *simtime.Proc) {
		var err error
		pb.client, err = cNode.Setup(p, DefaultEndpointOpts())
		if err == nil {
			pb.server, err = sNode.Setup(p, DefaultEndpointOpts())
		}
		if err != nil {
			done.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, pb.server, pb.client, 7000)
		if err := se.Wait(p); err != nil {
			done.Trigger(err)
			return
		}
		done.Trigger(ce.Wait(p))
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	pb.pingPong(t, []byte("renamed"))

	// Every captured RoCE frame must carry physical host addresses; the
	// tenant's 192.168.x.x space must never appear on the wire.
	roce := 0
	for _, f := range tap.Frames() {
		pkt, err := packet.Decode(f.Data)
		if err != nil || pkt.BTH() == nil {
			continue
		}
		roce++
		src, dst := pkt.IPv4().Src, pkt.IPv4().Dst
		if src[0] == 192 || dst[0] == 192 {
			t.Fatalf("tenant address on the wire: %v -> %v", src, dst)
		}
		if src != tb.Hosts[0].IP && src != tb.Hosts[1].IP {
			t.Fatalf("unknown source %v on the wire", src)
		}
	}
	if roce == 0 {
		t.Fatal("tap captured no RoCE frames")
	}

	// The backends renamed both RTR commands.
	if tb.Backend(0).Stats.Renames == 0 || tb.Backend(1).Stats.Renames == 0 {
		t.Error("RConnrename never fired")
	}
	// The hardware QPC holds physical addressing: find the data QPs on
	// host0's device and check their address vectors.
	checked := 0
	for qpn := uint32(1); qpn < 20; qpn++ {
		qp := tb.Hosts[0].Dev.QP(qpn)
		if qp == nil || qp.State() != rnic.StateRTS {
			continue
		}
		checked++
		if qp.AV.DIP != tb.Hosts[1].IP {
			t.Errorf("QP %d AV.DIP = %v, want physical %v", qpn, qp.AV.DIP, tb.Hosts[1].IP)
		}
		if ip, _ := qp.AV.DGID.IP(); ip != tb.Hosts[1].IP {
			t.Errorf("QP %d AV.DGID embeds %v, want physical", qpn, ip)
		}
		if qp.SrcIP != tb.Hosts[0].IP {
			t.Errorf("QP %d SrcIP = %v, want physical %v", qpn, qp.SrcIP, tb.Hosts[0].IP)
		}
	}
	if checked == 0 {
		t.Fatal("no RTS QPs found on host0")
	}
}

// TestMasQOverlappingTenantIPs: two tenants use identical virtual IPs;
// RConnrename must key its mapping by (VNI, vGID) so each client reaches
// its own tenant's server.
func TestMasQOverlappingTenantIPs(t *testing.T) {
	tb := New(DefaultConfig())
	tb.AddTenant(100, "acme")
	tb.AddTenant(200, "globex")
	tb.AllowAll(100)
	tb.AllowAll(200)

	mk := func(vni uint32, host int, ip packet.IP) *Node {
		n, err := tb.NewNode(ModeMasQ, host, vni, ip)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Tenant 100: client on host0, server on host1. Tenant 200: the
	// mirror image, same IPs.
	c1 := mk(100, 0, packet.NewIP(10, 0, 0, 1))
	s1 := mk(100, 1, packet.NewIP(10, 0, 0, 2))
	c2 := mk(200, 0, packet.NewIP(10, 0, 0, 1))
	s2 := mk(200, 1, packet.NewIP(10, 0, 0, 2))

	run := func(c, s *Node, port uint16, payload string, out *string) {
		var cep, sep *Endpoint
		tb.Eng.Spawn("setup", func(p *simtime.Proc) {
			var err error
			if cep, err = c.Setup(p, DefaultEndpointOpts()); err != nil {
				t.Error(err)
				return
			}
			if sep, err = s.Setup(p, DefaultEndpointOpts()); err != nil {
				t.Error(err)
				return
			}
			se, ce := Pair(tb.Eng, sep, cep, port)
			tb.Eng.Spawn("traffic", func(p *simtime.Proc) {
				if err := se.Wait(p); err != nil {
					t.Error(err)
					return
				}
				if err := ce.Wait(p); err != nil {
					t.Error(err)
					return
				}
				tb.Eng.Spawn("srv", func(p *simtime.Proc) {
					sep.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: sep.Buf, LKey: sep.MR.LKey(), Len: sep.Len})
					wc := sep.RCQ.Wait(p)
					buf := make([]byte, wc.ByteLen)
					s.Read(sep.Buf, buf)
					*out = string(buf)
				})
				tb.Eng.Spawn("cli", func(p *simtime.Proc) {
					c.Write(cep.Buf, []byte(payload))
					cep.QP.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: cep.Buf, LKey: cep.MR.LKey(), Len: len(payload)})
					cep.SCQ.Wait(p)
				})
			})
		})
	}
	var got1, got2 string
	run(c1, s1, 7001, "for-acme", &got1)
	run(c2, s2, 7002, "for-globex", &got2)
	tb.Eng.Run()
	if got1 != "for-acme" || got2 != "for-globex" {
		t.Fatalf("tenant crossover: got1=%q got2=%q", got1, got2)
	}
}

// TestMasQSecurityDeniesConnection: the tenant allows the TCP path but not
// RDMA; the out-of-band exchange succeeds but modify_qp(RTR) is refused by
// RConntrack (security subproblem 1).
func TestMasQSecurityDeniesConnection(t *testing.T) {
	tb := New(DefaultConfig())
	tenant := tb.AddTenant(vni, "acme")
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	tenant.Policy.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoTCP, Src: all, Dst: all, Action: overlay.Allow})

	cNode, _ := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	sNode, _ := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2))
	var clientErr, serverErr error
	tb.Eng.Spawn("setup", func(p *simtime.Proc) {
		cep, err := cNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			t.Error(err)
			return
		}
		sep, err := sNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			t.Error(err)
			return
		}
		se, ce := Pair(tb.Eng, sep, cep, 7000)
		serverErr = se.Wait(p)
		clientErr = ce.Wait(p)
	})
	tb.Eng.Run()
	if clientErr == nil || serverErr == nil {
		t.Fatalf("connection allowed despite RDMA deny: client=%v server=%v", clientErr, serverErr)
	}
	if !strings.Contains(clientErr.Error(), "denied by security rules") {
		t.Fatalf("client err = %v", clientErr)
	}
}

// TestMasQRuleRevocationResetsConnection reproduces the Fig. 17 kill: a
// running transfer dies with error completions once the allow rule is
// removed, and the QP stops emitting (Table 2).
func TestMasQRuleRevocationResetsConnection(t *testing.T) {
	tb := New(DefaultConfig())
	tenant := tb.AddTenant(vni, "acme")
	ruleID := tb.AllowAll(vni)
	cNode, _ := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	sNode, _ := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2))

	var sawError bool
	var resets uint64
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("setup", func(p *simtime.Proc) {
		cep, err := cNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		sep, err := sNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, sep, cep, 7000)
		if err := se.Wait(p); err != nil {
			done.Trigger(err)
			return
		}
		if err := ce.Wait(p); err != nil {
			done.Trigger(err)
			return
		}
		// Stream writes until the rule is pulled out from under us.
		tb.Eng.Spawn("traffic", func(p *simtime.Proc) {
			peer := sep.Info()
			for i := 0; ; i++ {
				err := cep.QP.PostSend(p, verbs.SendWR{
					WRID: uint64(i), Op: verbs.WRWrite,
					LocalAddr: cep.Buf, LKey: cep.MR.LKey(), Len: 16384,
					RemoteAddr: peer.Addr, RKey: peer.RKey,
				})
				if err != nil {
					done.Trigger(nil) // posting refused after ERROR: also fine
					return
				}
				wc, ok := cep.SCQ.WaitTimeout(p, simtime.Ms(100))
				if !ok {
					done.Trigger(errors.New("transfer hung"))
					return
				}
				if wc.Status != verbs.WCSuccess {
					sawError = true
					done.Trigger(nil)
					return
				}
			}
		})
		tb.Eng.Spawn("revoke", func(p *simtime.Proc) {
			p.Sleep(simtime.Ms(2))
			tenant.Policy.RemoveRule(ruleID)
		})
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if !sawError {
		t.Fatal("client never observed an error completion")
	}
	resets = tb.Backend(0).CT.Stats.Resets + tb.Backend(1).CT.Stats.Resets
	if resets == 0 {
		t.Fatal("RConntrack recorded no resets")
	}
}

// TestMasQQoSRateLimit drives a tenant through its VF rate limiter.
func TestMasQQoSRateLimit(t *testing.T) {
	pb := newPairBed(t, ModeMasQ)
	if err := pb.tb.Backend(0).SetTenantRateLimit(vni, 5e9); err != nil {
		t.Fatal(err)
	}
	const size = 64 * 1024 // the full registered region
	var elapsed simtime.Duration
	pb.tb.Eng.Spawn("client", func(p *simtime.Proc) {
		c := pb.client
		peer := pb.server.Info()
		start := p.Now()
		const rounds = 64
		for i := 0; i < rounds; i++ {
			c.QP.PostSend(p, verbs.SendWR{
				WRID: uint64(i), Op: verbs.WRWrite, LocalAddr: c.Buf, LKey: c.MR.LKey(),
				Len: size, RemoteAddr: peer.Addr, RKey: peer.RKey,
			})
		}
		for i := 0; i < rounds; i++ {
			if wc := c.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				t.Errorf("WC = %+v", wc)
				return
			}
		}
		elapsed = p.Now().Sub(start)
	})
	pb.tb.Eng.Run()
	gbps := float64(64*size*8) / elapsed.Seconds() / 1e9
	if gbps > 5.5 || gbps < 3.5 {
		t.Fatalf("limited throughput = %.2f Gbps, want ≈5", gbps)
	}
}

// TestTable5MaxVMs: MasQ VMs are bounded by host memory (~160 at 512 MB),
// while SR-IOV stops at 8 VFs.
func TestTable5MaxVMs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VMMem = 512 << 20
	tb := New(cfg)
	tb.AddTenant(vni, "acme")
	tb.AllowAll(vni)

	masqCount := 0
	for i := 0; ; i++ {
		_, err := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(10, byte(i>>8), byte(i), 1))
		if err != nil {
			if !errors.Is(err, mem.ErrOutOfMemory) {
				t.Fatalf("masq VM %d failed with %v, want out-of-memory", i, err)
			}
			break
		}
		masqCount++
	}
	if masqCount < 150 || masqCount > 170 {
		t.Fatalf("MasQ max VMs = %d, want ≈160 (Table 5)", masqCount)
	}

	tb2 := New(cfg)
	tb2.AddTenant(vni, "acme")
	tb2.AllowAll(vni)
	sriovCount := 0
	for i := 0; ; i++ {
		_, err := tb2.NewNode(ModeSRIOV, 0, vni, packet.NewIP(10, byte(i>>8), byte(i), 1))
		if err != nil {
			if !errors.Is(err, rnic.ErrNoResources) {
				t.Fatalf("sriov VM %d failed with %v, want no-resources", i, err)
			}
			break
		}
		sriovCount++
	}
	if sriovCount != 8 {
		t.Fatalf("SR-IOV max VMs = %d, want 8 (Table 5)", sriovCount)
	}
}

// TestVBondFollowsIPChange: re-addressing the vNIC updates the vGID and
// the controller mapping, and a connection to the NEW vGID works.
func TestVBondFollowsIPChange(t *testing.T) {
	tb := New(DefaultConfig())
	tb.AddTenant(vni, "acme")
	tb.AllowAll(vni)
	cNode, _ := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	sNode, _ := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2))

	var gidBefore, gidAfter packet.GID
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("test", func(p *simtime.Proc) {
		sep, err := sNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		gidBefore = sep.GID
		// Tenant re-addresses the server VM.
		if err := sNode.VM.VNIC.SetIP(packet.NewIP(192, 168, 1, 50)); err != nil {
			done.Trigger(err)
			return
		}
		sNode.VIP = packet.NewIP(192, 168, 1, 50)
		gidAfter, err = sep.Dev.QueryGID(p)
		if err != nil {
			done.Trigger(err)
			return
		}
		sep.GID = gidAfter
		cep, err := cNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, sep, cep, 7000)
		if err := se.Wait(p); err != nil {
			done.Trigger(err)
			return
		}
		done.Trigger(ce.Wait(p))
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if gidBefore == gidAfter {
		t.Fatal("vGID did not change with the IP")
	}
	if ip, _ := gidAfter.IP(); ip != packet.NewIP(192, 168, 1, 50) {
		t.Fatalf("new vGID embeds %v", ip)
	}
}

// connectUD walks a UD endpoint's QP to RTS with a shared queue key.
func connectUD(p *simtime.Proc, ep *Endpoint, peer verbs.ConnInfo, qkey uint32) error {
	if err := ep.QP.Modify(p, verbs.Attr{ToState: verbs.StateInit}); err != nil {
		return err
	}
	if err := ep.QP.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: peer.GID, DQPN: peer.QPN, QKey: qkey}); err != nil {
		return err
	}
	return ep.QP.Modify(p, verbs.Attr{ToState: verbs.StateRTS})
}

// TestMasQUDRename: datagram WQEs carry virtual destinations through the
// control path and are renamed per WQE (Sec. 3.3.4).
func TestMasQUDRename(t *testing.T) {
	tb := New(DefaultConfig())
	tb.AddTenant(vni, "acme")
	tb.AllowAll(vni)
	cNode, _ := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	sNode, _ := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2))

	opts := DefaultEndpointOpts()
	opts.Type = verbs.UD
	var got string
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("test", func(p *simtime.Proc) {
		cep, err := cNode.Setup(p, opts)
		if err != nil {
			done.Trigger(err)
			return
		}
		sep, err := sNode.Setup(p, opts)
		if err != nil {
			done.Trigger(err)
			return
		}
		const qkey = 0x7777
		if err := connectUD(p, cep, sep.Info(), qkey); err != nil {
			done.Trigger(err)
			return
		}
		if err := connectUD(p, sep, cep.Info(), qkey); err != nil {
			done.Trigger(err)
			return
		}
		sep.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: sep.Buf, LKey: sep.MR.LKey(), Len: sep.Len})
		msg := []byte("ud datagram")
		cNode.Write(cep.Buf, msg)
		// Per-WQE virtual destination: only GID+QPN are known to the app.
		err = cep.QP.PostSend(p, verbs.SendWR{
			WRID: 2, Op: verbs.WRSend, LocalAddr: cep.Buf, LKey: cep.MR.LKey(), Len: len(msg),
			QKey: qkey, Remote: &verbs.AddressVector{DGID: sep.GID, DQPN: sep.QP.Num()},
		})
		if err != nil {
			done.Trigger(err)
			return
		}
		wc := sep.RCQ.Wait(p)
		buf := make([]byte, wc.ByteLen)
		sNode.Read(sep.Buf, buf)
		got = string(buf)
		done.Trigger(nil)
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if got != "ud datagram" {
		t.Fatalf("got %q", got)
	}
}

// TestConnectionSetupOrdering checks the Fig. 15a shape: host < sriov <
// masq < freeflow.
func TestConnectionSetupOrdering(t *testing.T) {
	setup := func(mode Mode) simtime.Duration {
		tb := New(DefaultConfig())
		tb.AddTenant(vni, "acme")
		tb.AllowAll(vni)
		cNode, err := tb.NewNode(mode, 0, vni, packet.NewIP(192, 168, 1, 1))
		if err != nil {
			t.Fatal(err)
		}
		sNode, err := tb.NewNode(mode, 1, vni, packet.NewIP(192, 168, 1, 2))
		if err != nil {
			t.Fatal(err)
		}
		// One shared CQ, as in the paper's profiled program (Fig. 15b
		// shows a single create_cq). The metric is the client-side serial
		// delay — the measuring program's own verbs — as in Fig. 15a.
		opts := DefaultEndpointOpts()
		opts.SharedCQ = true
		var dur simtime.Duration
		ready := simtime.NewEvent[*Endpoint](tb.Eng)
		tb.Eng.Spawn("server", func(p *simtime.Proc) {
			if _, err := sNode.Device(p); err != nil {
				t.Error(err)
				return
			}
			sep, err := sNode.Setup(p, opts)
			if err != nil {
				t.Error(err)
				return
			}
			ready.Trigger(sep)
			peer, err := sep.ExchangeServer(p, 7000)
			if err == nil {
				err = sep.ConnectRC(p, peer)
			}
			if err != nil {
				t.Error(err)
			}
		})
		tb.Eng.Spawn("client", func(p *simtime.Proc) {
			if _, err := cNode.Device(p); err != nil {
				t.Error(err)
				return
			}
			ready.Wait(p)
			start := p.Now()
			cep, err := cNode.Setup(p, opts)
			if err != nil {
				t.Error(err)
				return
			}
			peer, err := cep.ExchangeClient(p, sNode.VIP, 7000, simtime.Ms(50))
			if err == nil {
				err = cep.ConnectRC(p, peer)
			}
			if err != nil {
				t.Error(err)
				return
			}
			dur = p.Now().Sub(start)
		})
		tb.Eng.Run()
		return dur
	}
	host := setup(ModeHost)
	sr := setup(ModeSRIOV)
	mq := setup(ModeMasQ)
	ff := setup(ModeFreeFlow)
	if !(host < sr && sr < mq && mq < ff) {
		t.Fatalf("ordering host=%v sriov=%v masq=%v freeflow=%v", host, sr, mq, ff)
	}
	// Rough magnitudes (ms): 0.8 / 1.9 / 2.1 / 3.9.
	if mq < simtime.Ms(1.8) || mq > simtime.Ms(2.6) {
		t.Errorf("masq setup = %v, want ≈2.1ms", mq)
	}
	if ff < simtime.Ms(3.3) || ff > simtime.Ms(4.6) {
		t.Errorf("freeflow setup = %v, want ≈3.9ms", ff)
	}
}

// TestShardedMasqOracleMode pins the MasQ connect instant of the default
// testbed: one engine, with MasQ reaching the one-shard controller.Sharded
// front directly.
func TestShardedMasqOracleMode(t *testing.T) {
	tb := New(DefaultConfig())
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
	tb.Eng.Spawn("srv", func(p *simtime.Proc) {
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
	tb.Eng.Spawn("cli", func(p *simtime.Proc) {
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
	tb.Eng.Run()
	if connected == 0 {
		t.Fatalf("setup never completed; pending: %v", tb.Eng.PendingProcs())
	}
	if want := simtime.Time(4484284); connected != want {
		t.Fatalf("MasQ connect instant = %d ns, want %d ns", connected, want)
	}
}

// TestLiveMigration runs the full application-assisted migration cycle of
// Sec. 5: tear down RDMA state, migrate the VM (memory image + vNIC +
// paravirtual device), re-register the vGID, reconnect, and verify both
// the preserved guest memory and the re-routed traffic.
func TestLiveMigration(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 3 // spare host to migrate onto
	tb := New(cfg)
	tb.AddTenant(vni, "acme")
	tb.AllowAll(vni)
	cNode, err := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	sNode, err := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: connect and exchange.
	var sep, cep *Endpoint
	phase1 := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("phase1", func(p *simtime.Proc) {
		var err error
		if cep, err = cNode.Setup(p, DefaultEndpointOpts()); err != nil {
			phase1.Trigger(err)
			return
		}
		if sep, err = sNode.Setup(p, DefaultEndpointOpts()); err != nil {
			phase1.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, sep, cep, 7000)
		if err := se.Wait(p); err != nil {
			phase1.Trigger(err)
			return
		}
		if err := ce.Wait(p); err != nil {
			phase1.Trigger(err)
			return
		}
		// Move one message so the path demonstrably worked.
		sep.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: sep.Buf, LKey: sep.MR.LKey(), Len: 64})
		cNode.Write(cep.Buf, []byte("pre-migration"))
		cep.QP.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: cep.Buf, LKey: cep.MR.LKey(), Len: 13})
		if wc := sep.RCQ.Wait(p); wc.Status != verbs.WCSuccess {
			phase1.Trigger(errors.New("pre-migration transfer failed"))
			return
		}
		// Stash a marker deep in guest memory to survive the migration.
		va, _ := sNode.Alloc(4096)
		sNode.Write(va, []byte("guest state survives"))
		sNode.VM.GVA.Write(va, []byte("guest state survives"))
		phase1.Trigger(nil)
		markerVA = va
	})
	tb.Eng.Run()
	if err := phase1.Value(); err != nil {
		t.Fatal(err)
	}

	// Migrating with pinned MRs must refuse.
	if err := tb.MigrateNode(sNode, 2); err == nil {
		t.Fatal("migration accepted while MRs were registered")
	}

	// Phase 2: application-assisted teardown (destroy QP, dereg MR).
	phase2 := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("teardown", func(p *simtime.Proc) {
		if err := sep.QP.Destroy(p); err != nil {
			phase2.Trigger(err)
			return
		}
		if err := sep.MR.Dereg(p); err != nil {
			phase2.Trigger(err)
			return
		}
		if err := cep.QP.Destroy(p); err != nil {
			phase2.Trigger(err)
			return
		}
		phase2.Trigger(nil)
	})
	tb.Eng.Run()
	if err := phase2.Value(); err != nil {
		t.Fatal(err)
	}

	// Phase 3: migrate host1 → host2.
	if err := tb.MigrateNode(sNode, 2); err != nil {
		t.Fatal(err)
	}
	if sNode.Host != tb.Hosts[2] {
		t.Fatal("node host not updated")
	}
	buf := make([]byte, 20)
	sNode.Read(markerVA, buf)
	if string(buf) != "guest state survives" {
		t.Fatalf("guest memory lost in migration: %q", buf)
	}

	// Phase 4: reconnect. The client resolves the server's unchanged vGID
	// to the NEW host via the controller.
	phase4 := simtime.NewEvent[error](tb.Eng)
	var echoed string
	tb.Eng.Spawn("phase4", func(p *simtime.Proc) {
		sep2, err := sNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			phase4.Trigger(err)
			return
		}
		cep2, err := cNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			phase4.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, sep2, cep2, 7100)
		if err := se.Wait(p); err != nil {
			phase4.Trigger(err)
			return
		}
		if err := ce.Wait(p); err != nil {
			phase4.Trigger(err)
			return
		}
		sep2.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: sep2.Buf, LKey: sep2.MR.LKey(), Len: 64})
		cNode.Write(cep2.Buf, []byte("post-migration"))
		cep2.QP.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: cep2.Buf, LKey: cep2.MR.LKey(), Len: 14})
		wc := sep2.RCQ.Wait(p)
		if wc.Status != verbs.WCSuccess {
			phase4.Trigger(errors.New("post-migration transfer failed"))
			return
		}
		b := make([]byte, wc.ByteLen)
		sNode.Read(sep2.Buf, b)
		echoed = string(b)
		// The hardware path must now terminate at host2.
		qp := tb.Hosts[0].Dev.QP(cep2.QP.Num())
		if qp != nil && qp.AV.DIP != tb.Hosts[2].IP {
			phase4.Trigger(fmt.Errorf("client QP points at %v, want host2 %v", qp.AV.DIP, tb.Hosts[2].IP))
			return
		}
		phase4.Trigger(nil)
	})
	tb.Eng.Run()
	if err := phase4.Value(); err != nil {
		t.Fatal(err)
	}
	if echoed != "post-migration" {
		t.Fatalf("echoed %q", echoed)
	}
	if tb.Hosts[2].Dev.Stats.RxMsgs == 0 {
		t.Fatal("no traffic reached the destination host's RNIC")
	}
}

var markerVA uint64

// TestMigrationRefusedForNonMasQ: only paravirtualized devices can follow
// the VM; passthrough VFs cannot.
func TestMigrationRefusedForNonMasQ(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 3
	tb := New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	n, err := tb.NewNode(ModeSRIOV, 0, vni, packet.NewIP(10, 0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.MigrateNode(n, 2); err == nil {
		t.Fatal("SR-IOV node migration must be refused")
	}
}

// TestMasQPlacementFollowsNodeMode: each host's MasQ backend takes the
// placement of the first MasQ node on it, whatever other hosts run, and a
// node or migration that needs another placement on that host is refused
// before anything boots or moves.
func TestMasQPlacementFollowsNodeMode(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 4
	tb := New(cfg)
	tb.AddTenant(vni, "t")
	tb.AllowAll(vni)
	nodes := make([]*Node, 3)
	for i, mode := range []Mode{ModeMasQPF, ModeMasQ, ModeMasQShared} {
		n, err := tb.NewNode(mode, i, vni, packet.NewIP(10, 0, 0, byte(i+1)))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	for i, want := range []string{"masq-pf", "masq-vf", "masq-vf-shared"} {
		if got := nodes[i].Provider.Name(); got != want {
			t.Errorf("%v node on host %d: provider %q, want %q", nodes[i].Mode, i, got, want)
		}
		if got := tb.Backends[i].Mode.String(); got != want {
			t.Errorf("host %d backend placement %q, want %q", i, got, want)
		}
	}

	if _, err := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(10, 0, 0, 9)); err == nil {
		t.Error("a VF node on the PF host was accepted")
	}
	if vms := tb.Hosts[0].VMs(); vms != 1 {
		t.Errorf("host 0 runs %d VMs after the refused node, want 1", vms)
	}
	if err := tb.MigrateNode(nodes[1], 0); err == nil {
		t.Error("migrating a VF node onto the PF host was accepted")
	}
	var liveErr error
	tb.Eng.Spawn("live", func(p *simtime.Proc) {
		_, liveErr = tb.LiveMigrateNode(p, nodes[1], 0, MigrateOpts{})
	})
	tb.Eng.Run()
	if liveErr == nil {
		t.Error("live-migrating a VF node onto the PF host was accepted")
	}
	if nodes[1].Host != tb.Hosts[1] || tb.Hosts[1].VMs() != 1 {
		t.Error("a refused migration moved the node")
	}

	// A migration to a host without a backend brings the node's own
	// placement along.
	if err := tb.MigrateNode(nodes[0], 3); err != nil {
		t.Fatal(err)
	}
	if got := tb.Backends[3].Mode.String(); got != "masq-pf" {
		t.Errorf("destination backend placement %q, want masq-pf", got)
	}
}

// TestNewNodeFailureReleasesVIP: a MasQ node that fails to boot for want of
// a VF leaves nothing behind: its VIP is free in the overlay, and a node of
// another mode boots at it.
func TestNewNodeFailureReleasesVIP(t *testing.T) {
	tb := New(DefaultConfig())
	vip := packet.NewIP(10, 0, 0, 1)
	for v := uint32(1); v <= 9; v++ {
		tb.AddTenant(v, fmt.Sprintf("t%d", v))
		tb.AllowAll(v)
		_, err := tb.NewNode(ModeMasQ, 0, v, vip)
		switch {
		case v < 9 && err != nil:
			t.Fatalf("tenant %d: %v", v, err)
		case v == 9 && (err == nil || !strings.Contains(err.Error(), "supports 8 VFs")):
			t.Fatalf("tenant 9's node: error %v, want the 8-VF limit", err)
		}
	}
	if vms := tb.Hosts[0].VMs(); vms != 8 {
		t.Errorf("host 0 runs %d VMs after the failed node, want 8", vms)
	}
	if ep := tb.Fab.Lookup(9, vip); ep != nil {
		t.Errorf("the failed node's VIP %v is still registered in VNI 9", vip)
	}
	if _, err := tb.NewNode(ModeHost, 0, 9, vip); err != nil {
		t.Errorf("booting %v as a host node after the failed MasQ node: %v", vip, err)
	}
}

// TestConnectExtraQPReportsStalledSetup: an extra QP toward a crashed
// server never reaches RTS; the fixture must say so instead of returning
// half-built endpoints.
func TestConnectExtraQPReportsStalledSetup(t *testing.T) {
	cp, err := NewConnectedPair(DefaultConfig(), ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.TB.CrashNode(cp.ServerNode); err != nil {
		t.Fatal(err)
	}
	c, s, err := cp.ConnectExtraQP(DefaultEndpointOpts(), 7100)
	if err == nil {
		t.Fatalf("setup toward a crashed server returned endpoints (client %v, server %v) and no error", c != nil, s != nil)
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("error %q does not report the stall", err)
	}
}

// TestWireInfoDiagnosis: the Sec. 5 feature — map the QPN seen on the
// underlay back to tenant and virtual IP.
func TestWireInfoDiagnosis(t *testing.T) {
	pb := newPairBed(t, ModeMasQ)
	be := pb.tb.Backend(0)
	vniGot, vip, ok := be.WireInfo(pb.client.QP.Num())
	if !ok {
		t.Fatal("WireInfo found nothing for a live QP")
	}
	if vniGot != vni || vip != packet.NewIP(192, 168, 1, 1) {
		t.Fatalf("WireInfo = VNI %d, %v", vniGot, vip)
	}
	if _, _, ok := be.WireInfo(0xdead); ok {
		t.Fatal("WireInfo resolved a bogus QPN")
	}
	// Destroying the QP removes the mapping.
	done := simtime.NewEvent[error](pb.tb.Eng)
	pb.tb.Eng.Spawn("destroy", func(p *simtime.Proc) {
		done.Trigger(pb.client.QP.Destroy(p))
	})
	pb.tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := be.WireInfo(pb.client.QP.Num()); ok {
		t.Fatal("WireInfo still resolves a destroyed QP")
	}
}

// TestAtomicsThroughMasQ: RDMA atomics ride the zero-copy data path of
// the virtualized device — a distributed counter across two tenant VMs.
func TestAtomicsThroughMasQ(t *testing.T) {
	opts := DefaultEndpointOpts()
	opts.Access |= verbs.AccessRemoteAtomic
	cp, err := NewConnectedPairOpts(DefaultConfig(), ModeMasQ, opts)
	if err != nil {
		t.Fatal(err)
	}
	var final uint64
	done := simtime.NewEvent[error](cp.TB.Eng)
	cp.TB.Eng.Spawn("counter", func(p *simtime.Proc) {
		peer := cp.Server.Info()
		c := cp.Client
		for i := 0; i < 5; i++ {
			if err := c.QP.PostSend(p, verbs.SendWR{
				WRID: uint64(i), Op: verbs.WRAtomicFAdd,
				LocalAddr: c.Buf, LKey: c.MR.LKey(),
				RemoteAddr: peer.Addr, RKey: peer.RKey, SwapAdd: 3,
			}); err != nil {
				done.Trigger(err)
				return
			}
			wc := c.SCQ.Wait(p)
			if wc.Status != verbs.WCSuccess {
				done.Trigger(fmt.Errorf("atomic %d: %v", i, wc.Status))
				return
			}
		}
		var b [8]byte
		cp.ServerNode.Read(cp.Server.Buf, b[:])
		for _, x := range b {
			final = final<<8 | uint64(x)
		}
		done.Trigger(nil)
	})
	cp.TB.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if final != 15 {
		t.Fatalf("counter = %d, want 15", final)
	}
}

// TestSRQThroughMasQ: a shared receive queue created through the
// paravirtual control path serves two RC connections from one pool.
func TestSRQThroughMasQ(t *testing.T) {
	tb := New(DefaultConfig())
	tb.AddTenant(vni, "acme")
	tb.AllowAll(vni)
	srv, err := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 10))
	if err != nil {
		t.Fatal(err)
	}
	cli, err := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	if err != nil {
		t.Fatal(err)
	}
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("srq", func(p *simtime.Proc) {
		dev, err := srv.Device(p)
		if err != nil {
			done.Trigger(err)
			return
		}
		pd, _ := dev.AllocPD(p)
		buf, _ := srv.Alloc(8192)
		mr, err := dev.RegMR(p, pd, buf, 8192, verbs.AccessLocalWrite)
		if err != nil {
			done.Trigger(err)
			return
		}
		cq, _ := dev.CreateCQ(p, 64)
		shared, err := dev.CreateSRQ(p, 16)
		if err != nil {
			done.Trigger(err)
			return
		}
		for i := 0; i < 4; i++ {
			shared.PostRecv(p, verbs.RecvWR{WRID: uint64(i), Addr: buf + uint64(i*256), LKey: mr.LKey(), Len: 256})
		}
		caps := verbs.QPCaps{MaxSendWR: 16, MaxRecvWR: 16, SRQ: shared.Raw()}
		gid, _ := dev.QueryGID(p)

		// Two client endpoints, each to its own server QP on the pool.
		for i := 0; i < 2; i++ {
			sqp, err := dev.CreateQP(p, pd, cq, cq, verbs.RC, caps)
			if err != nil {
				done.Trigger(err)
				return
			}
			cep, err := cli.Setup(p, DefaultEndpointOpts())
			if err != nil {
				done.Trigger(err)
				return
			}
			if err := cep.ConnectRC(p, verbs.ConnInfo{GID: gid, QPN: sqp.Num()}); err != nil {
				done.Trigger(err)
				return
			}
			if err := sqp.Modify(p, verbs.Attr{ToState: verbs.StateInit}); err != nil {
				done.Trigger(err)
				return
			}
			if err := sqp.Modify(p, verbs.Attr{ToState: verbs.StateRTR, DGID: cep.GID, DQPN: cep.QP.Num()}); err != nil {
				done.Trigger(err)
				return
			}
			if err := sqp.Modify(p, verbs.Attr{ToState: verbs.StateRTS}); err != nil {
				done.Trigger(err)
				return
			}
			msg := fmt.Sprintf("via-conn-%d", i)
			cli.Write(cep.Buf, []byte(msg))
			cep.QP.PostSend(p, verbs.SendWR{WRID: 1, Op: verbs.WRSend, LocalAddr: cep.Buf, LKey: cep.MR.LKey(), Len: len(msg)})
			if wc := cep.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
				done.Trigger(fmt.Errorf("send %d: %v", i, wc.Status))
				return
			}
		}
		for i := 0; i < 2; i++ {
			wc := cq.Wait(p)
			if wc.Status != verbs.WCSuccess || !wc.Recv {
				done.Trigger(fmt.Errorf("recv %d: %+v", i, wc))
				return
			}
			b := make([]byte, wc.ByteLen)
			srv.Read(buf+wc.WRID*256, b)
			if string(b) != fmt.Sprintf("via-conn-%d", i) {
				done.Trigger(fmt.Errorf("payload %q", b))
				return
			}
		}
		if shared.Len() != 2 {
			done.Trigger(fmt.Errorf("SRQ len %d, want 2", shared.Len()))
			return
		}
		done.Trigger(nil)
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoLevelSecurity: the security group allows a flow but the
// network-level FWaaS denies it — the paper's two-level mechanism. Both
// chains must pass for establishment, and adding a firewall rule later
// kills live connections just like a security-group change.
func TestTwoLevelSecurity(t *testing.T) {
	tb := New(DefaultConfig())
	tenant := tb.AddTenant(vni, "acme")
	tb.AllowAll(vni) // open security group
	fw := tenant.EnableFWaaS()
	all, _ := packet.ParseCIDR("0.0.0.0/0")
	sub, _ := packet.ParseCIDR("192.168.1.0/24")
	// Firewall: TCP anywhere (so the OOB path works), RDMA only inside
	// the 192.168.1.0/24 subnet.
	fw.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoTCP, Src: all, Dst: all, Action: overlay.Allow})
	fwRDMA := fw.AddRule(overlay.Rule{Priority: 10, Proto: overlay.ProtoRDMA, Src: sub, Dst: sub, Action: overlay.Allow})

	c1, _ := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 1, 1))
	s1, _ := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 1, 2))
	c2, _ := tb.NewNode(ModeMasQ, 0, vni, packet.NewIP(192, 168, 2, 1)) // outside the firewall allowance
	s2, _ := tb.NewNode(ModeMasQ, 1, vni, packet.NewIP(192, 168, 2, 2))

	connect := func(c, s *Node, port uint16) (err error, cep, sep *Endpoint) {
		done := simtime.NewEvent[error](tb.Eng)
		tb.Eng.Spawn("wire", func(p *simtime.Proc) {
			var e error
			if cep, e = c.Setup(p, DefaultEndpointOpts()); e != nil {
				done.Trigger(e)
				return
			}
			if sep, e = s.Setup(p, DefaultEndpointOpts()); e != nil {
				done.Trigger(e)
				return
			}
			se, ce := Pair(tb.Eng, sep, cep, port)
			if e := se.Wait(p); e != nil {
				done.Trigger(e)
				return
			}
			done.Trigger(ce.Wait(p))
		})
		tb.Eng.Run()
		return done.Value(), cep, sep
	}

	errOK, cep, sep := connect(c1, s1, 7000)
	if errOK != nil {
		t.Fatalf("inside-subnet connect failed: %v", errOK)
	}
	errDeny, _, _ := connect(c2, s2, 7001)
	if errDeny == nil || !strings.Contains(errDeny.Error(), "denied") {
		t.Fatalf("firewall did not deny: %v", errDeny)
	}

	// Remove the firewall's RDMA allowance: the live connection dies.
	var sawKill bool
	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("traffic", func(p *simtime.Proc) {
		peer := sep.Info()
		for i := 0; ; i++ {
			if err := cep.QP.PostSend(p, verbs.SendWR{
				WRID: uint64(i), Op: verbs.WRWrite, LocalAddr: cep.Buf, LKey: cep.MR.LKey(),
				Len: 16384, RemoteAddr: peer.Addr, RKey: peer.RKey,
			}); err != nil {
				done.Trigger(nil)
				return
			}
			wc, ok := cep.SCQ.WaitTimeout(p, simtime.Ms(100))
			if !ok {
				done.Trigger(errors.New("hung"))
				return
			}
			if wc.Status != verbs.WCSuccess {
				sawKill = true
				done.Trigger(nil)
				return
			}
		}
	})
	tb.Eng.Spawn("fw-revoke", func(p *simtime.Proc) {
		p.Sleep(simtime.Ms(1))
		fw.RemoveRule(fwRDMA)
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if !sawKill {
		t.Fatal("firewall revocation did not kill the connection")
	}
}

// TestFWaaSEnabledOnLiveTenantIsEnforced: a firewall enabled after the
// tenant's MasQ nodes exist (so after RConntrack subscribed to the tenant)
// must still be enforced. Enabling it with matching allows keeps the live
// connection; revoking the firewall's RDMA allow then resets it.
func TestFWaaSEnabledOnLiveTenantIsEnforced(t *testing.T) {
	pb := newPairBed(t, ModeMasQ)
	tb := pb.tb
	all := packet.CIDR{}
	var fw *overlay.Policy
	var fwRDMA int
	tb.Eng.Spawn("fw-enable", func(p *simtime.Proc) {
		fw = tb.Fab.Tenant(vni).EnableFWaaS()
		fw.AddRule(overlay.Rule{Priority: 1, Proto: overlay.ProtoTCP, Src: all, Dst: all, Action: overlay.Allow})
		fwRDMA = fw.AddRule(overlay.Rule{Priority: 10, Proto: overlay.ProtoRDMA, Src: all, Dst: all, Action: overlay.Allow})
	})
	tb.Eng.RunUntil(tb.Eng.Now().Add(simtime.Ms(1)))
	if st := pb.client.QP.State(); st != verbs.StateRTS {
		t.Fatalf("client QP state = %v after enabling an allowing firewall, want RTS", st)
	}

	tb.Eng.Spawn("fw-revoke", func(p *simtime.Proc) { fw.RemoveRule(fwRDMA) })
	tb.Eng.Run()
	if resets := tb.Backend(0).CT.Stats.Resets + tb.Backend(1).CT.Stats.Resets; resets == 0 {
		t.Fatal("revoking the firewall's RDMA allow reset no connection")
	}
	if st := pb.client.QP.State(); st != verbs.StateError {
		t.Fatalf("client QP state = %v after the firewall revocation, want ERROR", st)
	}
}

// TestConnectRetriesThroughControllerOutage: the controller is unreachable
// for the first 60ms of the run — covering the out-of-band exchange and
// the first GID queries (a plain connect completes at ~57ms). Connection
// establishment must ride through on query retry/backoff rather than
// fail, and the whole timeline must be reproducible run-for-run.
func TestConnectRetriesThroughControllerOutage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Masq.QueryRetries = 12
	cfg.CtrlFault = controller.FaultPlan{Unavailable: []controller.Window{
		{Start: 0, End: simtime.Time(simtime.Ms(60))},
	}}
	cp, err := NewConnectedPair(cfg, ModeMasQ)
	if err != nil {
		t.Fatalf("connect through outage: %v", err)
	}
	if cp.TB.Ctrl.Stats.Timeouts == 0 {
		t.Fatal("no query timed out: the fault plan was never armed")
	}
	if cp.TB.Backend(0).Stats.QueryRetries == 0 {
		t.Fatal("client backend resolved without retrying")
	}
	if cp.TB.Eng.Now() < simtime.Time(simtime.Ms(60)) {
		t.Fatalf("connected at %v, inside the outage window", cp.TB.Eng.Now())
	}
	// Determinism: an identical config must produce the identical timeline.
	cp2, err := NewConnectedPair(cfg, ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	if cp2.TB.Eng.Now() != cp.TB.Eng.Now() {
		t.Fatalf("timeline not reproducible: %v vs %v", cp2.TB.Eng.Now(), cp.TB.Eng.Now())
	}
}

// TestConnectSurvivesDroppedReplies: the controller silently eats the next
// two query replies; backoff resends absorb the loss.
func TestConnectSurvivesDroppedReplies(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CtrlFault = controller.FaultPlan{DropReplies: 2}
	cp, err := NewConnectedPair(cfg, ModeMasQ)
	if err != nil {
		t.Fatalf("connect with dropped replies: %v", err)
	}
	if cp.TB.Ctrl.Stats.DroppedReplies != 2 {
		t.Fatalf("dropped replies = %d, want 2", cp.TB.Ctrl.Stats.DroppedReplies)
	}
	retries := cp.TB.Backend(0).Stats.QueryRetries + cp.TB.Backend(1).Stats.QueryRetries
	if retries < 2 {
		t.Fatalf("backends retried %d times, want >= 2", retries)
	}
}

// TestMigrationStaleCacheRecovered: with controller push notifications
// delayed by 500ms, a client reconnecting right after its peer migrated
// still holds the pre-migration mapping in its GID cache. RConnrename must
// detect the staleness, invalidate, re-query, and complete the rename
// against the new host.
func TestMigrationStaleCacheRecovered(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Hosts = 3
	cfg.Ctrl.NotifyDelay = simtime.Ms(500) // invalidations arrive too late
	cp, err := NewConnectedPair(cfg, ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB

	// Application-assisted teardown, then migrate the server host1 -> host2.
	phase2 := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("teardown", func(p *simtime.Proc) {
		if err := cp.Server.QP.Destroy(p); err != nil {
			phase2.Trigger(err)
			return
		}
		if err := cp.Server.MR.Dereg(p); err != nil {
			phase2.Trigger(err)
			return
		}
		phase2.Trigger(cp.Client.QP.Destroy(p))
	})
	tb.Eng.Run()
	if err := phase2.Value(); err != nil {
		t.Fatal(err)
	}
	if err := tb.MigrateNode(cp.ServerNode, 2); err != nil {
		t.Fatal(err)
	}

	// Reconnect immediately: the client's cache still maps the server's
	// vGID to host1. The delayed invalidation has not landed yet.
	phase3 := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("reconnect", func(p *simtime.Proc) {
		sep, err := cp.ServerNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			phase3.Trigger(err)
			return
		}
		cep, err := cp.ClientNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			phase3.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, sep, cep, 7100)
		if err := se.Wait(p); err != nil {
			phase3.Trigger(err)
			return
		}
		if err := ce.Wait(p); err != nil {
			phase3.Trigger(err)
			return
		}
		// Prove the data path terminates at the new host.
		sep.QP.PostRecv(p, verbs.RecvWR{WRID: 1, Addr: sep.Buf, LKey: sep.MR.LKey(), Len: 64})
		cp.ClientNode.Write(cep.Buf, []byte("stale-then-fresh"))
		cep.QP.PostSend(p, verbs.SendWR{WRID: 2, Op: verbs.WRSend, LocalAddr: cep.Buf, LKey: cep.MR.LKey(), Len: 16})
		if wc := sep.RCQ.Wait(p); wc.Status != verbs.WCSuccess {
			phase3.Trigger(errors.New("post-migration transfer failed"))
			return
		}
		phase3.Trigger(nil)
	})
	tb.Eng.Run()
	if err := phase3.Value(); err != nil {
		t.Fatalf("reconnect with stale cache: %v", err)
	}
	if tb.Backend(0).Stats.StaleRenames == 0 {
		t.Fatal("client backend never flagged the stale mapping")
	}
	if tb.Backend(0).Stats.Invalidations == 0 {
		t.Fatal("stale mapping was not invalidated")
	}
	if tb.Hosts[2].Dev.Stats.RxMsgs == 0 {
		t.Fatal("no traffic reached the migration target host")
	}
}

// TestVBondIPChangeWithWarmCache: the server re-addresses its vNIC while
// the client holds a warm cache entry for the OLD vGID and the controller's
// invalidation push is delayed. Connecting to the old vGID must fail (the
// re-query finds no mapping), and connecting to the new vGID must succeed.
func TestVBondIPChangeWithWarmCache(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ctrl.NotifyDelay = simtime.Ms(50)
	cp, err := NewConnectedPair(cfg, ModeMasQ) // warms both GID caches
	if err != nil {
		t.Fatal(err)
	}
	tb := cp.TB
	oldGID := cp.Server.GID

	// Tenant re-addresses the server VM: vBond unregisters the old vGID
	// and registers the new one; the client's invalidation is in flight
	// for the next 50ms.
	if err := cp.ServerNode.VM.VNIC.SetIP(packet.NewIP(192, 168, 1, 50)); err != nil {
		t.Fatal(err)
	}
	cp.ServerNode.VIP = packet.NewIP(192, 168, 1, 50)

	done := simtime.NewEvent[error](tb.Eng)
	var staleErr error
	tb.Eng.Spawn("test", func(p *simtime.Proc) {
		// A fresh client QP aimed at the OLD vGID: the warm cache entry
		// must not let the connection through.
		cep, err := cp.ClientNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		staleErr = cep.ConnectRC(p, verbs.ConnInfo{GID: oldGID, QPN: cp.Server.QP.Num()})

		// Reconnect to the NEW vGID end to end.
		sep, err := cp.ServerNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		cep2, err := cp.ClientNode.Setup(p, DefaultEndpointOpts())
		if err != nil {
			done.Trigger(err)
			return
		}
		se, ce := Pair(tb.Eng, sep, cep2, 7100)
		if err := se.Wait(p); err != nil {
			done.Trigger(err)
			return
		}
		done.Trigger(ce.Wait(p))
	})
	tb.Eng.Run()
	if err := done.Value(); err != nil {
		t.Fatal(err)
	}
	if staleErr == nil {
		t.Fatal("connect to the re-addressed vGID succeeded off the stale cache")
	}
	if !strings.Contains(staleErr.Error(), "no mapping") {
		t.Fatalf("stale connect error = %v, want a no-mapping failure after re-query", staleErr)
	}
	if tb.Backend(0).Stats.StaleRenames == 0 {
		t.Fatal("warm-cache hit was not detected as stale")
	}
	if tb.Backend(0).Stats.Invalidations == 0 {
		t.Fatal("stale cache entry was never invalidated")
	}
}
