package overlay

import (
	"fmt"

	"masq/internal/packet"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// The overlay data-path costs, set to typical software vswitch + vhost-net
// numbers (the paper's virtual TCP network measured ~50 µs scale
// latencies; precision here only affects the out-of-band phase).
const (
	vhostCost   = 15 * simtime.Microsecond // VM ↔ vswitch per frame (vhost_net copy)
	forwardCost = 3 * simtime.Microsecond  // vswitch lookup + encap/decap per frame
	RulePerScan = 300 * simtime.Nanosecond // per rule-evaluation work unit, on conntrack miss
)

// Tenant is one VPC: a VXLAN segment and its security machinery. The
// paper supports "the same two-level security mechanisms, FWaaS at the
// network level and security group at the VM level": Policy is the
// security group chain; FWaaS, when enabled, is an additional
// network-level chain that must ALSO allow a flow.
type Tenant struct {
	VNI    uint32
	Name   string
	Policy *Policy // security group (VM level)
	FWaaS  *Policy // firewall-as-a-service (network level); nil = absent

	subs []func(RuleChange) // rule-change subscribers, re-attached by EnableFWaaS
}

// EnableFWaaS attaches a network-level firewall chain to the tenant and
// returns it. Until rules are added it denies everything, like any chain.
// Existing rule subscribers are attached to the new chain and sent one
// Full change, since a default-deny firewall can revoke any connection.
func (t *Tenant) EnableFWaaS() *Policy {
	if t.FWaaS != nil {
		return t.FWaaS
	}
	t.FWaaS = NewPolicy()
	t.FWaaS.linear = t.Policy.linear
	t.FWaaS.subs = append(t.FWaaS.subs, t.subs...)
	t.FWaaS.bump(RuleChange{Full: true})
	return t.FWaaS
}

// SetLinear switches every chain of the tenant (including a FWaaS chain
// enabled later) between the decision index and the linear reference
// scan. It is the one switch for the linear engine: RConntrack then also
// enforces rule changes by scanning the whole VNI.
func (t *Tenant) SetLinear(on bool) {
	t.Policy.linear = on
	if t.FWaaS != nil {
		t.FWaaS.linear = on
	}
}

// Allows evaluates the full two-level stack: the security group must
// allow the flow, and so must the firewall when one is configured.
func (t *Tenant) Allows(proto Proto, src, dst packet.IP) bool {
	ok, _ := t.AllowsCost(proto, src, dst)
	return ok
}

// AllowsCost is Allows plus the total rule-evaluation work units across
// both chains (the DES cost model's input). A security-group deny
// short-circuits the firewall chain, exactly like the linear evaluator
// always has.
func (t *Tenant) AllowsCost(proto Proto, src, dst packet.IP) (bool, int) {
	ok, units := t.Policy.AllowsCost(proto, src, dst)
	if !ok || t.FWaaS == nil {
		return ok, units
	}
	ok2, units2 := t.FWaaS.AllowsCost(proto, src, dst)
	return ok2, units + units2
}

// RuleVersion combines both chains' versions (conntrack invalidation).
func (t *Tenant) RuleVersion() uint64 {
	v := t.Policy.Version()
	if t.FWaaS != nil {
		v += t.FWaaS.Version() << 32
	}
	return v
}

// RuleCount is the total chain length across both levels (scan cost).
func (t *Tenant) RuleCount() int {
	n := t.Policy.RuleCount()
	if t.FWaaS != nil {
		n += t.FWaaS.RuleCount()
	}
	return n
}

// SubscribeRules registers fn on both chains, including a FWaaS chain
// enabled later, with per-change footprints (the incremental-enforcement
// feed).
func (t *Tenant) SubscribeRules(fn func(RuleChange)) {
	t.subs = append(t.subs, fn)
	t.Policy.SubscribeRules(fn)
	if t.FWaaS != nil {
		t.FWaaS.SubscribeRules(fn)
	}
}

// Endpoint is one VM vNIC in the overlay registry: the mapping the cloud's
// control plane maintains from (VNI, virtual IP) to its host.
type Endpoint struct {
	VNI     uint32
	VIP     packet.IP
	VMAC    packet.MAC
	HostIP  packet.IP
	HostMAC packet.MAC
	port    *VMPort
}

type epKey struct {
	vni uint32
	ip  packet.IP
}

// Fabric is the overlay control plane: tenants, the endpoint registry, and
// the per-host virtual switches.
type Fabric struct {
	tenants   map[uint32]*Tenant
	endpoints map[epKey]*Endpoint
	switches  map[packet.IP]*VSwitch
	macSeq    uint64
}

// NewFabric returns an empty fabric.
func NewFabric() *Fabric {
	return &Fabric{
		tenants:   make(map[uint32]*Tenant),
		endpoints: make(map[epKey]*Endpoint),
		switches:  make(map[packet.IP]*VSwitch),
	}
}

// AddTenant creates a VPC with an empty (default-deny) policy.
func (f *Fabric) AddTenant(vni uint32, name string) *Tenant {
	t := &Tenant{VNI: vni, Name: name, Policy: NewPolicy()}
	f.tenants[vni] = t
	return t
}

// Tenant returns the tenant with the given VNI, or nil.
func (f *Fabric) Tenant(vni uint32) *Tenant { return f.tenants[vni] }

// Lookup resolves (vni, virtual IP) to its endpoint, or nil. This is the
// "virtual ARP + tunnel table" the control plane distributes.
func (f *Fabric) Lookup(vni uint32, vip packet.IP) *Endpoint {
	return f.endpoints[epKey{vni, vip}]
}

// allocMAC mints a locally-administered virtual MAC.
func (f *Fabric) allocMAC() packet.MAC {
	f.macSeq++
	s := f.macSeq
	return packet.MAC{0x02, 0xaa, byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)}
}

// VSwitch is one host's virtual switch + VTEP.
type VSwitch struct {
	HostIP  packet.IP
	HostMAC packet.MAC

	// Ingress receives decoded VXLAN packets from the host's underlay
	// demultiplexer (UDP/4789).
	Ingress *simtime.Queue[*packet.Packet]

	fab      *Fabric
	eng      *simtime.Engine // the host's engine: all vswitch work runs here
	uplink   *simnet.Port
	ports    map[epKey]*VMPort
	egress   *simtime.Queue[egressJob]
	conns    map[flowKey]uint64 // conntrack: allowed flow → policy version
	resolver func(hostIP packet.IP) (packet.MAC, bool)
}

type egressJob struct {
	from  *VMPort
	frame simnet.Frame
}

type flowKey struct {
	vni      uint32
	src, dst packet.IP
}

// NewVSwitch creates a host's vswitch on engine eng and starts its pumps.
// uplink is the host's physical port; resolver maps peer host IPs to their
// MACs (the underlay neighbor table). Every queue, worker proc, and
// per-frame Sleep here charges virtual time to eng's clock, and the host's
// VMs put frames into those queues synchronously. The fabric itself stays
// global — its registry is written at build time and only read from the
// data path.
func (f *Fabric) NewVSwitch(eng *simtime.Engine, hostIP packet.IP, hostMAC packet.MAC, uplink *simnet.Port, resolver func(packet.IP) (packet.MAC, bool)) *VSwitch {
	sw := &VSwitch{
		HostIP:   hostIP,
		HostMAC:  hostMAC,
		Ingress:  simtime.NewQueue[*packet.Packet](eng),
		fab:      f,
		eng:      eng,
		uplink:   uplink,
		ports:    make(map[epKey]*VMPort),
		egress:   simtime.NewQueue[egressJob](eng),
		conns:    make(map[flowKey]uint64),
		resolver: resolver,
	}
	f.switches[hostIP] = sw
	eng.Spawn(fmt.Sprintf("vswitch:%v:egress", hostIP), sw.egressLoop)
	eng.Spawn(fmt.Sprintf("vswitch:%v:ingress", hostIP), sw.ingressLoop)
	return sw
}

// VMPort is a VM's virtual Ethernet attachment (tap device).
type VMPort struct {
	EP *Endpoint
	// RX delivers inner Ethernet frames to the VM.
	RX *simtime.Queue[simnet.Frame]

	sw      *VSwitch
	onIPChg []func(old, new packet.IP)
	dropped uint64 // frames discarded by policy at this port
}

// AttachVM creates a port on the vswitch for a VM vNIC with the given
// tenant and virtual IP, registering it in the fabric.
func (sw *VSwitch) AttachVM(vni uint32, vip packet.IP) (*VMPort, error) {
	if sw.fab.tenants[vni] == nil {
		return nil, fmt.Errorf("overlay: unknown tenant VNI %d", vni)
	}
	key := epKey{vni, vip}
	if sw.fab.endpoints[key] != nil {
		return nil, fmt.Errorf("overlay: %v already present in VNI %d", vip, vni)
	}
	ep := &Endpoint{
		VNI: vni, VIP: vip, VMAC: sw.fab.allocMAC(),
		HostIP: sw.HostIP, HostMAC: sw.HostMAC,
	}
	vp := &VMPort{EP: ep, RX: simtime.NewQueue[simnet.Frame](sw.eng), sw: sw}
	ep.port = vp
	sw.fab.endpoints[key] = ep
	sw.ports[key] = vp
	return vp, nil
}

// Send transmits an inner Ethernet frame from the VM into the vswitch.
func (vp *VMPort) Send(f simnet.Frame) {
	vp.sw.egress.Put(egressJob{from: vp, frame: f})
}

// OnIPChange registers a callback on the inetaddr notification chain —
// this is the hook MasQ's vBond uses to keep the virtual GID synchronized.
func (vp *VMPort) OnIPChange(fn func(old, new packet.IP)) {
	vp.onIPChg = append(vp.onIPChg, fn)
}

// SetIP re-addresses the vNIC (tenant reconfiguration), updating the
// registry and firing the notification chain.
func (vp *VMPort) SetIP(newIP packet.IP) error {
	old := vp.EP.VIP
	if old == newIP {
		return nil
	}
	key := epKey{vp.EP.VNI, newIP}
	if vp.sw.fab.endpoints[key] != nil {
		return fmt.Errorf("overlay: %v already present in VNI %d", newIP, vp.EP.VNI)
	}
	delete(vp.sw.fab.endpoints, epKey{vp.EP.VNI, old})
	delete(vp.sw.ports, epKey{vp.EP.VNI, old})
	vp.EP.VIP = newIP
	vp.sw.fab.endpoints[key] = vp.EP
	vp.sw.ports[key] = vp
	for _, fn := range vp.onIPChg {
		fn(old, newIP)
	}
	return nil
}

// DetachVM removes a VM port from its vswitch and the fabric registry —
// the network half of VM death. Later lookups of the endpoint miss, so
// peers trying to (re)connect fail cleanly instead of addressing a ghost.
func (sw *VSwitch) DetachVM(vp *VMPort) {
	key := epKey{vp.EP.VNI, vp.EP.VIP}
	if sw.ports[key] != vp {
		return
	}
	delete(sw.ports, key)
	delete(sw.fab.endpoints, key)
}

// MoveEndpoint re-homes a VM port onto another host's vswitch, keeping
// its tenant, virtual IP and MAC — the network half of a live migration
// (Sec. 5 of the MasQ paper). In-flight frames queued at the old switch
// are delivered normally; new traffic follows the updated registry.
func (f *Fabric) MoveEndpoint(vp *VMPort, dst *VSwitch) error {
	src := vp.sw
	if src == dst {
		return nil
	}
	key := epKey{vp.EP.VNI, vp.EP.VIP}
	if src.ports[key] != vp {
		return fmt.Errorf("overlay: endpoint %v not attached to %v", vp.EP.VIP, src.HostIP)
	}
	delete(src.ports, key)
	vp.EP.HostIP, vp.EP.HostMAC = dst.HostIP, dst.HostMAC
	vp.sw = dst
	dst.ports[key] = vp
	return nil
}

// allowed consults conntrack then the tenant policy (TCP path cost model:
// a hit is free at this granularity, a miss scans the chain).
func (sw *VSwitch) allowed(p *simtime.Proc, vni uint32, src, dst packet.IP) bool {
	t := sw.fab.tenants[vni]
	if t == nil {
		return false
	}
	key := flowKey{vni, src, dst}
	if v, ok := sw.conns[key]; ok && v == t.RuleVersion() {
		return true
	}
	ok, units := t.AllowsCost(ProtoTCP, src, dst)
	p.Sleep(simtime.Duration(units) * RulePerScan)
	if !ok {
		delete(sw.conns, key)
		return false
	}
	sw.conns[key] = t.RuleVersion()
	return true
}

// egressLoop handles frames from local VMs: policy, then local delivery or
// VXLAN encapsulation toward the peer host.
func (sw *VSwitch) egressLoop(p *simtime.Proc) {
	for {
		job := sw.egress.Get(p)
		p.Sleep(vhostCost + forwardCost)
		inner, err := packet.Decode(job.frame)
		if err != nil || inner.IPv4() == nil {
			job.from.dropped++
			continue
		}
		vni := job.from.EP.VNI
		src, dst := inner.IPv4().Src, inner.IPv4().Dst
		if !sw.allowed(p, vni, src, dst) {
			job.from.dropped++
			continue
		}
		ep := sw.fab.Lookup(vni, dst)
		if ep == nil {
			job.from.dropped++
			continue
		}
		if ep.HostIP == sw.HostIP {
			// Local VM: ingress policy is the same tenant policy; deliver.
			ep.port.RX.Put(job.frame)
			continue
		}
		dstMAC, ok := sw.resolver(ep.HostIP)
		if !ok {
			job.from.dropped++
			continue
		}
		outer := packet.Serialize(
			&packet.Ethernet{Dst: dstMAC, Src: sw.HostMAC, EtherType: packet.EtherTypeIPv4},
			&packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: sw.HostIP, Dst: ep.HostIP},
			&packet.UDP{SrcPort: 54321, DstPort: packet.PortVXLAN},
			&packet.VXLAN{VNI: vni},
			packet.Payload(job.frame),
		)
		sw.uplink.Send(simnet.Frame(outer))
	}
}

// ingressLoop handles VXLAN packets from the underlay: decap, ingress
// policy, local delivery.
func (sw *VSwitch) ingressLoop(p *simtime.Proc) {
	for {
		pkt := sw.Ingress.Get(p)
		p.Sleep(forwardCost + vhostCost)
		vx := pkt.VXLAN()
		if vx == nil || pkt.Inner == nil || pkt.Inner.IPv4() == nil {
			continue
		}
		src, dst := pkt.Inner.IPv4().Src, pkt.Inner.IPv4().Dst
		if !sw.allowed(p, vx.VNI, src, dst) {
			continue
		}
		vp := sw.ports[epKey{vx.VNI, dst}]
		if vp == nil {
			continue
		}
		vp.RX.Put(simnet.Frame(pkt.InnerRaw))
	}
}
