package masq

import (
	"masq/internal/controller"
	"masq/internal/overlay"
	"masq/internal/packet"
)

// VBond binds a VM's virtual Ethernet interface and virtual RDMA interface
// into one virtual RoCE device (Sec. 3.3.1). It owns the virtual GID:
// derived from the Ethernet interface's IP at initialization, re-derived
// whenever the IP changes (via the inetaddr notification chain), and
// registered with the SDN controller under (VNI, vGID) so RConnrename on
// other hosts can resolve it.
type VBond struct {
	vni     uint32
	vnic    *overlay.VMPort
	ctrl    *controller.Sharded
	phys    controller.Mapping // this host's physical identity
	vgid    packet.GID
	stopped bool
}

// NewVBond creates the bond and performs the initial registration: the
// virtual Ethernet interface already has a valid IP, so the GID is
// initialized immediately, and a callback is hooked onto the notification
// chain for future changes.
func NewVBond(vni uint32, vnic *overlay.VMPort, ctrl *controller.Sharded, phys controller.Mapping) *VBond {
	b := &VBond{vni: vni, vnic: vnic, ctrl: ctrl, phys: phys}
	if ip := vnic.EP.VIP; !ip.IsZero() {
		b.vgid = packet.GIDFromIP(ip)
		ctrl.Register(controller.Key{VNI: vni, VGID: b.vgid}, phys)
	}
	vnic.OnIPChange(b.ipChanged)
	return b
}

// NewVBondDeferred creates a bond that does NOT register with the
// controller and starts stopped: the live-migration destination builds its
// successor bond this way, so the (VNI, vGID) → destination mapping is
// published atomically by the controller Move RPC — the commit point —
// rather than by construction. activate() arms it once the move commits;
// a rolled-back migration simply abandons the stopped bond.
func NewVBondDeferred(vni uint32, vnic *overlay.VMPort, ctrl *controller.Sharded, phys controller.Mapping) *VBond {
	b := &VBond{vni: vni, vnic: vnic, ctrl: ctrl, phys: phys, stopped: true}
	if ip := vnic.EP.VIP; !ip.IsZero() {
		b.vgid = packet.GIDFromIP(ip)
	}
	vnic.OnIPChange(b.ipChanged)
	return b
}

// activate arms a deferred bond after the migration commit: from here on
// it owns the lease and reacts to IP changes like any live bond.
func (b *VBond) activate() { b.stopped = false }

// GID returns the current virtual GID — what the application sees from
// ibv_query_gid (the frontend answers locally from here; the verb is pure
// software and never forwarded).
func (b *VBond) GID() packet.GID { return b.vgid }

// VNI returns the tenant network identifier.
func (b *VBond) VNI() uint32 { return b.vni }

// VIP returns the bound interface's current virtual IP.
func (b *VBond) VIP() packet.IP { return b.vnic.EP.VIP }

// Registration returns the bond's current controller registration — what
// the backend's lease-renewal process re-asserts every period. ok is false
// when the bond is stopped or holds no IP: such bonds own no lease.
func (b *VBond) Registration() (controller.Key, controller.Mapping, bool) {
	if b.stopped || b.vgid.IsZero() {
		return controller.Key{}, controller.Mapping{}, false
	}
	return controller.Key{VNI: b.vni, VGID: b.vgid}, b.phys, true
}

// Stop deactivates the bond: its notification-chain callback becomes a
// no-op. Used when the VM migrates and a new bond (with the destination
// host's physical identity) takes over; the mapping itself is NOT
// unregistered — the successor overwrites it.
func (b *VBond) Stop() { b.stopped = true }

// Shutdown deactivates the bond AND withdraws its controller mapping.
// This is the VM-death path: unlike migration, no successor will overwrite
// the entry, and a (VNI, vGID) mapping must never outlive its endpoint.
func (b *VBond) Shutdown() {
	if b.stopped {
		return
	}
	b.stopped = true
	if !b.vgid.IsZero() {
		b.ctrl.Unregister(controller.Key{VNI: b.vni, VGID: b.vgid})
	}
}

// ipChanged is the inetaddr-notification callback: update the GID and the
// controller's mapping table immediately.
func (b *VBond) ipChanged(old, new packet.IP) {
	if b.stopped {
		return
	}
	if !b.vgid.IsZero() {
		b.ctrl.Unregister(controller.Key{VNI: b.vni, VGID: b.vgid})
	}
	if new.IsZero() {
		b.vgid = packet.GID{}
		return
	}
	b.vgid = packet.GIDFromIP(new)
	b.ctrl.Register(controller.Key{VNI: b.vni, VGID: b.vgid}, b.phys)
}
