// Package hyper models the compute side of the testbed: hosts with
// physical memory and an RNIC, QEMU/KVM virtual machines with layered
// guest address spaces and memory-capacity accounting (the Table 5
// experiment), lightweight containers (FreeFlow's environment), and the
// host-side frame demultiplexer that steers RoCEv2 traffic to the RNIC and
// VXLAN traffic to the virtual switch.
package hyper

import (
	"fmt"

	"masq/internal/mem"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simnet"
	"masq/internal/simtime"
)

// Hypervisor-level constants.
const (
	// vmMemOverhead is the per-VM hypervisor memory tax (QEMU, page
	// tables, virtio rings). Calibrated so a 96 GB host fits ~160 VMs of
	// 512 MB each, matching Table 5.
	vmMemOverhead = 100 << 20 // 100 MiB
	// vmComputeFactor scales CPU-bound work inside a VM (>1 = slower).
	// Containers run at native speed. Drives the Fig. 23 FlatMap gap.
	vmComputeFactor = 1.17
)

// Host is one physical server.
type Host struct {
	Name string
	IP   packet.IP
	MAC  packet.MAC

	Eng     *simtime.Engine
	Phys    *mem.Phys
	HVA     *mem.AddrSpace // host userspace (QEMU's, and host apps')
	Dev     *rnic.Device
	Port    *simnet.Port
	VSwitch *overlay.VSwitch

	demuxCb func(simnet.Frame) // cached RX callback
	vms     []*VM
}

// HostConfig configures a new host.
type HostConfig struct {
	Name     string
	IP       packet.IP
	MAC      packet.MAC
	MemBytes uint64
	RNIC     rnic.Params
	// Fabric, when non-nil, gives the host a vswitch/VTEP.
	Fabric *overlay.Fabric
	// ResolveHost maps peer host IPs to MACs (underlay neighbor table).
	ResolveHost func(packet.IP) (packet.MAC, bool)
}

// NewHost builds the host: physical memory, RNIC on the PF, physical port,
// vswitch, and the RX demultiplexer.
func NewHost(eng *simtime.Engine, cfg HostConfig) *Host {
	phys := mem.NewPhys(cfg.MemBytes)
	hva := mem.NewAddrSpace(cfg.Name+".hva", phys, phys.AllocPages)
	dev := rnic.NewDevice(eng, cfg.Name+".rnic", cfg.RNIC, phys)
	dev.PF().SetAddr(cfg.IP, cfg.MAC)
	port := simnet.NewPort(eng, cfg.Name+".port")
	dev.AttachPort(port)

	h := &Host{
		Name: cfg.Name, IP: cfg.IP, MAC: cfg.MAC,
		Eng: eng, Phys: phys, HVA: hva, Dev: dev, Port: port,
	}
	if cfg.Fabric != nil {
		h.VSwitch = cfg.Fabric.NewVSwitch(eng, cfg.IP, cfg.MAC, port, cfg.ResolveHost)
	}
	h.demuxCb = h.demux
	port.RX.OnNext(h.demuxCb)
	return h
}

// demux steers arriving frames — RoCEv2 → RNIC, VXLAN → vswitch — running
// inline in the engine loop: steering costs no virtual time, so it needs no
// process of its own.
func (h *Host) demux(f simnet.Frame) {
	for {
		// Frames decode from the RNIC's arena pool: RoCE packets are
		// released by the RX pipeline after handling; vswitch-bound ones
		// are retained by the overlay and left to the garbage collector.
		if pkt, err := h.Dev.RxDecode(f); err == nil {
			dispatched := false
			if u := pkt.UDP(); u != nil {
				switch u.DstPort {
				case packet.PortRoCEv2, packet.PortRoCEShared:
					h.Dev.Ingress.Put(pkt)
					dispatched = true
				case packet.PortVXLAN:
					if h.VSwitch != nil {
						h.VSwitch.Ingress.Put(pkt)
						dispatched = true
					}
				}
			}
			if !dispatched {
				pkt.Release()
			}
		}
		var ok bool
		f, ok = h.Port.RX.TryGet()
		if !ok {
			h.Port.RX.OnNext(h.demuxCb)
			return
		}
	}
}

// VM is a QEMU/KVM guest with one application address space and one vNIC.
type VM struct {
	Name string
	Host *Host
	Mem  uint64

	GPA  *mem.AddrSpace // guest-physical, carved from QEMU's HVA
	GVA  *mem.AddrSpace // the guest application's address space
	VNIC *overlay.VMPort
}

// NewVM boots a VM with the given RAM on tenant vni at virtual IP vip,
// reserving RAM + hypervisor overhead from host memory. It fails with
// mem.ErrOutOfMemory when the host is full — the Table 5 limiting factor.
func (h *Host) NewVM(name string, memBytes uint64, vni uint32, vip packet.IP) (*VM, error) {
	if err := h.Phys.Reserve(memBytes + vmMemOverhead); err != nil {
		return nil, fmt.Errorf("hyper: boot %s: %w", name, err)
	}
	gpa := mem.NewAddrSpace(name+".gpa", h.HVA, h.HVA.AllocBacking)
	gva := mem.NewAddrSpace(name+".gva", gpa, gpa.AllocBacking)
	vm := &VM{Name: name, Host: h, Mem: memBytes, GPA: gpa, GVA: gva}
	if h.VSwitch != nil {
		vp, err := h.VSwitch.AttachVM(vni, vip)
		if err != nil {
			h.Phys.Release(memBytes + vmMemOverhead)
			return nil, err
		}
		vm.VNIC = vp
	}
	h.vms = append(h.vms, vm)
	return vm, nil
}

// MigrateTo re-homes the VM onto dst *in place*: capacity is reserved on
// the destination, the guest-physical space is rehomed into dst's
// userspace (mem.AddrSpace.Rehome — same GPA/GVA objects, same virtual
// addresses, fresh backing), and the source reservation is released. The
// GPA must be unpinned (a live migration deregisters MRs around the
// stop-copy); pins held at the GVA level survive untouched, which is what
// lets applications keep their buffers across a transparent migration.
// On error nothing has moved. The caller re-homes the vNIC, re-plugs the
// paravirtual device, and re-registers MRs on the destination.
func (vm *VM) MigrateTo(dst *Host) error {
	if vm.Host == dst {
		return nil
	}
	if vm.GPA.Pinned() {
		return fmt.Errorf("hyper: %s has pinned (DMA-visible) guest memory; unpin MRs before the stop-copy", vm.Name)
	}
	if err := dst.Phys.Reserve(vm.Mem + vmMemOverhead); err != nil {
		return fmt.Errorf("hyper: migrate %s: %w", vm.Name, err)
	}
	if err := vm.GPA.Rehome(dst.HVA); err != nil {
		dst.Phys.Release(vm.Mem + vmMemOverhead)
		return err
	}
	src := vm.Host
	src.Phys.Release(vm.Mem + vmMemOverhead)
	for i, v := range src.vms {
		if v == vm {
			src.vms = append(src.vms[:i], src.vms[i+1:]...)
			break
		}
	}
	vm.Host = dst
	dst.vms = append(dst.vms, vm)
	return nil
}

// Shutdown detaches the VM's vNIC, which NewVM attached, so that its
// virtual IP leaves the fabric registry, and releases the VM's memory
// reservation.
func (vm *VM) Shutdown() {
	if vm.VNIC != nil {
		vm.Host.VSwitch.DetachVM(vm.VNIC)
	}
	vm.Host.Phys.Release(vm.Mem + vmMemOverhead)
	for i, v := range vm.Host.vms {
		if v == vm {
			vm.Host.vms = append(vm.Host.vms[:i], vm.Host.vms[i+1:]...)
			break
		}
	}
}

// VMs returns the number of VMs currently booted.
func (h *Host) VMs() int { return len(h.vms) }

// Compute burns d of CPU time scaled by the VM's virtualization overhead.
func (vm *VM) Compute(p *simtime.Proc, d simtime.Duration) {
	p.Sleep(simtime.Duration(float64(d) * vmComputeFactor))
}

// Container is a lightweight environment (FreeFlow's deployment target):
// no memory reservation tax, native compute speed, a vNIC on the overlay,
// and buffers directly in host userspace.
type Container struct {
	Name string
	Host *Host
	GVA  *mem.AddrSpace // container processes live in host userspace
	VNIC *overlay.VMPort
}

// NewContainer starts a container on tenant vni at vip.
func (h *Host) NewContainer(name string, vni uint32, vip packet.IP) (*Container, error) {
	c := &Container{Name: name, Host: h, GVA: h.HVA}
	if h.VSwitch != nil {
		vp, err := h.VSwitch.AttachVM(vni, vip)
		if err != nil {
			return nil, err
		}
		c.VNIC = vp
	}
	return c, nil
}

// Compute burns d of CPU time at native speed.
func (c *Container) Compute(p *simtime.Proc, d simtime.Duration) { p.Sleep(d) }
