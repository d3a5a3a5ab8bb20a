package masq

import (
	"masq/internal/bench"
	"masq/internal/chaos"
	"masq/internal/cluster"
	"masq/internal/controller"
	"masq/internal/hyper"
	masqcore "masq/internal/masq"
	"masq/internal/overlay"
	"masq/internal/packet"
	"masq/internal/rnic"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// --- Simulation engine -----------------------------------------------------

type (
	// Engine is the deterministic discrete-event simulation engine; all
	// activity happens in processes spawned on it, in virtual time.
	Engine = simtime.Engine
	// Proc is a simulation process handle, passed to every blocking call.
	Proc = simtime.Proc
	// Time is virtual nanoseconds since simulation start.
	Time = simtime.Time
	// Duration is a span of virtual time.
	Duration = simtime.Duration
)

// Re-exported time helpers.
var (
	// Us builds a Duration from microseconds.
	Us = simtime.Us
	// Ms builds a Duration from milliseconds.
	Ms = simtime.Ms
)

// Common durations.
const (
	Microsecond = simtime.Microsecond
	Millisecond = simtime.Millisecond
	Second      = simtime.Second
)

// --- Testbed construction ---------------------------------------------------

type (
	// Config parameterizes a testbed (hosts, memory, RNIC calibration,
	// MasQ costs...). Start from DefaultConfig.
	Config = cluster.Config
	// Testbed is an assembled cluster: hosts, overlay fabric, controller,
	// MasQ backends.
	Testbed = cluster.Testbed
	// Node is one workload endpoint (a host app, VM or container) with a
	// verbs provider, memory, compute and an out-of-band channel.
	Node = cluster.Node
	// Mode selects a node's virtualization system.
	Mode = cluster.Mode
	// Endpoint bundles the verbs resources of one connection side.
	Endpoint = cluster.Endpoint
	// EndpointOpts tunes Node.Setup.
	EndpointOpts = cluster.EndpointOpts
	// ConnectedPair is a ready RC connection between two fresh nodes.
	ConnectedPair = cluster.ConnectedPair
	// MigrateOpts tunes Testbed.LiveMigrateNode (dirty rate, copy
	// bandwidth, stop-copy threshold).
	MigrateOpts = cluster.MigrateOpts
	// MigrateReport is a live migration's accounting (blackout breakdown,
	// pre-copy rounds, capture size).
	MigrateReport = cluster.MigrateReport
	// Tenant is a VPC: a VXLAN segment plus its security policy.
	Tenant = overlay.Tenant
	// Policy is a tenant's security-group / firewall rule chain.
	Policy = overlay.Policy
	// Rule is one security rule.
	Rule = overlay.Rule
	// Host is a physical server of the testbed.
	Host = hyper.Host
	// VM is a virtual machine.
	VM = hyper.VM
	// Controller is one shard of the SDN controller holding
	// (VNI, vGID)→pGID mappings (Testbed.Ctrl is shard 0's primary).
	Controller = controller.Controller
	// Backend is a host's MasQ backend driver (RConnrename + RConntrack).
	Backend = masqcore.Backend
	// RConntrack is the RDMA connection tracker.
	RConntrack = masqcore.RConntrack
	// ConnID is an RCT-table key: (VNI, src vIP, dst vIP, QPN).
	ConnID = masqcore.ConnID
	// IP is an IPv4 address on the virtual or physical network.
	IP = packet.IP
	// GID is a 128-bit RDMA global identifier.
	GID = packet.GID
)

// Virtualization modes of the paper's evaluation (Fig. 7).
const (
	// ModeHost runs the application on bare metal (the upper bound).
	ModeHost = cluster.ModeHost
	// ModeSRIOV passes a VF through to the VM.
	ModeSRIOV = cluster.ModeSRIOV
	// ModeMasQ is MasQ with tenant QP groups on VFs (the default).
	ModeMasQ = cluster.ModeMasQ
	// ModeMasQPF is MasQ with best-effort PF placement (Fig. 9).
	ModeMasQPF = cluster.ModeMasQPF
	// ModeFreeFlow runs the container-based FreeFlow baseline.
	ModeFreeFlow = cluster.ModeFreeFlow
	// ModeMasQShared is MasQ with shared host connections: flows to the
	// same peer host multiplex one carrier connection (DESIGN.md §6.1).
	ModeMasQShared = cluster.ModeMasQShared
)

// Security rule vocabulary.
const (
	Allow     = overlay.Allow
	Deny      = overlay.Deny
	ProtoAny  = overlay.ProtoAny
	ProtoTCP  = overlay.ProtoTCP
	ProtoRDMA = overlay.ProtoRDMA
)

// DefaultConfig returns the paper's Table 3 testbed: two directly
// connected servers with 96 GB RAM and CX-3-calibrated 40 Gbps RNICs.
func DefaultConfig() Config { return cluster.DefaultConfig() }

// NewTestbed assembles a cluster.
func NewTestbed(cfg Config) *Testbed { return cluster.New(cfg) }

// NewConnectedPair builds a testbed with one open tenant and a connected
// RC endpoint pair under the given mode (client on host 0, server on
// host 1) — the fixture behind most microbenchmarks.
func NewConnectedPair(cfg Config, mode Mode) (*ConnectedPair, error) {
	return cluster.NewConnectedPair(cfg, mode)
}

// NewConnectedPairOpts is NewConnectedPair with endpoint options.
func NewConnectedPairOpts(cfg Config, mode Mode, opts EndpointOpts) (*ConnectedPair, error) {
	return cluster.NewConnectedPairOpts(cfg, mode, opts)
}

// DefaultEndpointOpts mirrors the paper's microbenchmark resources.
func DefaultEndpointOpts() EndpointOpts { return cluster.DefaultEndpointOpts() }

// Pair connects two endpoints through the Fig. 1 workflow (out-of-band
// exchange + QP state walk), each side in its own process.
var Pair = cluster.Pair

// NewIP builds an IPv4 address from four octets.
var NewIP = packet.NewIP

// ParseCIDR parses "a.b.c.d/n".
var ParseCIDR = packet.ParseCIDR

// GIDFromIP returns the RoCEv2 GID (IPv4-mapped) for an address.
var GIDFromIP = packet.GIDFromIP

// --- Verbs API ---------------------------------------------------------------

type (
	// Device is an open verbs device context.
	Device = verbs.Device
	// PD is a protection domain handle.
	PD = verbs.PD
	// MR is a memory region handle.
	MR = verbs.MR
	// CQ is a completion queue handle.
	CQ = verbs.CQ
	// QP is a queue pair handle.
	QP = verbs.QP
	// SRQ is a shared receive queue handle.
	SRQ = verbs.SRQ
	// Attr carries modify_qp arguments.
	Attr = verbs.Attr
	// ConnInfo is the information peers exchange out of band.
	ConnInfo = verbs.ConnInfo
	// SendWR is a send work request.
	SendWR = verbs.SendWR
	// RecvWR is a receive work request.
	RecvWR = verbs.RecvWR
	// WC is a work completion.
	WC = verbs.WC
	// QPType selects RC or UD service.
	QPType = verbs.QPType
	// State is a QP state (Fig. 5).
	State = verbs.State
	// AddressVector names a remote endpoint.
	AddressVector = verbs.AddressVector
)

// Verbs constants.
const (
	RC = verbs.RC
	UD = verbs.UD

	AccessLocalWrite   = verbs.AccessLocalWrite
	AccessRemoteWrite  = verbs.AccessRemoteWrite
	AccessRemoteRead   = verbs.AccessRemoteRead
	AccessRemoteAtomic = verbs.AccessRemoteAtomic

	WRSend        = verbs.WRSend
	WRSendImm     = verbs.WRSendImm
	WRWrite       = verbs.WRWrite
	WRWriteImm    = verbs.WRWriteImm
	WRRead        = verbs.WRRead
	WRAtomicFAdd  = verbs.WRAtomicFAdd
	WRAtomicCSwap = verbs.WRAtomicCSwap

	WCSuccess  = verbs.WCSuccess
	WCFlushErr = verbs.WCFlushErr

	StateReset = verbs.StateReset
	StateInit  = verbs.StateInit
	StateRTR   = verbs.StateRTR
	StateRTS   = verbs.StateRTS
	StateError = verbs.StateError
)

// --- Chaos (fault injection) -------------------------------------------------

type (
	// ChaosPlan is a schedule of network/VM faults armed on a testbed
	// via Config.Chaos or Testbed.Chaos.Arm.
	ChaosPlan = chaos.Plan
	// ChaosEvent is one scheduled fault.
	ChaosEvent = chaos.Event
	// ChaosInjector applies a plan and records the applied-fault trace.
	ChaosInjector = chaos.Injector
	// AsyncEvent is an RDMA asynchronous event (QP fatal, port down/up)
	// read from an AsyncDevice.
	AsyncEvent = verbs.AsyncEvent
	// AsyncDevice is the async-event side channel of a verbs Device.
	AsyncDevice = verbs.AsyncDevice
)

// Chaos fault constructors and helpers.
var (
	// ChaosOutage cuts a link for a window.
	ChaosOutage = chaos.Outage
	// ChaosLoss installs a seeded (burst) loss model for a window.
	ChaosLoss = chaos.Loss
	// ChaosFlap cuts a link periodically inside a window.
	ChaosFlap = chaos.Flap
	// ChaosCrash kills a testbed node (by creation index) at a time.
	ChaosCrash = chaos.Crash
	// ChaosMigrate live-migrates a testbed node (by creation index) to a
	// destination host at a time.
	ChaosMigrate = chaos.Migrate
	// ChaosCtrlOutage crashes the SDN controller (table and queued pushes
	// lost) and restarts it empty at a new epoch.
	ChaosCtrlOutage = chaos.CtrlOutage
	// ChaosShardCrash crashes one controller shard's primary; with
	// replication on its standby is promoted (epoch bump on that shard
	// only) and the restart at `to` is a no-op.
	ChaosShardCrash = chaos.ShardCrash
	// ChaosShardPartition isolates one shard's primary for a window: a
	// blip if healed before the failover detector fires, a failover
	// (deposed primary rejoins as standby) otherwise.
	ChaosShardPartition = chaos.ShardPartition
	// ChaosReplLag slows one shard's standby replication stream for a
	// window, widening the fenced-write tail a failover would cut.
	ChaosReplLag = chaos.ReplLag
	// RandomChaosPlan derives a pure, seeded random fault schedule.
	RandomChaosPlan = chaos.RandomPlan
	// WithCtrlCrashes makes RandomChaosPlan append controller outages
	// after the base schedule (existing seeds stay byte-identical).
	WithCtrlCrashes = chaos.WithCtrlCrashes
	// AsAsync unwraps a Device's async-event channel, if it has one.
	AsAsync = verbs.AsAsync
)

// Async event types.
const (
	EventQPFatal  = verbs.EventQPFatal
	EventPortDown = verbs.EventPortDown
	EventPortUp   = verbs.EventPortUp
)

// RNICParams exposes the device calibration knobs.
type RNICParams = rnic.Params

// DefaultRNICParams returns the CX-3-calibrated parameter set.
func DefaultRNICParams() RNICParams { return rnic.DefaultParams() }

// --- Experiments --------------------------------------------------------------

// ExperimentTable is one regenerated table/figure.
type ExperimentTable = bench.Table

// Experiment is a registered reproduction of a paper table or figure.
type Experiment = bench.Experiment

// Experiments lists every registered experiment, sorted by id.
func Experiments() []Experiment { return bench.All() }

// RunExperiment runs one experiment by id (e.g. "fig8a", "table5").
func RunExperiment(id string) (*ExperimentTable, bool) {
	e, ok := bench.Lookup(id)
	if !ok {
		return nil, false
	}
	return e.Run(), true
}
