// Package chaos is the deterministic fault-injection layer of the testbed.
// A Plan is a set of faults — link outages and flaps, windowed packet-loss
// models, switch failures, tenant-visible partitions, node crashes — pinned
// to virtual time. An Injector arms a plan on the simulation engine; every
// fault it applies is recorded in an ordered event trace, so two runs with
// the same seed and plan produce byte-identical traces (the determinism
// invariant the soak tests assert).
//
// The design language follows the controller's FaultPlan from the rename
// hardening work: windows of virtual time plus a seeded PRNG, never wall
// clock, so chaos composes with the DES without perturbing it.
package chaos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"masq/internal/simnet"
	"masq/internal/simtime"
)

// Kind enumerates the fault types a Plan can schedule.
type Kind int

const (
	// LinkDown takes a link administratively down at At (and back up at
	// Until, if Until is nonzero).
	LinkDown Kind = iota
	// LinkUp restores a link at At.
	LinkUp
	// LinkFlap repeatedly cuts the link between At and Until: down for
	// DownFor at the start of every Period.
	LinkFlap
	// LinkLoss installs a probabilistic loss model (Prob, Burst) on the
	// link for the window [At, Until).
	LinkLoss
	// SwitchDown fails a switch at At (and restores it at Until, if
	// nonzero).
	SwitchDown
	// SwitchUp restores a switch at At.
	SwitchUp
	// NodeCrash kills a node (VM death) at At. The injector only knows the
	// node by index; the cluster layer supplies the OnCrash callback that
	// performs the actual teardown.
	NodeCrash
	// CtrlCrash kills the SDN controller at At (and restarts it at Until,
	// if nonzero): its mapping table and pending notifications are lost,
	// and every control RPC times out until restart. The cluster layer
	// supplies the OnCtrlCrash/OnCtrlRestart callbacks.
	CtrlCrash
	// CtrlRestart restarts a crashed controller at At (empty table, new
	// epoch).
	CtrlRestart
	// NodeMigrate live-migrates a node's VM to host Dst at At. Like
	// NodeCrash, the injector only knows indices; the cluster layer
	// supplies the OnMigrate callback that runs the migration engine.
	NodeMigrate
	// CtrlShardCrash kills one controller shard's primary at At (and
	// restarts it at Until, if nonzero). With replication enabled the
	// shard's standby auto-promotes after the failover-detect window; the
	// other shards keep serving throughout.
	CtrlShardCrash
	// CtrlShardRestart restarts one crashed controller shard at At.
	CtrlShardRestart
	// CtrlShardPartition isolates one shard's primary for [At, Until): RPCs
	// to it time out but its table survives. A heal before the failover
	// detector fires is a blip; after, the deposed primary's writes are
	// fenced and it rejoins as the shard's fresh standby.
	CtrlShardPartition
	// CtrlReplLag inflates one shard's replication delay by Extra for
	// [At, Until), widening the standby's loss window for failovers.
	CtrlReplLag
)

func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case LinkFlap:
		return "link-flap"
	case LinkLoss:
		return "link-loss"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case NodeCrash:
		return "node-crash"
	case CtrlCrash:
		return "ctrl-crash"
	case CtrlRestart:
		return "ctrl-restart"
	case NodeMigrate:
		return "node-migrate"
	case CtrlShardCrash:
		return "ctrl-shard-crash"
	case CtrlShardRestart:
		return "ctrl-shard-restart"
	case CtrlShardPartition:
		return "ctrl-shard-partition"
	case CtrlReplLag:
		return "ctrl-repl-lag"
	}
	return "unknown"
}

// Event is one scheduled fault. Which fields matter depends on Kind.
type Event struct {
	Kind  Kind
	At    simtime.Time
	Until simtime.Time // window end for LinkDown/LinkFlap/LinkLoss/SwitchDown

	Link   *simnet.Link   // LinkDown/LinkUp/LinkFlap/LinkLoss
	Switch *simnet.Switch // SwitchDown/SwitchUp
	Node   int            // NodeCrash/NodeMigrate
	Dst    int            // NodeMigrate: destination host index
	Shard  int            // CtrlShard*/CtrlReplLag: controller shard index

	Prob  float64 // LinkLoss: per-decision drop probability
	Burst int     // LinkLoss: consecutive frames lost per decision (min 1)

	Period  simtime.Duration // LinkFlap: one cut per Period
	DownFor simtime.Duration // LinkFlap: cut length
	Extra   simtime.Duration // CtrlReplLag: added replication delay
}

// Plan is a seeded fault schedule. Seed feeds the per-window loss PRNGs
// (each loss window derives its own stream, so reordering windows in the
// plan does not reshuffle drop decisions).
type Plan struct {
	Seed   int64
	Events []Event
}

// Outage returns a down/up pair cutting l for [from, to).
func Outage(l *simnet.Link, from, to simtime.Time) []Event {
	return []Event{{Kind: LinkDown, At: from, Until: to, Link: l}}
}

// Flap returns a flapping fault on l: between start and until, the link
// goes down for downFor at the beginning of every period.
func Flap(l *simnet.Link, start, until simtime.Time, period, downFor simtime.Duration) Event {
	return Event{Kind: LinkFlap, At: start, Until: until, Link: l, Period: period, DownFor: downFor}
}

// Loss returns a windowed loss fault on l with the given drop probability
// and burst length.
func Loss(l *simnet.Link, from, to simtime.Time, prob float64, burst int) Event {
	return Event{Kind: LinkLoss, At: from, Until: to, Link: l, Prob: prob, Burst: burst}
}

// Partition cuts every given link for [from, to): the tenant-visible view
// is a network partition separating the hosts behind those links.
func Partition(from, to simtime.Time, links ...*simnet.Link) []Event {
	evs := make([]Event, 0, len(links))
	for _, l := range links {
		evs = append(evs, Event{Kind: LinkDown, At: from, Until: to, Link: l})
	}
	return evs
}

// Crash returns a node-crash fault at t for the node with the given index.
func Crash(node int, t simtime.Time) Event {
	return Event{Kind: NodeCrash, At: t, Node: node}
}

// Migrate returns a live-migration fault at t: the node with the given
// index moves to host dst.
func Migrate(node, dst int, t simtime.Time) Event {
	return Event{Kind: NodeMigrate, At: t, Node: node, Dst: dst}
}

// CtrlOutage returns a controller crash at from with a restart at to: the
// control plane is dark for [from, to), comes back empty, and the edge
// reconverges it. A zero to crashes without recovery.
func CtrlOutage(from, to simtime.Time) Event {
	return Event{Kind: CtrlCrash, At: from, Until: to}
}

// ShardCrash returns a crash of one controller shard's primary at from
// (with a restart at to, if nonzero — under replication the standby
// usually auto-promotes first and the restart is a no-op).
func ShardCrash(shard int, from, to simtime.Time) Event {
	return Event{Kind: CtrlShardCrash, At: from, Until: to, Shard: shard}
}

// ShardPartition isolates one controller shard's primary for [from, to).
func ShardPartition(shard int, from, to simtime.Time) Event {
	return Event{Kind: CtrlShardPartition, At: from, Until: to, Shard: shard}
}

// ReplLag inflates one shard's replication delay by extra for [from, to).
func ReplLag(shard int, from, to simtime.Time, extra simtime.Duration) Event {
	return Event{Kind: CtrlReplLag, At: from, Until: to, Shard: shard, Extra: extra}
}

// Stats counts faults the injector actually applied.
type Stats struct {
	LinkTransitions   uint64 // down/up edges applied to links (flaps included)
	LossWindows       uint64 // loss models installed
	SwitchTransitions uint64 // down/up edges applied to switches
	Crashes           uint64 // node crashes fired
	Migrations        uint64 // node live migrations fired
	CtrlCrashes       uint64 // controller crashes fired
	CtrlRestarts      uint64 // controller restarts fired
	ShardCrashes      uint64 // controller shard crashes fired
	ShardRestarts     uint64 // controller shard restarts fired
	ShardPartitions   uint64 // controller shard partitions fired
	ReplLagWindows    uint64 // replication-lag windows installed
}

// Injector arms a Plan on an engine and records the applied-fault trace.
type Injector struct {
	Stats Stats

	// OnCrash, when set, is invoked (inside the engine loop, at the
	// event's virtual time) for every NodeCrash event. The cluster layer
	// wires it to Testbed.CrashNode.
	OnCrash func(node int)

	// OnMigrate, when set, is invoked for every NodeMigrate event. The
	// cluster layer wires it to Testbed.LiveMigrateNode.
	OnMigrate func(node, dst int)

	// OnCtrlCrash/OnCtrlRestart, when set, are invoked for CtrlCrash and
	// CtrlRestart events (and a CtrlCrash event's Until edge). The cluster
	// layer wires them to controller.Sharded CrashAll and RestartAll.
	OnCtrlCrash   func()
	OnCtrlRestart func()

	// Sharded-controller hooks: the cluster layer wires these to the
	// controller.Sharded per-shard crash/restart/partition/lag entry points.
	OnShardCrash     func(shard int)
	OnShardRestart   func(shard int)
	OnShardPartition func(shard int, heal simtime.Time)
	OnReplLag        func(shard int, until simtime.Time, extra simtime.Duration)

	// OnLinkState, when set, is invoked after every applied link
	// transition (edge-filtered: only real state changes). The cluster
	// layer uses it to mirror cable state into the adjacent RNICs' port
	// state so guests see port async events.
	OnLinkState func(l *simnet.Link, down bool)

	eng   *simtime.Engine
	trace []string
}

// NewInjector returns an injector bound to eng.
func NewInjector(eng *simtime.Engine) *Injector {
	return &Injector{eng: eng}
}

// Arm schedules every event of pl on the engine. Arm may be called before
// or during a run; events whose At is in the past are dropped (armed plans
// describe the future). Multiple plans can be armed on one injector.
func (in *Injector) Arm(pl Plan) {
	for i, ev := range pl.Events {
		ev := ev
		switch ev.Kind {
		case LinkDown:
			in.at(ev.At, func() { in.setLink(ev.Link, true) })
			if ev.Until > ev.At {
				in.at(ev.Until, func() { in.setLink(ev.Link, false) })
			}
		case LinkUp:
			in.at(ev.At, func() { in.setLink(ev.Link, false) })
		case LinkFlap:
			in.armFlap(ev)
		case LinkLoss:
			seed := lossSeed(pl.Seed, i)
			in.at(ev.At, func() { in.installLoss(ev, seed) })
		case SwitchDown:
			in.at(ev.At, func() { in.setSwitch(ev.Switch, true) })
			if ev.Until > ev.At {
				in.at(ev.Until, func() { in.setSwitch(ev.Switch, false) })
			}
		case SwitchUp:
			in.at(ev.At, func() { in.setSwitch(ev.Switch, false) })
		case NodeCrash:
			in.at(ev.At, func() { in.crash(ev.Node) })
		case NodeMigrate:
			in.at(ev.At, func() { in.migrate(ev.Node, ev.Dst) })
		case CtrlCrash:
			in.at(ev.At, in.ctrlCrash)
			if ev.Until > ev.At {
				in.at(ev.Until, in.ctrlRestart)
			}
		case CtrlRestart:
			in.at(ev.At, in.ctrlRestart)
		case CtrlShardCrash:
			in.at(ev.At, func() { in.shardCrash(ev.Shard) })
			if ev.Until > ev.At {
				in.at(ev.Until, func() { in.shardRestart(ev.Shard) })
			}
		case CtrlShardRestart:
			in.at(ev.At, func() { in.shardRestart(ev.Shard) })
		case CtrlShardPartition:
			in.at(ev.At, func() { in.shardPartition(ev.Shard, ev.Until) })
		case CtrlReplLag:
			in.at(ev.At, func() { in.replLag(ev.Shard, ev.Until, ev.Extra) })
		}
	}
}

// at schedules fn, tolerating events already in the past.
func (in *Injector) at(t simtime.Time, fn func()) {
	if t < in.eng.Now() {
		return
	}
	in.eng.At(t, fn)
}

func (in *Injector) setLink(l *simnet.Link, down bool) {
	if l.IsDown() == down {
		return
	}
	l.SetDown(down)
	in.Stats.LinkTransitions++
	state := "up"
	if down {
		state = "down"
	}
	in.record("link %s %s", l.Name(), state)
	if in.OnLinkState != nil {
		in.OnLinkState(l, down)
	}
}

func (in *Injector) setSwitch(s *simnet.Switch, down bool) {
	if s.IsDown() == down {
		return
	}
	s.SetDown(down)
	in.Stats.SwitchTransitions++
	state := "up"
	if down {
		state = "down"
	}
	in.record("switch %s %s", s.Name, state)
}

func (in *Injector) armFlap(ev Event) {
	var cut func()
	cut = func() {
		if in.eng.Now() >= ev.Until {
			return
		}
		in.setLink(ev.Link, true)
		in.eng.After(ev.DownFor, func() { in.setLink(ev.Link, false) })
		next := in.eng.Now().Add(ev.Period)
		if next < ev.Until {
			in.eng.At(next, cut)
		}
	}
	in.at(ev.At, cut)
}

func (in *Injector) installLoss(ev Event, seed int64) {
	m := simnet.NewLossModel(seed, ev.Prob, ev.Burst, ev.At, ev.Until)
	ev.Link.SetLoss(m)
	in.Stats.LossWindows++
	in.record("loss %s p=%g burst=%d until=%d", ev.Link.Name(), ev.Prob, max(ev.Burst, 1), int64(ev.Until))
	if ev.Until > 0 {
		in.at(ev.Until, func() {
			// Only uninstall our own model: a later window may have
			// replaced it already.
			if ev.Link.Loss() == m {
				ev.Link.SetLoss(nil)
			}
		})
	}
}

func (in *Injector) crash(node int) {
	in.Stats.Crashes++
	in.record("crash node %d", node)
	if in.OnCrash != nil {
		in.OnCrash(node)
	}
}

func (in *Injector) migrate(node, dst int) {
	in.Stats.Migrations++
	in.record("migrate node %d -> host %d", node, dst)
	if in.OnMigrate != nil {
		in.OnMigrate(node, dst)
	}
}

func (in *Injector) ctrlCrash() {
	in.Stats.CtrlCrashes++
	in.record("ctrl crash")
	if in.OnCtrlCrash != nil {
		in.OnCtrlCrash()
	}
}

func (in *Injector) ctrlRestart() {
	in.Stats.CtrlRestarts++
	in.record("ctrl restart")
	if in.OnCtrlRestart != nil {
		in.OnCtrlRestart()
	}
}

func (in *Injector) shardCrash(shard int) {
	in.Stats.ShardCrashes++
	in.record("ctrl shard %d crash", shard)
	if in.OnShardCrash != nil {
		in.OnShardCrash(shard)
	}
}

func (in *Injector) shardRestart(shard int) {
	in.Stats.ShardRestarts++
	in.record("ctrl shard %d restart", shard)
	if in.OnShardRestart != nil {
		in.OnShardRestart(shard)
	}
}

func (in *Injector) shardPartition(shard int, heal simtime.Time) {
	in.Stats.ShardPartitions++
	in.record("ctrl shard %d partition until=%d", shard, int64(heal))
	if in.OnShardPartition != nil {
		in.OnShardPartition(shard, heal)
	}
}

func (in *Injector) replLag(shard int, until simtime.Time, extra simtime.Duration) {
	in.Stats.ReplLagWindows++
	in.record("ctrl shard %d repl-lag until=%d extra=%d", shard, int64(until), int64(extra))
	if in.OnReplLag != nil {
		in.OnReplLag(shard, until, extra)
	}
}

func (in *Injector) record(format string, args ...any) {
	in.trace = append(in.trace, fmt.Sprintf("t=%d %s", int64(in.eng.Now()), fmt.Sprintf(format, args...)))
}

// Trace returns the applied-fault trace in application order.
func (in *Injector) Trace() []string { return in.trace }

// TraceBytes returns the trace as one newline-joined blob — the unit the
// determinism invariant compares byte-for-byte between same-seed runs.
func (in *Injector) TraceBytes() []byte {
	return []byte(strings.Join(in.trace, "\n"))
}

// lossSeed derives a per-window PRNG seed from the plan seed and the
// window's position, splitmix-style, so windows get independent streams.
func lossSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// PlanOption extends RandomPlan with opt-in fault families. Options draw
// from the PRNG only after the base schedule, so a plan built with no
// options is byte-identical to one built by an older RandomPlan.
type PlanOption func(rng *rand.Rand, horizon simtime.Duration, pl *Plan)

// WithCtrlCrashes schedules n controller crash+restart outages inside the
// middle 70% of the horizon, each lasting 2–10% of it.
func WithCtrlCrashes(n int) PlanOption {
	return func(rng *rand.Rand, horizon simtime.Duration, pl *Plan) {
		for i := 0; i < n; i++ {
			start := simtime.Time(float64(horizon) * (0.1 + 0.7*rng.Float64()))
			dur := simtime.Duration(float64(horizon) * (0.02 + 0.08*rng.Float64()))
			pl.Events = append(pl.Events, CtrlOutage(start, start.Add(dur)))
		}
	}
}

// RandomPlan draws a seeded random fault schedule over [0, horizon) on the
// given links: faults events, each a loss window (even draws), an outage
// (every fourth) or a flap (the rest). maxProb caps loss-window severity.
// Faults start inside the middle 70% of the horizon and last 2–10% of it,
// so workloads have fault-free warm-up and drain phases. Options append
// further fault families (e.g. WithCtrlCrashes). The result is a pure
// function of its arguments — the same seed always yields the same plan.
func RandomPlan(seed int64, links []*simnet.Link, horizon simtime.Duration, faults int, maxProb float64, opts ...PlanOption) Plan {
	rng := rand.New(rand.NewSource(seed))
	pl := Plan{Seed: seed}
	for i := 0; i < faults && len(links) > 0; i++ {
		l := links[rng.Intn(len(links))]
		start := simtime.Time(float64(horizon) * (0.1 + 0.7*rng.Float64()))
		dur := simtime.Duration(float64(horizon) * (0.02 + 0.08*rng.Float64()))
		end := start.Add(dur)
		switch i % 4 {
		case 0, 2:
			prob := maxProb * (0.2 + 0.8*rng.Float64())
			burst := 1 + rng.Intn(4)
			pl.Events = append(pl.Events, Loss(l, start, end, prob, burst))
		case 1:
			pl.Events = append(pl.Events, Outage(l, start, end)...)
		default:
			period := dur / simtime.Duration(2+rng.Intn(3))
			pl.Events = append(pl.Events, Flap(l, start, end, period, period/4))
		}
	}
	// Options draw strictly after the base loop: no-option plans keep the
	// exact event sequence older callers got.
	for _, opt := range opts {
		opt(rng, horizon, &pl)
	}
	// Sort by start time: plan readability only; arming is order-blind and
	// loss seeds are derived after sorting, so the plan stays a pure
	// function of the inputs.
	sort.SliceStable(pl.Events, func(a, b int) bool { return pl.Events[a].At < pl.Events[b].At })
	return pl
}
