// Package overlay implements the virtual TCP/IP network of the testbed:
// per-host virtual switches with VXLAN tunnel endpoints (the OVS+VXLAN /
// Weave+VXLAN networks of the paper's Table 3), tenant security policies
// (security group + FWaaS rule chains with default deny), and flow
// connection tracking.
//
// Two consumers sit on top: the out-of-band TCP-like channel applications
// use to exchange QP information (package oob) — which is how denying a
// rule prevents an RDMA connection from ever being established — and
// MasQ's RConntrack, which evaluates the same tenant policies on the RDMA
// control path and subscribes to rule updates.
package overlay

import (
	"slices"

	"masq/internal/packet"
)

// Action is a rule verdict.
type Action int

// Rule actions.
const (
	Deny Action = iota
	Allow
)

func (a Action) String() string {
	if a == Allow {
		return "allow"
	}
	return "deny"
}

// Proto selects which traffic a rule matches.
type Proto int

// Rule protocols. ProtoRDMA matches RDMA connections (evaluated by
// RConntrack); ProtoTCP matches the overlay TCP path; ProtoAny both.
const (
	ProtoAny Proto = iota
	ProtoTCP
	ProtoRDMA
)

// Rule is one security-group / firewall entry. Rules are evaluated in
// descending priority order; the first match wins; no match means deny.
type Rule struct {
	ID       int
	Priority int
	Proto    Proto
	Src, Dst packet.CIDR
	Action   Action
}

// Matches reports whether the rule applies to a flow. A rule whose Proto
// is none of the named protocols matches no flow, not even a ProtoAny one.
func (r Rule) Matches(proto Proto, src, dst packet.IP) bool {
	if r.Proto < ProtoAny || r.Proto > ProtoRDMA {
		return false
	}
	if r.Proto != ProtoAny && proto != ProtoAny && r.Proto != proto {
		return false
	}
	return r.Src.Contains(src) && r.Dst.Contains(dst)
}

// RuleChange describes one policy mutation to subscribers. When Full is
// set the change has no single-rule footprint (bulk load) and consumers
// must re-evaluate everything they derived from the policy.
type RuleChange struct {
	Rule  Rule
	Added bool
	Full  bool
}

// Policy is a tenant's rule set plus an update-notification list. Rules
// are held by ID and shadowed by a decision index (see ruleIndex) that
// answers Allows in O(prefix-length pairs) probes instead of O(rules). The
// first-match chain is a view: chain sorts it on demand and caches it until
// the next change. Only the linear reference scan (allowsLinearCost,
// selected with Tenant.SetLinear) and Rules read it.
type Policy struct {
	byID    map[int]Rule
	view    []Rule // the chain in evaluation order; nil after a change
	idx     ruleIndex
	linear  bool // evaluate with allowsLinearCost; the index is maintained either way
	nextID  int
	version uint64
	subs    []func(RuleChange)
}

// NewPolicy returns an empty (default-deny) policy.
func NewPolicy() *Policy { return &Policy{nextID: 1, byID: make(map[int]Rule)} }

// Version increases on every rule change.
func (pl *Policy) Version() uint64 { return pl.version }

// Rules returns a copy of the chain in evaluation order.
func (pl *Policy) Rules() []Rule { return slices.Clone(pl.chain()) }

// Linear reports whether the policy evaluates via the linear reference
// scan (see Tenant.SetLinear).
func (pl *Policy) Linear() bool { return pl.linear }

// chain returns the rules in evaluation order (chainCmp), sorting them
// into the cached view at the first call after a change.
func (pl *Policy) chain() []Rule {
	if pl.view == nil && len(pl.byID) > 0 {
		pl.view = make([]Rule, 0, len(pl.byID))
		for _, r := range pl.byID {
			pl.view = append(pl.view, r)
		}
		slices.SortFunc(pl.view, chainCmp)
	}
	return pl.view
}

// AddRule adds a rule and returns its ID: a map write plus an incremental
// index update. Subscribers are notified.
func (pl *Policy) AddRule(r Rule) int {
	r.ID = pl.nextID
	pl.nextID++
	pl.byID[r.ID] = r
	pl.view = nil
	pl.idx.add(r)
	pl.bump(RuleChange{Rule: r, Added: true})
	return r.ID
}

// AddRules bulk-loads a batch of rules and returns their IDs. It numbers
// and indexes the batch in one pass and notifies subscribers once, with a
// Full change.
func (pl *Policy) AddRules(rules []Rule) []int {
	if len(rules) == 0 {
		return nil
	}
	if len(pl.byID) == 0 {
		pl.byID = make(map[int]Rule, len(rules))
	}
	ids := make([]int, len(rules))
	for i, r := range rules {
		r.ID = pl.nextID
		pl.nextID++
		ids[i] = r.ID
		pl.byID[r.ID] = r
		pl.idx.add(r)
	}
	pl.view = nil
	pl.bump(RuleChange{Full: true})
	return ids
}

// RemoveRule deletes a rule by ID; it reports whether it existed.
func (pl *Policy) RemoveRule(id int) bool {
	r, ok := pl.byID[id]
	if !ok {
		return false
	}
	delete(pl.byID, id)
	pl.view = nil
	pl.idx.remove(r)
	pl.bump(RuleChange{Rule: r, Added: false})
	return true
}

func (pl *Policy) bump(ch RuleChange) {
	pl.version++
	for _, fn := range pl.subs {
		fn(ch)
	}
}

// SubscribeRules registers fn to run after every rule change with the
// change's footprint (RConntrack's trigger for incremental re-validation
// of established connections).
func (pl *Policy) SubscribeRules(fn func(RuleChange)) { pl.subs = append(pl.subs, fn) }

// Allows evaluates the policy for a flow. Default deny.
func (pl *Policy) Allows(proto Proto, src, dst packet.IP) bool {
	ok, _ := pl.AllowsCost(proto, src, dst)
	return ok
}

// AllowsCost evaluates the policy and additionally returns the work done,
// in rule-evaluation units, for the DES cost model: rules scanned until
// first match for the linear oracle, index bucket probes for the indexed
// engine. The two modes agree on the verdict always and on the unit count
// for the canonical single-allow-all chain (one unit each), which keeps
// default-mode traces byte-identical across engines.
func (pl *Policy) AllowsCost(proto Proto, src, dst packet.IP) (bool, int) {
	if pl.linear {
		return pl.allowsLinearCost(proto, src, dst)
	}
	r, found, probes := pl.idx.lookup(proto, src, dst)
	return found && r.Action == Allow, probes
}

// allowsLinearCost is the reference implementation: a first-match scan
// of the chain, costing one unit per rule scanned.
func (pl *Policy) allowsLinearCost(proto Proto, src, dst packet.IP) (bool, int) {
	chain := pl.chain()
	for i, r := range chain {
		if r.Matches(proto, src, dst) {
			return r.Action == Allow, i + 1
		}
	}
	return false, len(chain)
}

// RuleCount returns the chain length (cost model input).
func (pl *Policy) RuleCount() int { return len(pl.byID) }

// IndexInfo reports the decision index's shape and maintenance counters.
func (pl *Policy) IndexInfo() IndexInfo { return pl.idx.info() }
