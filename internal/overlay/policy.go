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
	"sort"

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

// Matches reports whether the rule applies to a flow.
func (r Rule) Matches(proto Proto, src, dst packet.IP) bool {
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

// Policy is a tenant's ordered rule chain plus an update-notification
// list. The chain is shadowed by a decision index (see ruleIndex) that
// answers Allows in O(prefix-length pairs) probes instead of O(rules);
// the linear scan (allowsLinearCost) is kept as the reference
// implementation, selected with Tenant.SetLinear.
type Policy struct {
	rules   []Rule // chain order: priority desc, ID asc
	byID    map[int]Rule
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
func (pl *Policy) Rules() []Rule { return append([]Rule(nil), pl.rules...) }

// Linear reports whether the policy evaluates via the linear reference
// scan (see Tenant.SetLinear).
func (pl *Policy) Linear() bool { return pl.linear }

// chainPos returns r's position in the chain. r must be present.
func (pl *Policy) chainPos(r Rule) int {
	return sort.Search(len(pl.rules), func(i int) bool { return !chainBefore(pl.rules[i], r) })
}

// AddRule inserts a rule and returns its ID. The rule is spliced directly
// into its priority position (rules of equal priority keep insertion
// order, matching the historical stable sort) — no chain re-sort — and the
// decision index is updated incrementally. Subscribers are notified.
func (pl *Policy) AddRule(r Rule) int {
	r.ID = pl.nextID
	pl.nextID++
	// First slot whose priority is strictly lower: equal-priority rules all
	// have smaller IDs, so this is exactly the (priority desc, ID asc) slot.
	i := sort.Search(len(pl.rules), func(i int) bool { return pl.rules[i].Priority < r.Priority })
	pl.rules = append(pl.rules, Rule{})
	copy(pl.rules[i+1:], pl.rules[i:])
	pl.rules[i] = r
	pl.byID[r.ID] = r
	pl.idx.add(r)
	pl.bump(RuleChange{Rule: r, Added: true})
	return r.ID
}

// AddRules bulk-loads a batch of rules and returns their IDs. It sorts the
// chain once and notifies subscribers once with a Full change, so loading
// 100k rules is O(n log n) instead of the O(n²) of repeated single inserts.
func (pl *Policy) AddRules(rules []Rule) []int {
	if len(rules) == 0 {
		return nil
	}
	ids := make([]int, len(rules))
	for i, r := range rules {
		r.ID = pl.nextID
		pl.nextID++
		ids[i] = r.ID
		pl.rules = append(pl.rules, r)
		pl.byID[r.ID] = r
		pl.idx.add(r)
	}
	// IDs ascend in insertion order, so a stable sort by priority restores
	// the (priority desc, ID asc) chain invariant.
	sort.SliceStable(pl.rules, func(i, j int) bool {
		return pl.rules[i].Priority > pl.rules[j].Priority
	})
	pl.bump(RuleChange{Full: true})
	return ids
}

// RemoveRule deletes a rule by ID; it reports whether it existed. The ID
// index locates the rule and a binary search finds its chain slot, so
// deletion does no O(rules) ID scan.
func (pl *Policy) RemoveRule(id int) bool {
	r, ok := pl.byID[id]
	if !ok {
		return false
	}
	i := pl.chainPos(r)
	pl.rules = append(pl.rules[:i], pl.rules[i+1:]...)
	delete(pl.byID, id)
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
	for i, r := range pl.rules {
		if r.Matches(proto, src, dst) {
			return r.Action == Allow, i + 1
		}
	}
	return false, len(pl.rules)
}

// RuleCount returns the chain length (cost model input).
func (pl *Policy) RuleCount() int { return len(pl.rules) }

// IndexInfo reports the decision index's shape and maintenance counters.
func (pl *Policy) IndexInfo() IndexInfo { return pl.idx.info() }
