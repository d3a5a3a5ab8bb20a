package overlay

import (
	"testing"

	"masq/internal/packet"
)

func cidr(t *testing.T, s string) packet.CIDR {
	t.Helper()
	c, ok := packet.ParseCIDR(s)
	if !ok {
		t.Fatalf("bad cidr %q", s)
	}
	return c
}

func TestPolicyDefaultDeny(t *testing.T) {
	pl := NewPolicy()
	if pl.Allows(ProtoTCP, packet.NewIP(10, 0, 0, 1), packet.NewIP(10, 0, 0, 2)) {
		t.Fatal("empty policy must deny")
	}
}

func TestPolicyAllowRule(t *testing.T) {
	pl := NewPolicy()
	pl.AddRule(Rule{Priority: 10, Proto: ProtoAny, Src: cidr(t, "192.168.1.0/24"), Dst: cidr(t, "192.168.2.0/24"), Action: Allow})
	if !pl.Allows(ProtoRDMA, packet.NewIP(192, 168, 1, 1), packet.NewIP(192, 168, 2, 1)) {
		t.Fatal("rule should allow")
	}
	if pl.Allows(ProtoRDMA, packet.NewIP(192, 168, 2, 1), packet.NewIP(192, 168, 3, 1)) {
		t.Fatal("unmatched dst must deny")
	}
}

func TestPolicyPriorityOrdering(t *testing.T) {
	pl := NewPolicy()
	pl.AddRule(Rule{Priority: 1, Proto: ProtoAny, Src: cidr(t, "0.0.0.0/0"), Dst: cidr(t, "0.0.0.0/0"), Action: Allow})
	denyID := pl.AddRule(Rule{Priority: 100, Proto: ProtoAny, Src: cidr(t, "10.0.0.0/8"), Dst: cidr(t, "0.0.0.0/0"), Action: Deny})
	if pl.Allows(ProtoTCP, packet.NewIP(10, 1, 1, 1), packet.NewIP(10, 2, 2, 2)) {
		t.Fatal("higher-priority deny must win")
	}
	if !pl.Allows(ProtoTCP, packet.NewIP(11, 1, 1, 1), packet.NewIP(10, 2, 2, 2)) {
		t.Fatal("allow-all should apply to non-10/8 sources")
	}
	pl.RemoveRule(denyID)
	if !pl.Allows(ProtoTCP, packet.NewIP(10, 1, 1, 1), packet.NewIP(10, 2, 2, 2)) {
		t.Fatal("after removing the deny, allow-all applies")
	}
}

func TestPolicyProtoFilter(t *testing.T) {
	pl := NewPolicy()
	pl.AddRule(Rule{Priority: 10, Proto: ProtoTCP, Src: cidr(t, "0.0.0.0/0"), Dst: cidr(t, "0.0.0.0/0"), Action: Allow})
	if pl.Allows(ProtoRDMA, packet.NewIP(1, 1, 1, 1), packet.NewIP(2, 2, 2, 2)) {
		t.Fatal("TCP-only rule must not allow RDMA")
	}
	if !pl.Allows(ProtoTCP, packet.NewIP(1, 1, 1, 1), packet.NewIP(2, 2, 2, 2)) {
		t.Fatal("TCP flow should pass")
	}
}

func TestPolicySubscribersNotified(t *testing.T) {
	pl := NewPolicy()
	n := 0
	pl.SubscribeRules(func(RuleChange) { n++ })
	id := pl.AddRule(Rule{Priority: 1, Action: Allow})
	pl.RemoveRule(id)
	pl.RemoveRule(9999) // no-op, no notification
	if n != 2 {
		t.Fatalf("notified %d times, want 2", n)
	}
	if pl.Version() != 2 {
		t.Fatalf("version = %d", pl.Version())
	}
}

func TestRuleIDsAreStable(t *testing.T) {
	pl := NewPolicy()
	id1 := pl.AddRule(Rule{Priority: 5, Action: Allow})
	id2 := pl.AddRule(Rule{Priority: 50, Action: Deny})
	if id1 == id2 {
		t.Fatal("duplicate IDs")
	}
	if !pl.RemoveRule(id1) || pl.RemoveRule(id1) {
		t.Fatal("RemoveRule semantics")
	}
	rules := pl.Rules()
	if len(rules) != 1 || rules[0].ID != id2 {
		t.Fatalf("rules = %+v", rules)
	}
}

func TestActionString(t *testing.T) {
	if Allow.String() != "allow" || Deny.String() != "deny" {
		t.Fatal("Action.String")
	}
}
