package overlay

import (
	"math/rand"
	"testing"

	"masq/internal/packet"
)

// The rule-churn benchmark workload's policy: a seeded 10k-rule RDMA chain
// in 10/8 that no measured flow matches, and one priority-2000 narrow allow
// per (client subnet, server subnet) pair, 172.20.c.0/24 → 172.21.s.0/24.
const (
	churnBulk    = 10_000
	churnSubnets = 8
)

func churnBulkRules() []Rule {
	rng := rand.New(rand.NewSource(1))
	bits := []int{8, 16, 24, 32}
	cidr := func() packet.CIDR {
		return packet.CIDR{IP: packet.NewIP(10, byte(rng.Intn(250)), byte(rng.Intn(250)), byte(rng.Intn(250))), Bits: bits[rng.Intn(4)]}
	}
	rules := make([]Rule, churnBulk)
	for i := range rules {
		rules[i] = Rule{Priority: 2 + rng.Intn(1024), Proto: ProtoRDMA, Src: cidr(), Dst: cidr(), Action: Action(rng.Intn(2))}
	}
	return rules
}

func churnNarrow(pair int) Rule {
	return Rule{Priority: 2000, Proto: ProtoRDMA,
		Src:    packet.CIDR{IP: packet.NewIP(172, 20, byte(pair/churnSubnets), 0), Bits: 24},
		Dst:    packet.CIDR{IP: packet.NewIP(172, 21, byte(pair%churnSubnets), 0), Bits: 24},
		Action: Allow}
}

// churnPolicy loads the rule-churn policy and returns it with the narrow
// rules' IDs, indexed by pair.
func churnPolicy() (*Policy, []int) {
	pl := NewPolicy()
	pl.AddRules(churnBulkRules())
	ids := make([]int, churnSubnets*churnSubnets)
	for pair := range ids {
		ids[pair] = pl.AddRule(churnNarrow(pair))
	}
	return pl, ids
}

// BenchmarkPolicyAllows measures one indexed verdict on the rule-churn
// policy, for a client → server flow that a narrow rule admits.
func BenchmarkPolicyAllows(b *testing.B) {
	pl, ids := churnPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair := i % len(ids)
		src := packet.NewIP(172, 20, byte(pair/churnSubnets), 10)
		dst := packet.NewIP(172, 21, byte(pair%churnSubnets), 11)
		if !pl.Allows(ProtoRDMA, src, dst) {
			b.Fatalf("flow %v -> %v denied", src, dst)
		}
	}
}

var sinkIDs []int

// BenchmarkAddRules measures loading the 10k-rule chain into an empty
// policy in one batch.
func BenchmarkAddRules(b *testing.B) {
	rules := churnBulkRules()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkIDs = NewPolicy().AddRules(rules)
	}
}

// BenchmarkRuleChange measures rule-churn's revocation: RemoveRule, then
// AddRule, of a narrow rule over the 10k-rule chain.
func BenchmarkRuleChange(b *testing.B) {
	pl, ids := churnPolicy()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pair := i % len(ids)
		if !pl.RemoveRule(ids[pair]) {
			b.Fatalf("rule %d missing", ids[pair])
		}
		ids[pair] = pl.AddRule(churnNarrow(pair))
	}
}
