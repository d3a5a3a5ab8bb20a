package overlay

import (
	"cmp"
	"slices"
	"sort"

	"masq/internal/packet"
)

// ruleIndex is the policy's decision index. Rules are bucketed by protocol
// class (Any / TCP / RDMA), and within each class by the (src, dst) prefix
// length pair; each pair owns a hash table keyed by the masked (src, dst)
// address pair whose values are the matching rules in chain order. A lookup
// probes one hash bucket per live prefix-length pair — pairs are walked
// longest-combined-prefix first — and keeps the best rule by chain order
// (priority descending, then ID ascending), which reproduces the linear
// first-match verdict exactly. The number of probes is the lookup's work
// unit count, which the DES cost model charges instead of the chain length.
//
// Rules whose Proto is not one of the three named constants, or whose CIDR
// Bits exceed 32, can never match a flow (packet.CIDR.Contains rejects
// Bits > 32) and are simply not indexed.
type ruleIndex struct {
	classes [3]protoClass
	updates uint64 // incremental add/remove maintenance operations
}

// pairKey identifies one (src, dst) prefix-length combination.
type pairKey struct {
	sbits, dbits int8
}

// maskedKey is a flow or rule address pair masked to a pairKey's lengths.
type maskedKey struct {
	src, dst packet.IP
}

type protoClass struct {
	// pairs lists the live prefix-length combinations, longest combined
	// prefix first (ties broken by longer src, then longer dst) so more
	// specific buckets are probed before catch-alls.
	pairs   []pairKey
	pairRef map[pairKey]int
	buckets map[pairKey]map[maskedKey][]Rule
	rules   int
}

// chainCmp is the chain evaluation order: priority descending, then ID
// ascending. A Policy never reuses an ID, so this is a total order over any
// rule set it holds, and sorting by it is deterministic.
func chainCmp(a, b Rule) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	return cmp.Compare(a.ID, b.ID)
}

func pairLess(a, b pairKey) bool {
	if as, bs := a.sbits+a.dbits, b.sbits+b.dbits; as != bs {
		return as > bs
	}
	if a.sbits != b.sbits {
		return a.sbits > b.sbits
	}
	return a.dbits > b.dbits
}

// indexable reports whether the rule can ever match a flow and therefore
// belongs in the index.
func indexable(r Rule) bool {
	return r.Proto >= ProtoAny && r.Proto <= ProtoRDMA &&
		r.Src.Bits <= 32 && r.Dst.Bits <= 32
}

func clampBits(b int) int8 {
	if b <= 0 {
		return 0
	}
	return int8(b)
}

func ruleKeys(r Rule) (pairKey, maskedKey) {
	pk := pairKey{clampBits(r.Src.Bits), clampBits(r.Dst.Bits)}
	mk := maskedKey{packet.MaskIP(r.Src.IP, int(pk.sbits)), packet.MaskIP(r.Dst.IP, int(pk.dbits))}
	return pk, mk
}

func (ix *ruleIndex) add(r Rule) {
	if !indexable(r) {
		return
	}
	c := &ix.classes[r.Proto]
	if c.pairRef == nil {
		c.pairRef = make(map[pairKey]int)
		c.buckets = make(map[pairKey]map[maskedKey][]Rule)
	}
	pk, mk := ruleKeys(r)
	if c.pairRef[pk] == 0 {
		i := sort.Search(len(c.pairs), func(i int) bool { return !pairLess(c.pairs[i], pk) })
		c.pairs = append(c.pairs, pairKey{})
		copy(c.pairs[i+1:], c.pairs[i:])
		c.pairs[i] = pk
		c.buckets[pk] = make(map[maskedKey][]Rule)
	}
	c.pairRef[pk]++
	b := c.buckets[pk][mk]
	i, _ := slices.BinarySearchFunc(b, r, chainCmp)
	c.buckets[pk][mk] = slices.Insert(b, i, r)
	c.rules++
	ix.updates++
}

func (ix *ruleIndex) remove(r Rule) {
	if !indexable(r) {
		return
	}
	c := &ix.classes[r.Proto]
	pk, mk := ruleKeys(r)
	b := c.buckets[pk][mk]
	i, ok := slices.BinarySearchFunc(b, r, chainCmp)
	if !ok {
		return // not indexed (defensive: remove must mirror add)
	}
	if len(b) == 1 {
		delete(c.buckets[pk], mk)
	} else {
		c.buckets[pk][mk] = append(b[:i], b[i+1:]...)
	}
	c.pairRef[pk]--
	if c.pairRef[pk] == 0 {
		delete(c.pairRef, pk)
		delete(c.buckets, pk)
		j := sort.Search(len(c.pairs), func(i int) bool { return !pairLess(c.pairs[i], pk) })
		c.pairs = append(c.pairs[:j], c.pairs[j+1:]...)
	}
	c.rules--
	ix.updates++
}

// lookup returns the first-match rule for the flow, whether one exists, and
// the number of bucket probes performed (the work units the cost model
// charges). Every flow consults the Any class. A TCP or RDMA flow also
// consults its own class, and a ProtoAny flow the TCP and RDMA classes
// (mirroring Rule.Matches, where a ProtoAny flow matches rules of every
// protocol and a flow of an unnamed protocol matches only ProtoAny rules).
// The best rule does not depend on the order, because chainCmp is a total
// order.
func (ix *ruleIndex) lookup(proto Proto, src, dst packet.IP) (best Rule, found bool, probes int) {
	consult := func(c *protoClass) {
		for _, pk := range c.pairs {
			probes++
			mk := maskedKey{packet.MaskIP(src, int(pk.sbits)), packet.MaskIP(dst, int(pk.dbits))}
			if b := c.buckets[pk][mk]; len(b) > 0 {
				if !found || chainCmp(b[0], best) < 0 {
					best, found = b[0], true
				}
			}
		}
	}
	switch proto {
	case ProtoAny:
		consult(&ix.classes[ProtoTCP])
		consult(&ix.classes[ProtoRDMA])
	case ProtoTCP, ProtoRDMA:
		consult(&ix.classes[proto])
	}
	consult(&ix.classes[ProtoAny])
	return best, found, probes
}

// IndexInfo is a snapshot of index shape and maintenance counters,
// surfaced by masqctl.
type IndexInfo struct {
	Rules   int    // indexed rules across all proto classes
	Pairs   int    // live (src, dst) prefix-length combinations
	Buckets int    // masked-address hash buckets
	Updates uint64 // incremental add/remove maintenance ops
}

func (ix *ruleIndex) info() IndexInfo {
	inf := IndexInfo{Updates: ix.updates}
	for i := range ix.classes {
		c := &ix.classes[i]
		inf.Rules += c.rules
		inf.Pairs += len(c.pairs)
		for _, m := range c.buckets {
			inf.Buckets += len(m)
		}
	}
	return inf
}
