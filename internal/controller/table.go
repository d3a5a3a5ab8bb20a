package controller

import (
	"encoding/binary"
	"math/bits"

	"masq/internal/simtime"
)

// keySlots numbers a shard's keys densely: the first write of a key gives
// it the next slot, and the key keeps that slot for the shard's life, so
// the index is bounded by the keys ever written. The primary and its
// standby share one index: a table is a slice with one row per slot, and a
// replication record names its row by slot, so the standby applies it, and
// a promotion or a re-image copies a whole table, with no hashing. Reads
// and deletes never number a key.
//
// idx is an open-addressed hash index over keys: each entry holds a slot
// plus one (0 is empty), its length is a power of two, and a key sits at
// its hash or after it in a run of full entries (linear probing). A key is
// never removed, so the index needs no tombstones, and a run ends at the
// first empty entry. Once more than half full, the index doubles and is
// rebuilt from keys, so runs stay short.
type keySlots struct {
	idx  []int32
	keys []Key // keys[s] is the key of slot s
}

// minIndex is the length of a new shard's index.
const minIndex = 16

func newKeySlots() *keySlots { return &keySlots{idx: make([]int32, minIndex)} }

// keyHash mixes k a word at a time: the two 8-byte halves of its GID meet
// in one 64×64→128-bit multiply, the VNI joins in a second, and each
// product's halves fold together. Every input bit reaches the low bits the
// index masks, so a subnet's GIDs, which differ only in their last bytes,
// spread over the whole index.
func keyHash(k Key) uint64 {
	lo := binary.LittleEndian.Uint64(k.VGID[:8])
	hi := binary.LittleEndian.Uint64(k.VGID[8:])
	return mulFold(mulFold(lo^0x9e3779b97f4a7c15, hi^0xbf58476d1ce4e5b9)^uint64(k.VNI), 0x94d049bb133111eb)
}

func mulFold(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// probe returns the index entry that holds k, or the empty entry that ends
// k's run, and k's slot, or -1 if k has never been written.
func (ks *keySlots) probe(k Key) (int, int32) {
	mask := len(ks.idx) - 1
	for i := int(keyHash(k)) & mask; ; i = (i + 1) & mask {
		e := ks.idx[i]
		if e == 0 {
			return i, -1
		}
		if ks.keys[e-1] == k {
			return i, e - 1
		}
	}
}

// lookup returns k's slot, or -1 if k has never been written.
func (ks *keySlots) lookup(k Key) int32 {
	_, s := ks.probe(k)
	return s
}

// intern returns k's slot, numbering k first if it has none.
func (ks *keySlots) intern(k Key) int32 {
	i, s := ks.probe(k)
	if s >= 0 {
		return s
	}
	s = int32(len(ks.keys))
	ks.keys = append(ks.keys, k)
	ks.idx[i] = s + 1
	if 2*len(ks.keys) > len(ks.idx) {
		ks.grow()
	}
	return s
}

// grow doubles the index and re-places every key in slot order.
func (ks *keySlots) grow() {
	ks.idx = make([]int32, 2*len(ks.idx))
	mask := len(ks.idx) - 1
	for s, k := range ks.keys {
		i := int(keyHash(k)) & mask
		for ks.idx[i] != 0 {
			i = (i + 1) & mask
		}
		ks.idx[i] = int32(s) + 1
	}
}

// entry is one table row: the mapping, the epoch it was written under, and
// its lease deadline (zero when leases are disabled). The zero entry is an
// empty row.
type entry struct {
	m       Mapping
	ok      bool // the row holds a mapping
	epoch   uint64
	expires simtime.Time
}

// live reports whether the row holds a mapping whose lease still holds at
// now.
func (e entry) live(now simtime.Time) bool {
	return e.ok && (e.expires == 0 || now < e.expires)
}

// table is the rows of a primary or a standby, indexed by slot. Rows past
// its length are empty, so a table grows only when a mapping is written.
type table []entry

// get returns row s; a slot of -1 (a key never written) reads empty.
func (t table) get(s int32) entry {
	if uint(s) < uint(len(t)) {
		return t[s]
	}
	return entry{}
}

// set writes row s. A mapping past the table's end grows the table to
// rows, the number of keys the shared index has numbered (rows > s), so a
// standby that catches up on a burst of new keys grows its table once
// rather than once per key. Emptying a row past the end, or slot -1 (a
// removal of a key never written), changes nothing.
func (t *table) set(s int32, e entry, rows int) {
	if uint(s) >= uint(len(*t)) {
		if !e.ok {
			return
		}
		*t = append(*t, make(table, rows-len(*t))...)
	}
	(*t)[s] = e
}
