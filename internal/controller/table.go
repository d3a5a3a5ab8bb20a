package controller

import "masq/internal/simtime"

// keySlots numbers a shard's keys densely: the first write of a key gives
// it the next slot, and the key keeps that slot for the shard's life, so
// the index is bounded by the keys ever written, just as a Go map never
// shrinks. The primary and its standby share one index: a table is a slice
// with one row per slot, and a replication record names its row by slot,
// so the standby applies it, and a promotion or a re-image copies a whole
// table, with no hashing. Reads and deletes never number a key.
type keySlots struct {
	idx  map[Key]int32
	keys []Key // keys[s] is the key of slot s
}

func newKeySlots() *keySlots { return &keySlots{idx: make(map[Key]int32)} }

// lookup returns k's slot, or -1 if k has never been written.
func (ks *keySlots) lookup(k Key) int32 {
	if s, ok := ks.idx[k]; ok {
		return s
	}
	return -1
}

// intern returns k's slot, numbering k first if it has none.
func (ks *keySlots) intern(k Key) int32 {
	if s, ok := ks.idx[k]; ok {
		return s
	}
	s := int32(len(ks.keys))
	ks.idx[k] = s
	ks.keys = append(ks.keys, k)
	return s
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
