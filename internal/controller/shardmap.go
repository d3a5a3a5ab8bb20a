package controller

import "sort"

// ShardMap assigns every (VNI, vGID) key to one of N controller shards by
// consistent hashing: each shard owns vnodesPerShard points on a 64-bit
// ring, and a key belongs to the shard owning the first point at or after
// the key's hash (wrapping). Consistent hashing keeps the assignment
// deterministic, spreads tenants across shards regardless of VNI locality,
// and — should a deployment ever resize — moves only ~1/N of the keyspace.
// The map is immutable after construction.
type ShardMap struct {
	n      int
	points []ringPoint
}

type ringPoint struct {
	hash  uint64
	shard int
}

// vnodesPerShard is the virtual-node count per shard: enough points that
// the keyspace split is within a few percent of even at 8 shards.
const vnodesPerShard = 64

// NewShardMap builds the ring for n shards (n >= 1).
func NewShardMap(n int) *ShardMap {
	if n < 1 {
		n = 1
	}
	sm := &ShardMap{n: n, points: make([]ringPoint, 0, n*vnodesPerShard)}
	for s := 0; s < n; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			// Hash the (shard, vnode) pair the same way keys are hashed so
			// points spread uniformly over the ring.
			h := mix64(fnv1a(fnvOffset, byte(s), byte(s>>8), byte(v), byte(v>>8), 0x9d))
			sm.points = append(sm.points, ringPoint{hash: h, shard: s})
		}
	}
	sort.Slice(sm.points, func(i, j int) bool {
		a, b := sm.points[i], sm.points[j]
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.shard < b.shard
	})
	return sm
}

// Owner returns the shard owning k.
func (sm *ShardMap) Owner(k Key) int {
	if sm.n == 1 {
		return 0
	}
	h := hashKey(k)
	// First ring point at or after h, wrapping past the top.
	i := sort.Search(len(sm.points), func(i int) bool { return sm.points[i].hash >= h })
	if i == len(sm.points) {
		i = 0
	}
	return sm.points[i].shard
}

// fnvOffset/fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnv1a(h uint64, bytes ...byte) uint64 {
	for _, b := range bytes {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// mix64 is the murmur3 finalizer. FNV-1a's avalanche is weak in the high
// bits when only trailing input bytes differ — and a tenant's GIDs differ
// exactly there (the IP tail), so raw FNV hashes of one subnet cluster in a
// narrow arc of the ring and pile onto a single shard. The finalizer
// spreads every input bit across the full 64-bit output.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// hashKey hashes a (VNI, vGID) key onto the ring: FNV-1a over the VNI's
// little-endian bytes followed by the GID, then finalized.
func hashKey(k Key) uint64 {
	h := fnv1a(fnvOffset, byte(k.VNI), byte(k.VNI>>8), byte(k.VNI>>16), byte(k.VNI>>24))
	return mix64(fnv1a(h, k.VGID[:]...))
}
