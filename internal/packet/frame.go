package packet

import "sync"

// Wire frames are recycled through one process-wide free list: Serialize
// takes every frame it builds from it, and Packet.Release gives back the
// frame that Pool.Decode took ownership of. The list is process-wide, not
// per device, because one RNIC serializes a frame and another releases it;
// per-device lists would pile up on whichever side receives the data. Every
// engine in the process shares it, so it is mutex-guarded.
//
// Frames are kept in 64-byte size classes up to maxFrame bytes, and the
// list holds at most maxFreeBytes of them. So it keeps the frames of the
// in-flight peak, and a burst beyond that is left to the garbage collector.
const (
	frameClass   = 64
	maxFrame     = 8 << 10
	maxFreeBytes = 4 << 20
)

var frames struct {
	mu    sync.Mutex
	bytes int // cap of every frame on the list, summed
	// free[c] holds frames whose capacity is at least (c+1)*frameClass.
	free [maxFrame / frameClass][][]byte
}

// newFrame returns an n-byte frame from the free list, or a new one when
// its size class is empty. Its bytes are whatever its last owner left:
// the caller must overwrite every one.
func newFrame(n int) []byte {
	if n == 0 || n > maxFrame {
		return make([]byte, n)
	}
	c := (n - 1) / frameClass
	frames.mu.Lock()
	if k := len(frames.free[c]); k > 0 {
		b := frames.free[c][k-1]
		frames.free[c][k-1] = nil
		frames.free[c] = frames.free[c][:k-1]
		frames.bytes -= cap(b)
		frames.mu.Unlock()
		return b[:n]
	}
	frames.mu.Unlock()
	return make([]byte, n, (c+1)*frameClass)
}

// freeFrame puts b on the free list. Its owner must hold no other
// reference to it. A frame too small or too large for the size classes, or
// one that would take the list past its bound, is left to the garbage
// collector.
func freeFrame(b []byte) {
	c := cap(b)/frameClass - 1
	if c < 0 || c >= len(frames.free) {
		return
	}
	frames.mu.Lock()
	if frames.bytes+cap(b) <= maxFreeBytes {
		frames.free[c] = append(frames.free[c], b[:0])
		frames.bytes += cap(b)
	}
	frames.mu.Unlock()
}
