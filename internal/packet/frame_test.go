package packet

import (
	"bytes"
	"testing"
)

// TestReleaseRecyclesFrame: releasing a pool-decoded packet puts its frame
// on the free list, and the next Serialize of that size class takes it and
// overwrites every byte, whatever the last owner left in it.
func TestReleaseRecyclesFrame(t *testing.T) {
	layers := rocePacket(bytes.Repeat([]byte{0xa5}, 1000))
	want := bytes.Clone(Serialize(layers...))
	var pool Pool
	for _, fill := range []byte{0x00, 0xff, 0x5a} {
		frame := Serialize(layers...)
		p, err := pool.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		full := frame[:cap(frame)]
		for i := range full {
			full[i] = fill
		}
		p.Release()
		got := Serialize(layers...)
		if &got[0] != &frame[0] {
			t.Fatalf("fill %#x: Serialize did not take the released frame", fill)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("fill %#x: recycled frame\n got % x\nwant % x", fill, got, want)
		}
	}
}

// TestUnpooledFrameNotRecycled: a packet decoded outside a Pool does not
// own its frame, and a Pool.Decode that fails leaves the frame with its
// caller. Neither frame may reach the free list.
func TestUnpooledFrameNotRecycled(t *testing.T) {
	layers := rocePacket(make([]byte, 200))
	frame := Serialize(layers...)
	p, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	p.Release()
	if got := Serialize(layers...); &got[0] == &frame[0] {
		t.Fatal("Release of a packet decoded outside a Pool recycled its frame")
	}
	var pool Pool
	bad := Serialize(layers...)
	bad[len(bad)-1] ^= 1 // break the ICRC
	if _, err := pool.Decode(bad); err == nil {
		t.Fatal("Decode accepted a frame with a bad ICRC")
	}
	if got := Serialize(layers...); &got[0] == &bad[0] {
		t.Fatal("a failed Pool.Decode recycled the frame")
	}
}

// TestFreeListBounded: the list keeps at most maxFreeBytes, and frames
// outside its size classes are never kept.
func TestFreeListBounded(t *testing.T) {
	added := 0
	for frames.bytes+maxFrame <= maxFreeBytes {
		freeFrame(make([]byte, maxFrame))
		added++
	}
	defer func() {
		for ; added > 0; added-- {
			newFrame(maxFrame)
		}
	}()
	full := frames.bytes
	freeFrame(make([]byte, maxFrame))
	freeFrame(make([]byte, frameClass-1))
	freeFrame(make([]byte, maxFrame+frameClass))
	if frames.bytes != full {
		t.Fatalf("list holds %d bytes after frees past its bound, want %d", frames.bytes, full)
	}
	if full > maxFreeBytes {
		t.Fatalf("list holds %d bytes, bound %d", full, maxFreeBytes)
	}
}
