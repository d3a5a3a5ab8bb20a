package packet

import "testing"

// sink keeps the benchmarks' results alive.
var sink []byte

// BenchmarkSerialize encodes a RoCE SEND with a 1 KB payload and its ICRC
// from layers built once outside the loop: the per-packet work of the RNIC
// TX pipeline. 1 alloc/op, the frame: nothing releases the frames here, so
// the free list stays empty (BenchmarkPoolDecode recycles them).
func BenchmarkSerialize(b *testing.B) {
	layers := rocePacket(make([]byte, 1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = Serialize(layers...)
	}
}

// BenchmarkPoolDecode serializes that frame, decodes it through a Pool and
// releases it, as the RNIC TX and RX pipelines do: the release gives the
// frame back to the free list for the next Serialize. Each iteration owns
// a frame of its own, so a frame is never on the list twice. 0 allocs/op in
// steady state.
func BenchmarkPoolDecode(b *testing.B) {
	layers := rocePacket(make([]byte, 1024))
	var pool Pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := pool.Decode(Serialize(layers...))
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
