package packet

import "testing"

// sink keeps the benchmarks' results alive.
var sink []byte

// BenchmarkSerialize encodes a RoCE SEND with a 1 KB payload and its ICRC
// from layers built once outside the loop: the per-packet work of the RNIC
// TX pipeline. 1 alloc/op, the frame.
func BenchmarkSerialize(b *testing.B) {
	layers := rocePacket(make([]byte, 1024))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sink = Serialize(layers...)
	}
}

// BenchmarkPoolDecode decodes that frame through a Pool and releases it,
// as the RNIC RX pipeline does. 0 allocs/op in steady state.
func BenchmarkPoolDecode(b *testing.B) {
	frame := Serialize(rocePacket(make([]byte, 1024))...)
	var pool Pool
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p, err := pool.Decode(frame)
		if err != nil {
			b.Fatal(err)
		}
		p.Release()
	}
}
