package masq

import (
	"testing"

	"masq/internal/packet"
	"masq/internal/simtime"
)

// BenchmarkRCTInsertDelete measures one insert_conn plus delete_conn on an
// otherwise empty RCT table, the table work of one connection's life. Insert
// rebuilds the per-QPN set and the per-VNI and per-pair maps that remove
// deletes once they are empty, so every op allocates them again.
func BenchmarkRCTInsertDelete(b *testing.B) {
	eng := simtime.NewEngine()
	ct := NewRConntrack(DefaultParams(), nil)
	id := ConnID{VNI: 100, SrcVIP: packet.IP{10, 0, 0, 1}, DstVIP: packet.IP{10, 0, 0, 2}, QPN: 7}
	n := b.N
	eng.Spawn("backend", func(p *simtime.Proc) {
		for i := 0; i < n; i++ {
			ct.Insert(p, id, nil)
			ct.Delete(p, id.QPN)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
}
