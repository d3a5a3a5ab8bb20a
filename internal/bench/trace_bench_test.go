package bench

import (
	"reflect"
	"testing"

	"masq/internal/virtio"
)

// TestFig16MeasuredAttribution pins the acceptance criteria of the trace
// spine: the measured virtio share of every forwarded control verb equals
// the transport cost (kick + irq) within 5%, and the per-layer self times
// sum exactly to the measured verb total.
func TestFig16MeasuredAttribution(t *testing.T) {
	rows := fig16Data()
	if len(rows) != 7 {
		t.Fatalf("fig16Data returned %d rows, want 7", len(rows))
	}
	transport := float64(virtio.KickCost + virtio.IRQCost)
	for _, r := range rows {
		if r.name == "query_gid" {
			// Answered in-guest by vBond: never crosses virtio.
			if r.vio != 0 || r.lib != r.total {
				t.Errorf("query_gid: vio=%v lib=%v total=%v; want in-guest only", r.vio, r.lib, r.total)
			}
			continue
		}
		if got := float64(r.vio); got < transport*0.95 || got > transport*1.05 {
			t.Errorf("%s: measured virtio %v outside 5%% of kick+irq %v", r.name, r.vio, virtio.KickCost+virtio.IRQCost)
		}
		if sum := r.lib + r.vio + r.masqd + r.rnicd; sum != r.total {
			t.Errorf("%s: layer shares sum to %v, measured total %v", r.name, sum, r.total)
		}
		if r.rnicd != r.param {
			t.Errorf("%s: measured rdma-driver time %v != parameter reconstruction %v", r.name, r.rnicd, r.param)
		}
	}
}

// TestFig15TraceDeterminism asserts the zero-cost contract: running fig15
// with the recorder enabled yields a cell-identical table to running it
// untraced, because spans read the sim clock without ever advancing it.
func TestFig15TraceDeterminism(t *testing.T) {
	off := fig15With(false)
	on := fig15With(true)
	if !reflect.DeepEqual(off.Rows, on.Rows) {
		t.Fatalf("fig15 rows differ with tracing on:\noff: %v\non:  %v", off.Rows, on.Rows)
	}
}

// TestTraceOverheadRowsIdentical checks the abl-trace-overhead table: every
// column except the trace-event count matches between the off and on runs,
// and the recorder actually collected events when enabled.
func TestTraceOverheadRowsIdentical(t *testing.T) {
	tab := ablTraceOverhead()
	if len(tab.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(tab.Rows))
	}
	off, on := tab.Rows[0], tab.Rows[1]
	if len(off) != len(on) || len(off) != len(tab.Columns) {
		t.Fatalf("ragged table: %d columns, rows %d/%d", len(tab.Columns), len(off), len(on))
	}
	for i := 1; i < len(off)-1; i++ {
		if off[i] != on[i] {
			t.Errorf("column %q differs: off=%q on=%q", tab.Columns[i], off[i], on[i])
		}
	}
	if off[len(off)-1] != "0" {
		t.Errorf("disabled run recorded %s events, want 0", off[len(off)-1])
	}
	if on[len(on)-1] == "0" {
		t.Errorf("enabled run recorded no events")
	}
}
