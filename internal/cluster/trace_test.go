package cluster

import (
	"bytes"
	"encoding/json"
	"testing"
)

// chromeEv mirrors the subset of the trace-event format the export test
// inspects.
type chromeEv struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  int     `json:"tid"`
	Args struct {
		Layer string `json:"layer"`
		Verb  string `json:"verb"`
		Actor string `json:"actor"`
	} `json:"args"`
}

// TestChromeTraceCoversConnectionSetup is the export acceptance test: a
// traced connection setup must produce valid Chrome trace JSON in which a
// forwarded verb's span temporally nests the virtio transport, the MasQ
// backend handler, and the RNIC execution underneath it, all on the
// guest's own thread.
func TestChromeTraceCoversConnectionSetup(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Trace = true
	cp, err := NewConnectedPair(cfg, ModeMasQ)
	if err != nil {
		t.Fatal(err)
	}
	if cp.TB.Trace == nil || cp.TB.Trace.Events() == 0 {
		t.Fatal("traced testbed recorded no events")
	}
	var buf bytes.Buffer
	if err := cp.TB.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEv
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}

	var root *chromeEv
	for i := range evs {
		e := &evs[i]
		if e.Ph == "X" && e.Cat == "verbs" && e.Name == "create_qp" {
			root = e
			break
		}
	}
	if root == nil {
		t.Fatal("no verbs-layer create_qp span in export")
	}
	contained := func(cat string) *chromeEv {
		for i := range evs {
			e := &evs[i]
			if e.Ph != "X" || e.Cat != cat || e.Args.Verb != "create_qp" {
				continue
			}
			if e.Ts >= root.Ts && e.Ts+e.Dur <= root.Ts+root.Dur {
				return e
			}
		}
		return nil
	}
	for _, cat := range []string{"virtio", "masq-frontend", "masq-backend", "rnic"} {
		if e := contained(cat); e == nil {
			t.Errorf("create_qp span nests no %s child", cat)
		} else if e.Tid != root.Tid {
			t.Errorf("create_qp's %s span is on thread %d, not the guest's %d", cat, e.Tid, root.Tid)
		}
	}
	if root.Args.Actor == "" {
		t.Error("root span has no actor tag")
	}

	// Thread-name metadata must exist so Perfetto labels the tracks.
	meta := 0
	for _, e := range evs {
		if e.Ph == "M" {
			meta++
		}
	}
	if meta == 0 {
		t.Error("no thread_name metadata events")
	}
}
