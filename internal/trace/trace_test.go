package trace

import (
	"bytes"
	"encoding/json"
	"testing"

	"masq/internal/simtime"
)

// TestDisabledRecorderIsFree: a disabled (or nil) recorder records nothing
// and allocates nothing on the span hot path.
func TestDisabledRecorderIsFree(t *testing.T) {
	for _, r := range []*Recorder{nil, {}} {
		eng := simtime.NewEngine()
		eng.Spawn("w", func(p *simtime.Proc) {
			vc := r.BeginVerb(p, "create_qp", "a")
			sp := r.Begin(p, LayerRNIC, "create_qp")
			p.Sleep(simtime.Us(5))
			sp.End(p)
			r.Interval(p, LayerVirtio, "irq", p.Now(), p.Now().Add(simtime.Us(8)))
			vc.End(p)
		})
		eng.Run()
		if r.Events() != 0 {
			t.Fatalf("disabled recorder recorded %d events", r.Events())
		}
		if r != nil && r.enabled {
			t.Fatal("recorder reports enabled")
		}
	}

	// Allocation check: the whole Begin/End + Interval sequence on a
	// disabled recorder must not allocate.
	r := &Recorder{}
	eng := simtime.NewEngine()
	var p *simtime.Proc
	eng.Spawn("w", func(pp *simtime.Proc) { p = pp })
	eng.Run()
	allocs := testing.AllocsPerRun(100, func() {
		vc := r.BeginVerb(p, "create_qp", "a")
		sp := r.Begin(p, LayerRNIC, "create_qp")
		sp.End(p)
		r.Interval(p, LayerVirtio, "irq", 0, 8)
		vc.End(p)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocates %.1f per op, want 0", allocs)
	}
}

// buildTrace records a nested verbs→virtio→backend→rnic invocation shaped
// like one forwarded MasQ control verb.
func buildTrace(r *Recorder) {
	eng := simtime.NewEngine()
	eng.Spawn("guest", func(p *simtime.Proc) {
		vc := r.BeginVerb(p, "create_qp", "vni7/client") // [0, 35]
		kick := r.Begin(p, LayerVirtio, "kick")          // [0, 8] self 8
		p.Sleep(simtime.Us(8))
		kick.End(p)
		p.Sleep(simtime.Us(4)) // ring-service [8, 12] self 4
		r.Interval(p, LayerVirtio, "ring-service", p.Now().Add(-simtime.Us(4)), p.Now())
		be := r.Begin(p, LayerMasqBackend, "create_qp") // [12, 27] self 5
		p.Sleep(simtime.Us(3))
		hw := r.Begin(p, LayerRNIC, "create_qp") // [15, 25] self 10
		p.Sleep(simtime.Us(10))
		hw.End(p)
		p.Sleep(simtime.Us(2))
		be.End(p)
		irq := r.Begin(p, LayerVirtio, "irq") // [27, 35] self 8
		p.Sleep(simtime.Us(8))
		irq.End(p)
		vc.End(p)
	})
	eng.Run()
}

func TestAttributionSelfTimes(t *testing.T) {
	r := New()
	buildTrace(r)

	atts := r.Attribute()
	if len(atts) != 1 {
		t.Fatalf("got %d invocations, want 1", len(atts))
	}
	b := atts[0]
	if b.Verb != "create_qp" || b.Actor != "vni7/client" {
		t.Fatalf("invocation = %+v", b.Invocation)
	}
	if b.Total != simtime.Us(35) {
		t.Fatalf("total = %v, want 35µs", b.Total)
	}
	want := map[Layer]simtime.Duration{
		LayerVerbs:       0, // fully covered by nested spans
		LayerVirtio:      simtime.Us(20),
		LayerMasqBackend: simtime.Us(5),
		LayerRNIC:        simtime.Us(10),
	}
	var sum simtime.Duration
	for l := Layer(0); l < NumLayers; l++ {
		if b.Layer[l] != want[l] {
			t.Errorf("layer %s self = %v, want %v", l, b.Layer[l], want[l])
		}
		sum += b.Layer[l]
	}
	if sum != b.Total {
		t.Errorf("layer selves sum to %v, want total %v", sum, b.Total)
	}
	if b.Named["virtio/kick"] != simtime.Us(8) || b.Named["virtio/irq"] != simtime.Us(8) ||
		b.Named["virtio/ring-service"] != simtime.Us(4) {
		t.Errorf("named virtio selves = %v", b.Named)
	}

	agg := r.Aggregate()
	if len(agg) != 3 {
		t.Fatalf("aggregate rows = %d (%v), want 3", len(agg), agg)
	}
	for _, row := range agg {
		if row.Actor != "vni7/client" || row.Verb != "create_qp" || row.Count != 1 {
			t.Errorf("agg row = %+v", row)
		}
	}
}

// TestSameNamedProcsKeepTheirInvocations: two procs with the same name
// open overlapping invocations, and each span is tagged with the
// invocation of the proc that recorded it.
func TestSameNamedProcsKeepTheirInvocations(t *testing.T) {
	r := New()
	eng := simtime.NewEngine()
	for i, actor := range []string{"a", "b"} {
		eng.Spawn("guest", func(p *simtime.Proc) {
			p.Sleep(simtime.Duration(i) * simtime.Microsecond)
			vc := r.BeginVerb(p, "create_qp", actor)
			p.Sleep(simtime.Us(2))
			sp := r.Begin(p, LayerRNIC, "create_qp")
			p.Sleep(simtime.Us(10))
			sp.End(p)
			vc.End(p)
		})
	}
	eng.Run()
	atts := r.Attribute()
	if len(atts) != 2 {
		t.Fatalf("got %d invocations, want 2", len(atts))
	}
	for _, b := range atts {
		if b.Layer[LayerRNIC] != simtime.Us(10) || b.Layer[LayerVerbs] != simtime.Us(2) {
			t.Errorf("%s: rnic %v, verbs %v; want 10µs and 2µs",
				b.Actor, b.Layer[LayerRNIC], b.Layer[LayerVerbs])
		}
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := New()
	buildTrace(r)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v", err)
	}
	var spans, meta int
	cats := map[string]bool{}
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			spans++
			cats[ev["cat"].(string)] = true
			args := ev["args"].(map[string]any)
			if args["verb"] != "create_qp" {
				t.Errorf("span %v missing verb arg", ev["name"])
			}
		case "M":
			meta++
		}
	}
	if spans != 6 || meta != 1 {
		t.Fatalf("got %d spans, %d metadata events", spans, meta)
	}
	for _, want := range []string{"verbs", "virtio", "masq-backend", "rnic"} {
		if !cats[want] {
			t.Errorf("missing category %q", want)
		}
	}
}

// TestSetEnabledWindow: events before SetEnabled(true) and after
// SetEnabled(false) are dropped.
func TestSetEnabledWindow(t *testing.T) {
	r := New()
	r.SetEnabled(false)
	eng := simtime.NewEngine()
	eng.Spawn("w", func(p *simtime.Proc) {
		vc := r.BeginVerb(p, "warmup", "a")
		p.Sleep(simtime.Us(1))
		vc.End(p)
		r.SetEnabled(true)
		vc = r.BeginVerb(p, "measured", "a")
		p.Sleep(simtime.Us(1))
		vc.End(p)
	})
	eng.Run()
	atts := r.Attribute()
	if len(atts) != 1 || atts[0].Verb != "measured" {
		t.Fatalf("attributions = %+v", atts)
	}
}
