// Package trace is a deterministic span recorder for the MasQ control
// path. Spans are keyed to the simulation clock: recording a span only
// reads p.Now() and appends to host-side slices, so event ordering and
// every virtual-time measurement are bit-identical whether tracing is on
// or off. A disabled (or nil) Recorder is zero-cost — no events, no
// allocations.
//
// The recorder understands two kinds of structure:
//
//   - Verb invocations. The verbs-layer wrapper (verbs.Instrument) opens an
//     invocation per control-verb call and binds it to the calling Proc;
//     spans recorded on that Proc are tagged with it. The whole control
//     path of a verb runs on the caller's Proc — the virtio ring runs the
//     host-side backend handler there too — so the guest-side kick, the
//     backend handler and the IRQ all roll up under one "create_qp" even
//     when several connections are being set up concurrently.
//
//   - Layers. Every span carries a Layer from a fixed taxonomy mirroring
//     the software stack of the paper's Fig. 16. Attribution computes
//     per-layer *self* time (span duration minus time covered by nested
//     spans), so layer shares of a verb partition its measured total.
package trace

import (
	"sort"

	"masq/internal/simtime"
)

// Layer identifies the software layer a span belongs to.
type Layer uint8

const (
	LayerVerbs        Layer = iota // user-facing verbs API boundary
	LayerVirtio                    // virtio transport: kick, ring service, irq
	LayerMasqFrontend              // in-VM MasQ provider (vBond side)
	LayerMasqBackend               // host MasQ backend command handlers
	LayerRConnrename               // rename: GID resolution, cache, stale handling
	LayerRConntrack                // connection-tracking checks and table ops
	LayerController                // SDN controller queries and notifications
	LayerRNIC                      // RNIC firmware command processor
	LayerOOB                       // out-of-band / overlay connection exchange
	NumLayers
)

var layerNames = [NumLayers]string{
	"verbs", "virtio", "masq-frontend", "masq-backend",
	"rconnrename", "rconntrack", "controller", "rnic", "overlay/oob",
}

func (l Layer) String() string {
	if int(l) < len(layerNames) {
		return layerNames[l]
	}
	return "unknown"
}

// Invocation is one control-verb call recorded by BeginVerb. IDs are
// assigned in recording order.
type Invocation struct {
	ID    int
	Verb  string // rnic verb name, e.g. "create_qp", "modify_qp_RTR"
	Actor string // who issued it, e.g. "vni100/client"
	Start simtime.Time
	End   simtime.Time
}

type spanRec struct {
	layer      Layer
	name       string
	proc       string
	start, end simtime.Time
	inv        int // invocation index, -1 if none active
	open       bool
}

// Recorder accumulates spans and verb invocations. The zero value is
// disabled; New returns an enabled one. All methods are safe on a nil
// receiver.
type Recorder struct {
	enabled bool
	spans   []spanRec
	invs    []Invocation
	cur     map[*simtime.Proc]int // invocation bound to each proc
}

// New returns an enabled Recorder.
func New() *Recorder { return &Recorder{enabled: true} }

// SetEnabled turns recording on or off. Already-recorded events are kept;
// spans opened while enabled may still be closed after disabling.
func (r *Recorder) SetEnabled(on bool) {
	if r == nil {
		return
	}
	r.enabled = on
}

// Events returns the number of recorded spans.
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// bind marks inv as the active invocation on p.
func (r *Recorder) bind(p *simtime.Proc, inv int) {
	if r.cur == nil {
		r.cur = make(map[*simtime.Proc]int)
	}
	r.cur[p] = inv
}

// currentOf returns the invocation bound to p, or -1.
func (r *Recorder) currentOf(p *simtime.Proc) int {
	if inv, ok := r.cur[p]; ok {
		return inv
	}
	return -1
}

// VerbCall is an open verb invocation; close it with End.
type VerbCall struct {
	r    *Recorder
	inv  int
	prev int // invocation previously bound to proc, -1 if none
	proc *simtime.Proc
	span Span
}

// BeginVerb opens a verb invocation plus its root verbs-layer span and
// binds it to p, so spans recorded on p until End are tagged with it.
func (r *Recorder) BeginVerb(p *simtime.Proc, verb, actor string) VerbCall {
	if r == nil || !r.enabled {
		return VerbCall{inv: -1}
	}
	id := len(r.invs)
	r.invs = append(r.invs, Invocation{ID: id, Verb: verb, Actor: actor, Start: p.Now(), End: -1})
	prev := r.currentOf(p)
	r.bind(p, id)
	return VerbCall{r: r, inv: id, prev: prev, proc: p, span: r.Begin(p, LayerVerbs, verb)}
}

// End closes the invocation and its root span, restoring whatever
// invocation the proc was bound to before (for nested verb calls).
func (vc VerbCall) End(p *simtime.Proc) {
	if vc.r == nil {
		return
	}
	vc.span.End(p)
	vc.r.invs[vc.inv].End = p.Now()
	if vc.prev >= 0 {
		vc.r.bind(vc.proc, vc.prev)
	} else {
		delete(vc.r.cur, vc.proc)
	}
}

// Span is an open span handle; close it with End. The zero value (from a
// disabled recorder) is a no-op.
type Span struct {
	r   *Recorder
	idx int
}

// Begin opens a span at p.Now() in the given layer, tagged with the active
// invocation (if any).
func (r *Recorder) Begin(p *simtime.Proc, layer Layer, name string) Span {
	if r == nil || !r.enabled {
		return Span{}
	}
	r.spans = append(r.spans, spanRec{
		layer: layer, name: name, proc: p.Name(),
		start: p.Now(), end: -1, inv: r.currentOf(p), open: true,
	})
	return Span{r: r, idx: len(r.spans)}
}

// End closes the span at p.Now().
func (s Span) End(p *simtime.Proc) {
	if s.r == nil {
		return
	}
	rec := &s.r.spans[s.idx-1]
	rec.end = p.Now()
	rec.open = false
}

// Interval records an already-delimited span, for a leg that did not run
// as one stretch on p — e.g. the virtio ring-service leg of a call that
// waited for the backend, whose service leg ran out while p was parked.
// start/end must come from p.Now() plus model constants, never from the
// wall clock.
func (r *Recorder) Interval(p *simtime.Proc, layer Layer, name string, start, end simtime.Time) {
	if r == nil || !r.enabled {
		return
	}
	r.spans = append(r.spans, spanRec{
		layer: layer, name: name, proc: p.Name(),
		start: start, end: end, inv: r.currentOf(p),
	})
}

// Breakdown is the per-layer self-time attribution of one verb invocation.
type Breakdown struct {
	Invocation
	Total simtime.Duration            // End - Start
	Layer [NumLayers]simtime.Duration // self time per layer
	Named map[string]simtime.Duration // self time per "layer/name"
}

// Attribute computes, for every closed invocation, the self time of each
// recorded span (duration minus time covered by nested spans) rolled up by
// layer and by layer/name. Because the instrumented control path leaves no
// uncovered gaps, the layer self-times of an invocation sum to its total.
func (r *Recorder) Attribute() []Breakdown {
	if r == nil {
		return nil
	}
	// Group closed spans by invocation.
	byInv := make(map[int][]spanRec)
	for _, s := range r.spans {
		if s.open || s.inv < 0 {
			continue
		}
		byInv[s.inv] = append(byInv[s.inv], s)
	}
	var out []Breakdown
	for _, inv := range r.invs {
		if inv.End < 0 {
			continue
		}
		b := Breakdown{
			Invocation: inv,
			Total:      inv.End.Sub(inv.Start),
			Named:      map[string]simtime.Duration{},
		}
		spans := byInv[inv.ID]
		// Sort outermost-first: by start ascending, then end descending.
		// Ties (identical intervals) keep record order, so an enclosing
		// span recorded first stays the parent.
		sort.SliceStable(spans, func(i, j int) bool {
			if spans[i].start != spans[j].start {
				return spans[i].start < spans[j].start
			}
			return spans[i].end > spans[j].end
		})
		// Containment scan: child time is subtracted from the innermost
		// enclosing span's self time.
		type frame struct {
			i     int
			child simtime.Duration
		}
		var stack []frame
		selfOf := func(f frame) {
			s := spans[f.i]
			self := s.end.Sub(s.start) - f.child
			b.Layer[s.layer] += self
			b.Named[s.layer.String()+"/"+s.name] += self
		}
		for i, s := range spans {
			for len(stack) > 0 && spans[stack[len(stack)-1].i].end <= s.start {
				f := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				selfOf(f)
			}
			if len(stack) > 0 {
				stack[len(stack)-1].child += s.end.Sub(s.start)
			}
			stack = append(stack, frame{i: i})
		}
		for len(stack) > 0 {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			selfOf(f)
		}
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// AggRow is one cell of the per-actor × per-verb × per-layer rollup.
type AggRow struct {
	Actor string
	Verb  string
	Layer Layer
	Count int // closed invocations contributing (for Count>0 rows)
	Self  simtime.Duration
}

// Aggregate sums Attribute() across invocations, keyed by
// (actor, verb, layer), sorted for deterministic output. Layers with zero
// self time are omitted.
func (r *Recorder) Aggregate() []AggRow {
	type key struct {
		actor, verb string
		layer       Layer
	}
	acc := make(map[key]*AggRow)
	for _, b := range r.Attribute() {
		for l := Layer(0); l < NumLayers; l++ {
			if b.Layer[l] == 0 {
				continue
			}
			k := key{b.Actor, b.Verb, l}
			row := acc[k]
			if row == nil {
				row = &AggRow{Actor: b.Actor, Verb: b.Verb, Layer: l}
				acc[k] = row
			}
			row.Count++
			row.Self += b.Layer[l]
		}
	}
	out := make([]AggRow, 0, len(acc))
	for _, row := range acc {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Actor != b.Actor {
			return a.Actor < b.Actor
		}
		if a.Verb != b.Verb {
			return a.Verb < b.Verb
		}
		return a.Layer < b.Layer
	})
	return out
}
