// Package trace is a deterministic span/counter recorder for the MasQ
// control path. Spans are keyed to the simulation clock: recording a span
// only reads p.Now() and appends to host-side slices, so event ordering and
// every virtual-time measurement are bit-identical whether tracing is on or
// off. A disabled (or nil) Recorder is zero-cost — no events, no
// allocations.
//
// The recorder understands two kinds of structure:
//
//   - Verb invocations. The verbs-layer wrapper (verbs.Instrument) opens an
//     invocation per control-verb call and binds it to the calling Proc;
//     spans recorded on that Proc are tagged with it. When the control path
//     hops Procs — the guest posts a command and the host-side virtio ring
//     process handles it — the transport carries the invocation across
//     (CurrentInv on the posting side, AdoptInv/ReleaseInv on the serving
//     side), which is what lets a guest-side kick, the host-side backend
//     handler, and the deferred IRQ all roll up under one "create_qp" even
//     when several connections are being set up concurrently.
//
//   - Layers. Every span carries a Layer from a fixed taxonomy mirroring
//     the software stack of the paper's Fig. 16. Attribution computes
//     per-layer *self* time (span duration minus time covered by nested
//     spans), so layer shares of a verb partition its measured total.
//
// Sharding. One Recorder can serve a whole sharded testbed: spans and
// invocations land in the lane of the recording Proc's shard (each lane is
// only ever touched by its shard's goroutine), and read-side views merge
// the lanes into one globally ordered stream keyed by (start, lane, record
// index) — a key that is identical across shard counts, so sharded and
// single-shard runs export byte-identical traces. With a single lane (the
// default) the merge is the identity and nothing changes. Counters are the
// one shared structure; they take a mutex, and Add stays
// order-independent (pure sums), so they too are deterministic.
package trace

import (
	"sort"
	"sync"

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
// assigned in global merged order, so they are stable across shard counts.
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
	inv        int // lane-local invocation index, -1 if none active
	open       bool
}

// lane is one shard's private recording surface. Only the owning shard's
// goroutine appends to it; readers merge lanes while the sim is quiesced.
type lane struct {
	spans []spanRec
	invs  []Invocation
	cur   map[string]int // proc name -> lane-local invocation bound to it
}

// Recorder accumulates spans and counters. The zero value is disabled; New
// returns an enabled one. All methods are safe on a nil receiver.
type Recorder struct {
	enabled bool
	lanes   []lane

	mu       sync.Mutex // guards counters (shared across shards)
	counters map[string]int64
}

// New returns an enabled single-lane Recorder.
func New() *Recorder { return NewSharded(1) }

// NewSharded returns an enabled Recorder with one lane per shard. Procs
// record into the lane of their engine's ShardID, so a recorder built for
// a ShardedEngine must have at least NumShards lanes.
func NewSharded(shards int) *Recorder {
	if shards < 1 {
		shards = 1
	}
	return &Recorder{enabled: true, lanes: make([]lane, shards)}
}

// laneOf picks the recording lane for p. Standalone engines report shard
// 0, so unsharded setups always land in lane 0.
func (r *Recorder) laneOf(p *simtime.Proc) *lane {
	return &r.lanes[p.Engine().ShardID()]
}

// SetEnabled turns recording on or off. Already-recorded events are kept;
// spans opened while enabled may still be closed after disabling.
func (r *Recorder) SetEnabled(on bool) {
	if r == nil {
		return
	}
	if on && len(r.lanes) == 0 {
		// A zero-value Recorder enabled after the fact gets one lane.
		r.lanes = make([]lane, 1)
	}
	r.enabled = on
}

// Events returns the number of recorded spans across all lanes.
func (r *Recorder) Events() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.lanes {
		n += len(r.lanes[i].spans)
	}
	return n
}

// bind marks inv as the active invocation on the named proc.
func (ln *lane) bind(proc string, inv int) {
	if ln.cur == nil {
		ln.cur = make(map[string]int)
	}
	ln.cur[proc] = inv
}

// currentOf returns the invocation bound to the named proc, or -1.
func (ln *lane) currentOf(proc string) int {
	if inv, ok := ln.cur[proc]; ok {
		return inv
	}
	return -1
}

// VerbCall is an open verb invocation; close it with End.
type VerbCall struct {
	r    *Recorder
	ln   *lane
	inv  int
	prev int // invocation previously bound to proc, -1 if none
	proc string
	span Span
}

// BeginVerb opens a verb invocation plus its root verbs-layer span and
// binds it to p, so spans recorded on p until End are tagged with it.
func (r *Recorder) BeginVerb(p *simtime.Proc, verb, actor string) VerbCall {
	if r == nil || !r.enabled {
		return VerbCall{inv: -1}
	}
	ln := r.laneOf(p)
	id := len(ln.invs)
	ln.invs = append(ln.invs, Invocation{ID: id, Verb: verb, Actor: actor, Start: p.Now(), End: -1})
	name := p.Name()
	prev := ln.currentOf(name)
	ln.bind(name, id)
	return VerbCall{r: r, ln: ln, inv: id, prev: prev, proc: name, span: r.Begin(p, LayerVerbs, verb)}
}

// End closes the invocation and its root span, restoring whatever
// invocation the proc was bound to before (for nested verb calls).
func (vc VerbCall) End(p *simtime.Proc) {
	if vc.r == nil {
		return
	}
	vc.span.End(p)
	vc.ln.invs[vc.inv].End = p.Now()
	if vc.prev >= 0 {
		vc.ln.bind(vc.proc, vc.prev)
	} else {
		delete(vc.ln.cur, vc.proc)
	}
}

// CurrentInv returns the invocation bound to p, or -1. The virtio transport
// captures it on the guest side so the host-side ring process can adopt it.
// The returned index is lane-local: it may only be adopted by a Proc on the
// same shard (the virtio ring never hops shards — guest and host backend
// share a host, hence a shard).
func (r *Recorder) CurrentInv(p *simtime.Proc) int {
	if r == nil || !r.enabled {
		return -1
	}
	return r.laneOf(p).currentOf(p.Name())
}

// AdoptInv binds p to an invocation opened on another Proc of the same
// shard, so host-side spans roll up under the guest's verb call. Undo with
// ReleaseInv. Adopting -1 (no active invocation) just releases.
func (r *Recorder) AdoptInv(p *simtime.Proc, inv int) {
	if r == nil || !r.enabled {
		return
	}
	if inv < 0 {
		r.ReleaseInv(p)
		return
	}
	r.laneOf(p).bind(p.Name(), inv)
}

// ReleaseInv removes p's invocation binding.
func (r *Recorder) ReleaseInv(p *simtime.Proc) {
	if r == nil {
		return
	}
	ln := r.laneOf(p)
	if ln.cur != nil {
		delete(ln.cur, p.Name())
	}
}

// Span is an open span handle; close it with End. The zero value (from a
// disabled recorder) is a no-op.
type Span struct {
	ln  *lane
	idx int
}

// Begin opens a span at p.Now() in the given layer, tagged with the active
// invocation (if any).
func (r *Recorder) Begin(p *simtime.Proc, layer Layer, name string) Span {
	if r == nil || !r.enabled {
		return Span{}
	}
	ln := r.laneOf(p)
	ln.spans = append(ln.spans, spanRec{
		layer: layer, name: name, proc: p.Name(),
		start: p.Now(), end: -1, inv: ln.currentOf(p.Name()), open: true,
	})
	return Span{ln: ln, idx: len(ln.spans)}
}

// End closes the span at p.Now().
func (s Span) End(p *simtime.Proc) {
	if s.ln == nil {
		return
	}
	rec := &s.ln.spans[s.idx-1]
	rec.end = p.Now()
	rec.open = false
}

// Interval records an already-delimited span, for regions that do not run
// inside a Proc at their own virtual time — e.g. the virtio IRQ leg, which
// is scheduled with Engine.After. start/end must come from p.Now() plus
// model constants, never from the wall clock.
func (r *Recorder) Interval(p *simtime.Proc, layer Layer, name string, start, end simtime.Time) {
	if r == nil || !r.enabled {
		return
	}
	ln := r.laneOf(p)
	ln.spans = append(ln.spans, spanRec{
		layer: layer, name: name, proc: p.Name(),
		start: start, end: end, inv: ln.currentOf(p.Name()),
	})
}

// Add increments a named counter. Counters are shared across shards (Add
// carries no Proc), so this takes the recorder's mutex.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil || !r.enabled {
		return
	}
	r.mu.Lock()
	if r.counters == nil {
		r.counters = make(map[string]int64)
	}
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter is a named event count.
type Counter struct {
	Name  string
	Value int64
}

// Counters returns all counters sorted by name.
func (r *Recorder) Counters() []Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.counters) == 0 {
		return nil
	}
	out := make([]Counter, 0, len(r.counters))
	for k, v := range r.counters {
		out = append(out, Counter{k, v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// merged flattens the lanes into one globally ordered stream: invocations
// sorted by (Start, lane, lane index) and renumbered in that order, spans
// sorted by (start, lane, record index) with their invocation references
// remapped. The key never compares anything that depends on the shard
// count, so an N-shard run merges to exactly the single-shard stream.
// With one lane this is the identity (no copy, original IDs).
func (r *Recorder) merged() ([]spanRec, []Invocation) {
	if r == nil || len(r.lanes) == 0 {
		return nil, nil
	}
	if len(r.lanes) == 1 {
		return r.lanes[0].spans, r.lanes[0].invs
	}
	type ref struct{ lane, idx int }
	var iorder []ref
	for li := range r.lanes {
		for ii := range r.lanes[li].invs {
			iorder = append(iorder, ref{li, ii})
		}
	}
	sort.Slice(iorder, func(a, b int) bool {
		x, y := iorder[a], iorder[b]
		sx := r.lanes[x.lane].invs[x.idx].Start
		sy := r.lanes[y.lane].invs[y.idx].Start
		if sx != sy {
			return sx < sy
		}
		if x.lane != y.lane {
			return x.lane < y.lane
		}
		return x.idx < y.idx
	})
	invs := make([]Invocation, len(iorder))
	remap := make([][]int, len(r.lanes))
	for li := range r.lanes {
		remap[li] = make([]int, len(r.lanes[li].invs))
	}
	for mid, k := range iorder {
		inv := r.lanes[k.lane].invs[k.idx]
		inv.ID = mid
		invs[mid] = inv
		remap[k.lane][k.idx] = mid
	}
	var sorder []ref
	for li := range r.lanes {
		for si := range r.lanes[li].spans {
			sorder = append(sorder, ref{li, si})
		}
	}
	sort.Slice(sorder, func(a, b int) bool {
		x, y := sorder[a], sorder[b]
		sx := r.lanes[x.lane].spans[x.idx].start
		sy := r.lanes[y.lane].spans[y.idx].start
		if sx != sy {
			return sx < sy
		}
		if x.lane != y.lane {
			return x.lane < y.lane
		}
		return x.idx < y.idx
	})
	spans := make([]spanRec, 0, len(sorder))
	for _, k := range sorder {
		s := r.lanes[k.lane].spans[k.idx]
		if s.inv >= 0 {
			s.inv = remap[k.lane][s.inv]
		}
		spans = append(spans, s)
	}
	return spans, invs
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
	allSpans, allInvs := r.merged()
	// Group closed spans by invocation.
	byInv := make(map[int][]spanRec)
	for _, s := range allSpans {
		if s.open || s.inv < 0 {
			continue
		}
		byInv[s.inv] = append(byInv[s.inv], s)
	}
	var out []Breakdown
	for _, inv := range allInvs {
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
