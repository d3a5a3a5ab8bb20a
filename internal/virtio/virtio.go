// Package virtio models the paravirtual command transport between a
// frontend driver in a VM and a backend driver on the host (Appendix A of
// the MasQ paper): the guest enqueues a command into a virtqueue and kicks
// (a VM exit), the backend dequeues, processes and responds, and an
// injected interrupt resumes the guest.
//
// The cost split is calibrated so one round trip is ~20 µs, the figure the
// paper measured and used to derive Table 1's "w/ virtio" column.
package virtio

import (
	"masq/internal/simtime"
	"masq/internal/trace"
)

// Params are the per-leg costs of a virtqueue round trip.
type Params struct {
	KickCost simtime.Duration // guest: descriptor setup + kick + VM exit
	HostProc simtime.Duration // backend: wakeup and dequeue
	IRQCost  simtime.Duration // interrupt injection + guest handler
}

// DefaultParams yields the paper's ~20 µs guest↔host round trip.
func DefaultParams() Params {
	return Params{
		KickCost: simtime.Us(8),
		HostProc: simtime.Us(4),
		IRQCost:  simtime.Us(8),
	}
}

// call is one in-flight batch of commands on the ring. inv carries the
// guest's active trace invocation across the proc hop so the host-side
// spans attribute to the right verb call under concurrent setups.
type call struct {
	cmds []any
	done *simtime.Event[[]any]
	inv  int
}

// Ring is an RPC-style virtqueue pair (request + response).
type Ring struct {
	P Params

	// Rec, when set, records the three transport legs of each round trip
	// as virtio-layer spans ("kick", "ring-service", "irq"). Nil is free.
	Rec *trace.Recorder

	eng  *simtime.Engine
	reqs *simtime.Queue[*call]
}

// NewRing creates a ring; call Serve on the host side before issuing Calls.
func NewRing(eng *simtime.Engine, p Params) *Ring {
	return &Ring{P: p, eng: eng, reqs: simtime.NewQueue[*call](eng)}
}

// Call issues one command from the guest and blocks until the backend's
// response arrives, paying the full virtqueue round trip.
func (r *Ring) Call(p *simtime.Proc, cmd any) any {
	return r.CallBatch(p, []any{cmd})[0]
}

// CallBatch issues several commands under a single kick and a single
// interrupt (the virtio batching ablation). The backend handler still runs
// once per command.
func (r *Ring) CallBatch(p *simtime.Proc, cmds []any) []any {
	sp := r.Rec.Begin(p, trace.LayerVirtio, "kick")
	p.Sleep(r.P.KickCost)
	sp.End(p)
	c := &call{cmds: cmds, done: simtime.NewEvent[[]any](r.eng), inv: r.Rec.CurrentInv(p)}
	r.reqs.Put(c)
	return c.done.Wait(p)
}

// Serve runs the backend loop: for each batch, handler is invoked per
// command in order (it may sleep — it runs in the backend process), then
// the responses are returned to the guest behind one interrupt.
func (r *Ring) Serve(name string, handler func(p *simtime.Proc, cmd any) any) {
	r.eng.Spawn(name, func(p *simtime.Proc) {
		for {
			c := r.reqs.Get(p)
			r.Rec.AdoptInv(p, c.inv)
			sp := r.Rec.Begin(p, trace.LayerVirtio, "ring-service")
			p.Sleep(r.P.HostProc)
			sp.End(p)
			resp := make([]any, len(c.cmds))
			for i, cmd := range c.cmds {
				resp[i] = handler(p, cmd)
			}
			done := c.done
			// The IRQ leg runs as a scheduled callback, not a Proc, so it
			// is recorded as a pre-delimited interval.
			r.Rec.Interval(p, trace.LayerVirtio, "irq", p.Now(), p.Now().Add(r.P.IRQCost))
			r.Rec.ReleaseInv(p)
			r.eng.After(r.P.IRQCost, func() { done.Trigger(resp) })
		}
	})
}
