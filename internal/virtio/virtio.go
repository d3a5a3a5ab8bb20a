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

// The per-leg costs of a virtqueue round trip, which sum to the paper's
// ~20 µs guest↔host round trip.
const (
	KickCost = 8 * simtime.Microsecond // guest: descriptor setup + kick + VM exit
	hostProc = 4 * simtime.Microsecond // backend: wakeup and dequeue
	IRQCost  = 8 * simtime.Microsecond // interrupt injection + guest handler
)

// Ring is an RPC-style virtqueue pair (request + response) served by one
// backend thread. The guest's proc runs the backend's part of each round
// trip itself, holding the ring's backend unit while it does, so commands
// from all guests of a ring are served one at a time in arrival order.
type Ring struct {
	// Rec, when set, records the three transport legs of each round trip
	// as virtio-layer spans ("kick", "ring-service", "irq"). Nil is free.
	Rec *trace.Recorder

	backend *simtime.Resource
}

// NewRing creates a ring with one idle backend thread.
func NewRing(eng *simtime.Engine) *Ring {
	return &Ring{backend: simtime.NewResource(eng, 1)}
}

// Call runs one round trip from the guest: the kick, the backend's service
// of the request, and the IRQ back to the guest. serve is that service; it
// runs on the calling guest's proc and may block, sleeping and acquiring
// resources as the host-side driver would. A batch of commands is one Call
// whose serve handles each command in turn, so it shares one kick and one
// IRQ.
//
// Call schedules the events of a ring whose backend is a proc parked on a
// request queue, answering through an Event that an After(IRQCost)
// callback triggers, at the same instants and at the same points in the
// dispatch order, so Events() and the dispatch order equal that ring's
// (DESIGN §2.1):
//   - the idle path's Sleep(0) is the wake a queue Put gave the backend,
//     and its Sleep(hostProc) is the backend's own;
//   - a busy backend took its next request as soon as it had scheduled the
//     previous IRQ, and slept hostProc: ReleaseAfter(hostProc) wakes the
//     next waiter when that sleep would have ended;
//   - the Sleep(0) after the IRQ is the Trigger's wake of the guest.
func (r *Ring) Call(p *simtime.Proc, serve func()) {
	sp := r.Rec.Begin(p, trace.LayerVirtio, "kick")
	p.Sleep(KickCost)
	sp.End(p)
	if !r.backend.Acquire(p) {
		p.Sleep(0)
		p.Sleep(hostProc)
	}
	// An interval, because a caller that waited spent it parked.
	now := p.Now()
	r.Rec.Interval(p, trace.LayerVirtio, "ring-service", now.Add(-hostProc), now)
	serve()
	r.backend.ReleaseAfter(hostProc)
	sp = r.Rec.Begin(p, trace.LayerVirtio, "irq")
	p.Sleep(IRQCost)
	sp.End(p)
	p.Sleep(0)
}
