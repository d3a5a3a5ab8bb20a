// Package mpi implements a small MPI-style runtime over the verbs API —
// the communication layer under the paper's MVAPICH2/OSU benchmarks
// (Fig. 13, Fig. 14) and Graph500 (Fig. 20). Ranks are fully connected
// with RC queue pairs; receives are credit-managed slot rings so blocking
// sends never hit receiver-not-ready; collectives use the classical
// algorithms (binomial-tree broadcast, recursive-doubling allreduce,
// dissemination barrier).
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"masq/internal/cluster"
	"masq/internal/simtime"
	"masq/internal/verbs"
)

// Options size the runtime's buffers.
type Options struct {
	MaxMsg int // largest message in bytes
	Slots  int // pre-posted receive slots per peer
}

// DefaultOptions suits the OSU microbenchmarks and Graph500.
func DefaultOptions() Options { return Options{MaxMsg: 128 * 1024, Slots: 8} }

// World is a communicator: Size ranks on their cluster nodes.
type World struct {
	Size int

	eng   *simtime.Engine
	opts  Options
	ranks []*Rank
}

// Rank is one MPI process.
type Rank struct {
	ID    int
	World *World
	Node  *cluster.Node

	peers []*peer // indexed by rank; nil at self
}

// peer is the connection state toward one other rank.
type peer struct {
	ep      *cluster.Endpoint
	slotLen int
	stage   uint64 // send staging offset within ep.Buf
}

// NewWorld builds a fully connected world over the given nodes (one rank
// per node; nodes may share hosts and VMs). It drives the engine until all
// QPs are in RTS.
func NewWorld(tb *cluster.Testbed, nodes []*cluster.Node, opts Options) (*World, error) {
	if opts.MaxMsg == 0 {
		opts = DefaultOptions()
	}
	w := &World{Size: len(nodes), eng: tb.Eng, opts: opts}
	for i, n := range nodes {
		w.ranks = append(w.ranks, &Rank{ID: i, World: w, Node: n, peers: make([]*peer, len(nodes))})
	}

	slotLen := opts.MaxMsg
	bufLen := opts.Slots*slotLen + opts.MaxMsg // slots + send staging
	epOpts := cluster.EndpointOpts{
		BufLen: bufLen,
		Access: verbs.AccessLocalWrite,
		Type:   verbs.RC,
		CQE:    2 * opts.Slots * len(nodes),
		Caps:   verbs.QPCaps{MaxSendWR: 64, MaxRecvWR: 2 * opts.Slots},
	}

	done := simtime.NewEvent[error](tb.Eng)
	tb.Eng.Spawn("mpi-wireup", func(p *simtime.Proc) {
		port := uint16(9000)
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				epI, err := w.ranks[i].Node.Setup(p, epOpts)
				if err != nil {
					done.Trigger(err)
					return
				}
				epJ, err := w.ranks[j].Node.Setup(p, epOpts)
				if err != nil {
					done.Trigger(err)
					return
				}
				if err := epI.ConnectRC(p, epJ.Info()); err != nil {
					done.Trigger(err)
					return
				}
				if err := epJ.ConnectRC(p, epI.Info()); err != nil {
					done.Trigger(err)
					return
				}
				w.ranks[i].peers[j] = &peer{ep: epI, slotLen: slotLen, stage: uint64(opts.Slots * slotLen)}
				w.ranks[j].peers[i] = &peer{ep: epJ, slotLen: slotLen, stage: uint64(opts.Slots * slotLen)}
				port++
			}
		}
		// Pre-post receive slots everywhere.
		for _, r := range w.ranks {
			for _, pe := range r.peers {
				if pe == nil {
					continue
				}
				for s := 0; s < opts.Slots; s++ {
					pe.ep.QP.PostRecv(p, verbs.RecvWR{
						WRID: uint64(s), Addr: pe.ep.Buf + uint64(s*pe.slotLen),
						LKey: pe.ep.MR.LKey(), Len: pe.slotLen,
					})
				}
			}
		}
		done.Trigger(nil)
	})
	tb.Eng.Run()
	if !done.Triggered() {
		return nil, fmt.Errorf("mpi: wire-up stalled")
	}
	if err := done.Value(); err != nil {
		return nil, err
	}
	return w, nil
}

// Start launches fn on every rank and returns an event that triggers once
// all ranks return (with the first error, if any).
func (w *World) Start(fn func(p *simtime.Proc, r *Rank) error) *simtime.Event[error] {
	done := simtime.NewEvent[error](w.eng)
	remaining := w.Size
	var firstErr error
	for _, r := range w.ranks {
		r := r
		w.eng.Spawn(fmt.Sprintf("mpi-rank%d", r.ID), func(p *simtime.Proc) {
			if err := fn(p, r); err != nil && firstErr == nil {
				firstErr = fmt.Errorf("rank %d: %w", r.ID, err)
			}
			remaining--
			if remaining == 0 {
				done.Trigger(firstErr)
			}
		})
	}
	return done
}

// Run is Start + engine drive, for standalone jobs.
func (w *World) Run(fn func(p *simtime.Proc, r *Rank) error) error {
	done := w.Start(fn)
	w.eng.Run()
	if !done.Triggered() {
		return fmt.Errorf("mpi: job deadlocked (pending: %v)", w.eng.PendingProcs())
	}
	return done.Value()
}

// Send transmits data to rank dst (blocking standard send).
func (r *Rank) Send(p *simtime.Proc, dst int, data []byte) error {
	if len(data) > r.World.opts.MaxMsg {
		return fmt.Errorf("mpi: message of %d bytes exceeds MaxMsg %d", len(data), r.World.opts.MaxMsg)
	}
	pe, err := r.postSend(p, dst, data)
	if err != nil {
		return err
	}
	wc := pe.ep.SCQ.Wait(p)
	if wc.Status != verbs.WCSuccess {
		return fmt.Errorf("mpi: send to %d failed: %v", dst, wc.Status)
	}
	return nil
}

// Recv receives the next message from rank src.
func (r *Rank) Recv(p *simtime.Proc, src int) ([]byte, error) {
	pe := r.peers[src]
	if pe == nil {
		return nil, fmt.Errorf("mpi: rank %d receiving from itself", r.ID)
	}
	wc := pe.ep.RCQ.Wait(p)
	if wc.Status != verbs.WCSuccess {
		return nil, fmt.Errorf("mpi: recv from %d failed: %v", src, wc.Status)
	}
	slot := wc.WRID
	addr := pe.ep.Buf + slot*uint64(pe.slotLen)
	data := make([]byte, wc.ByteLen)
	if err := r.Node.Read(addr, data); err != nil {
		return nil, err
	}
	// Replenish the slot.
	if err := pe.ep.QP.PostRecv(p, verbs.RecvWR{
		WRID: slot, Addr: addr, LKey: pe.ep.MR.LKey(), Len: pe.slotLen,
	}); err != nil {
		return nil, err
	}
	return data, nil
}

// SendRecv exchanges messages with a partner without deadlocking: the send
// is posted first, then both completions are awaited.
func (r *Rank) SendRecv(p *simtime.Proc, partner int, data []byte) ([]byte, error) {
	pe, err := r.postSend(p, partner, data)
	if err != nil {
		return nil, err
	}
	in, err := r.Recv(p, partner)
	if err != nil {
		return nil, err
	}
	if wc := pe.ep.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
		return nil, fmt.Errorf("mpi: sendrecv send failed: %v", wc.Status)
	}
	return in, nil
}

// postSend stages data toward dst and posts the send without waiting.
func (r *Rank) postSend(p *simtime.Proc, dst int, data []byte) (*peer, error) {
	pe := r.peers[dst]
	if pe == nil {
		return nil, fmt.Errorf("mpi: rank %d sending to itself", r.ID)
	}
	if err := r.Node.Write(pe.ep.Buf+pe.stage, data); err != nil {
		return nil, err
	}
	return pe, pe.ep.QP.PostSend(p, verbs.SendWR{
		WRID: 1, Op: verbs.WRSend, LocalAddr: pe.ep.Buf + pe.stage,
		LKey: pe.ep.MR.LKey(), Len: len(data),
	})
}

// Barrier is a dissemination barrier: in round k each rank signals
// (id+k) mod n and waits for a signal from (id-k) mod n.
func (r *Rank) Barrier(p *simtime.Proc) error {
	n := r.World.Size
	for k := 1; k < n; k <<= 1 {
		dst := (r.ID + k) % n
		src := (r.ID - k + n) % n
		pe, err := r.postSend(p, dst, []byte{1})
		if err != nil {
			return err
		}
		if _, err := r.Recv(p, src); err != nil {
			return err
		}
		if wc := pe.ep.SCQ.Wait(p); wc.Status != verbs.WCSuccess {
			return fmt.Errorf("mpi: barrier send failed: %v", wc.Status)
		}
	}
	return nil
}

// Bcast broadcasts data from root using a binomial tree; every rank
// returns the payload.
func (r *Rank) Bcast(p *simtime.Proc, root int, data []byte) ([]byte, error) {
	n := r.World.Size
	rel := (r.ID - root + n) % n
	if rel != 0 {
		// Receive from parent: the sender is the rank that clears our
		// lowest set bit.
		parent := (r.ID - (rel & -rel) + n) % n
		var err error
		data, err = r.Recv(p, parent)
		if err != nil {
			return nil, err
		}
	}
	// Forward to children: set bits above our lowest set bit.
	mask := 1
	for mask < n && (rel&mask) == 0 {
		childRel := rel | mask
		if childRel < n {
			child := (childRel + root) % n
			if err := r.Send(p, child, data); err != nil {
				return nil, err
			}
		}
		mask <<= 1
	}
	return data, nil
}

// Allreduce sums float64 vectors across all ranks (recursive doubling for
// power-of-two sizes; reduce-to-root + broadcast otherwise).
func (r *Rank) Allreduce(p *simtime.Proc, vec []float64) ([]float64, error) {
	n := r.World.Size
	acc := append([]float64(nil), vec...)
	if n&(n-1) == 0 {
		for k := 1; k < n; k <<= 1 {
			partner := r.ID ^ k
			in, err := r.SendRecv(p, partner, encodeF64(acc))
			if err != nil {
				return nil, err
			}
			other := decodeF64(in)
			for i := range acc {
				acc[i] += other[i]
			}
		}
		return acc, nil
	}
	// General case: gather to 0, then broadcast.
	if r.ID == 0 {
		for src := 1; src < n; src++ {
			in, err := r.Recv(p, src)
			if err != nil {
				return nil, err
			}
			other := decodeF64(in)
			for i := range acc {
				acc[i] += other[i]
			}
		}
	} else {
		if err := r.Send(p, 0, encodeF64(acc)); err != nil {
			return nil, err
		}
	}
	out, err := r.Bcast(p, 0, encodeF64(acc))
	if err != nil {
		return nil, err
	}
	return decodeF64(out), nil
}

func encodeF64(v []float64) []byte {
	b := make([]byte, 8*len(v))
	for i, f := range v {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(f))
	}
	return b
}

func decodeF64(b []byte) []float64 {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return v
}
