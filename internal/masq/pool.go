package masq

import (
	"fmt"
	"sort"

	"masq/internal/rnic"
	"masq/internal/simtime"
)

// Warm QP pools (setup fast path, part b): the expensive half of connection
// setup is the firmware verb chain — create_cq, create_qp, modify_qp(INIT)
// — all serialized through the device's single firmware resource and paying
// the VF control multiplier. The pool pre-creates those resources per
// tenant VNI while the host is idle, so a connection-storm setup shrinks to
// a pooled-handle rebind (host memory) plus the RTR/RTS transitions that
// genuinely depend on the peer. Refill runs as a background DES process
// gated on pool idleness, keeping the firmware free for foreground verbs
// mid-storm; pooled resources are flushed on VM crash and controller-epoch
// bump (pool.go stages state ahead of demand, so staged state must die with
// the world it was staged for).

// poolCQCap is the capacity of pooled CQs; take requests above it fall back
// to a real create_cq.
const poolCQCap = 256

// qpPool holds the warm resources of one tenant VNI.
type qpPool struct {
	vni    uint32
	fn     *rnic.Func
	target int

	pd   *rnic.PD // pool-owned PD the staged QPs are created under
	hold *rnic.CQ // parking CQ pooled QPs point at until rebound

	freeQP []*rnic.QP
	freeCQ []*rnic.CQ

	kick     *simtime.Queue[struct{}] // take/flush notifications to the refiller
	lastTake simtime.Time
	tookAny  bool
}

// takeCQ pops a pooled CQ if one fits the requested capacity.
func (pool *qpPool) takeCQ(cqe int) *rnic.CQ {
	if cqe > poolCQCap || len(pool.freeCQ) == 0 {
		return nil
	}
	n := len(pool.freeCQ) - 1
	cq := pool.freeCQ[n]
	pool.freeCQ[n] = nil
	pool.freeCQ = pool.freeCQ[:n]
	return cq
}

// takeQP pops a pooled QP (already in INIT on the tenant's function).
func (pool *qpPool) takeQP() *rnic.QP {
	if len(pool.freeQP) == 0 {
		return nil
	}
	n := len(pool.freeQP) - 1
	qp := pool.freeQP[n]
	pool.freeQP[n] = nil
	pool.freeQP = pool.freeQP[:n]
	return qp
}

// noteTake stamps a pooled take (arming the refiller's idle gate) and wakes
// the refiller.
func (pool *qpPool) noteTake(now simtime.Time) {
	pool.lastTake = now
	pool.tookAny = true
	pool.kick.Put(struct{}{})
}

// ensurePool creates (once) the warm pool for a VNI and starts its refill
// process.
func (b *Backend) ensurePool(vni uint32, fn *rnic.Func) *qpPool {
	if pool, ok := b.pools[vni]; ok {
		return pool
	}
	pool := &qpPool{
		vni:    vni,
		fn:     fn,
		target: b.P.QPPoolSize,
		kick:   simtime.NewQueue[struct{}](b.Host.Eng),
	}
	b.pools[vni] = pool
	b.Host.Eng.Spawn(fmt.Sprintf("masq.pool-refill:%d", vni), func(p *simtime.Proc) {
		b.refillPool(p, pool)
	})
	return pool
}

// refillPool is the pool's background process: top up staged CQs and QPs to
// the target, park while full, and hold off while takes are landing so the
// firmware stays free for the foreground storm.
func (b *Backend) refillPool(p *simtime.Proc, pool *qpPool) {
	dev := b.Host.Dev
	pool.pd = dev.AllocPD(p, pool.fn)
	pool.hold = dev.CreateCQ(p, pool.fn, poolCQCap)
	for {
		for {
			if _, ok := pool.kick.TryGet(); !ok {
				break
			}
		}
		needCQ := pool.target - len(pool.freeCQ)
		needQP := pool.target - len(pool.freeQP)
		if needCQ <= 0 && needQP <= 0 {
			pool.kick.Get(p) // full: park until a take or flush
			continue
		}
		if pool.tookAny {
			if idle := p.Now().Sub(pool.lastTake); idle < poolRefillIdle {
				// A take landed recently — the host is mid-storm. Creating
				// now would serialize the storm's RTR/RTS verbs behind our
				// create_qp on the firmware; back off until the pool has
				// been quiet for the idle window.
				p.Sleep(poolRefillIdle - idle)
				continue
			}
		}
		if needCQ >= needQP {
			cq := dev.CreateCQ(p, pool.fn, poolCQCap)
			pool.freeCQ = append(pool.freeCQ, cq)
		} else {
			qp := dev.CreateQP(p, pool.fn, pool.pd, pool.hold, pool.hold, rnic.RC, rnic.DefaultCaps())
			if err := dev.ModifyQP(p, qp, rnic.Attr{ToState: rnic.StateInit}); err != nil {
				dev.DestroyQP(p, qp)
				return
			}
			pool.freeQP = append(pool.freeQP, qp)
		}
		b.Stats.PoolRefills++
	}
}

// flushPool destroys every staged resource in the pool and wakes the
// refiller to rebuild. Handed-out resources are untouched — they belong to
// their sessions now.
func (b *Backend) flushPool(p *simtime.Proc, pool *qpPool) {
	dev := b.Host.Dev
	n := len(pool.freeQP) + len(pool.freeCQ)
	if n == 0 {
		return
	}
	for _, qp := range pool.freeQP {
		dev.DestroyQP(p, qp)
	}
	pool.freeQP = nil
	for _, cq := range pool.freeCQ {
		dev.DestroyCQ(p, pool.fn, cq)
	}
	pool.freeCQ = nil
	b.Stats.PoolFlushes += uint64(n)
	pool.kick.Put(struct{}{})
}

// spawnPoolFlush flushes every pool from a fresh process (epoch bumps are
// observed outside proc context), in VNI order for determinism.
func (b *Backend) spawnPoolFlush() {
	if len(b.pools) == 0 {
		return
	}
	vnis := make([]uint32, 0, len(b.pools))
	for vni := range b.pools {
		vnis = append(vnis, vni)
	}
	sort.Slice(vnis, func(i, j int) bool { return vnis[i] < vnis[j] })
	b.Host.Eng.Spawn("masq.pool-flush", func(p *simtime.Proc) {
		for _, vni := range vnis {
			b.flushPool(p, b.pools[vni])
		}
	})
}
