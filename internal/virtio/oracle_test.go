package virtio

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"masq/internal/simtime"
)

// procRing is the reference ring: a backend proc parked on a request
// queue serves each call, and an After(IRQCost) callback triggers the
// Event the guest waits on. Ring runs the same round trip on the guest's
// proc and must schedule the same events in the same order.
type procRing struct {
	eng  *simtime.Engine
	reqs *simtime.Queue[*procCall]
}

type procCall struct {
	cmds []any
	done *simtime.Event[[]any]
}

func newProcRing(eng *simtime.Engine, name string, handler func(*simtime.Proc, any) any) *procRing {
	r := &procRing{eng: eng, reqs: simtime.NewQueue[*procCall](eng)}
	eng.Spawn(name, func(bp *simtime.Proc) {
		for {
			c := r.reqs.Get(bp)
			bp.Sleep(hostProc)
			resp := make([]any, len(c.cmds))
			for i, cmd := range c.cmds {
				resp[i] = handler(bp, cmd)
			}
			done := c.done
			eng.After(IRQCost, func() { done.Trigger(resp) })
		}
	})
	return r
}

func (r *procRing) Call(p *simtime.Proc, cmd any) any { return r.CallBatch(p, []any{cmd})[0] }

func (r *procRing) CallBatch(p *simtime.Proc, cmds []any) []any {
	p.Sleep(KickCost)
	c := &procCall{cmds: cmds, done: simtime.NewEvent[[]any](r.eng)}
	r.reqs.Put(c)
	return c.done.Wait(p)
}

type caller interface {
	Call(p *simtime.Proc, cmd any) any
	CallBatch(p *simtime.Proc, cmds []any) []any
}

// ringCaller adapts Ring to the reference ring's command interface: a
// batch is one Call whose service runs the handler on each command.
type ringCaller struct {
	r *Ring
	h func(*simtime.Proc, any) any
}

func (c ringCaller) Call(p *simtime.Proc, cmd any) (resp any) {
	c.r.Call(p, func() { resp = c.h(p, cmd) })
	return resp
}

func (c ringCaller) CallBatch(p *simtime.Proc, cmds []any) []any {
	resp := make([]any, len(cmds))
	c.r.Call(p, func() {
		for i, cmd := range cmds {
			resp[i] = c.h(p, cmd)
		}
	})
	return resp
}

// ringCmd is one command: the handler sleeps pre, then holds the shared
// firmware for work.
type ringCmd struct {
	guest, call, idx int
	pre, work        simtime.Duration
}

// ringScenario runs six guests on two rings whose handlers contend for
// one capacity-1 firmware Resource. Each guest starts at a seeded
// multiple of 2 µs, so arrivals collide with each other and with the
// rings' 4 µs and 8 µs legs, and makes 1–4 calls of one to three
// commands. It returns a log of every handler entry and exit and every
// call's return, each with its virtual time, and the number of events
// the guests' phase dispatched.
func ringScenario(seed int64, mk func(eng *simtime.Engine, name string, h func(*simtime.Proc, any) any) caller) ([]string, uint64) {
	rng := rand.New(rand.NewSource(seed))
	eng := simtime.NewEngine()
	fw := simtime.NewResource(eng, 1)
	var log []string
	logf := func(p *simtime.Proc, format string, args ...any) {
		log = append(log, fmt.Sprintf("%v: ", p.Now())+fmt.Sprintf(format, args...))
	}
	var rings [2]caller
	for i := range rings {
		rings[i] = mk(eng, fmt.Sprintf("backend%d", i), func(p *simtime.Proc, cmd any) any {
			c := cmd.(ringCmd)
			logf(p, "ring%d enter %+v", i, c)
			p.Sleep(c.pre)
			fw.Acquire(p)
			p.Sleep(c.work)
			fw.Release()
			logf(p, "ring%d exit %+v", i, c)
			return c
		})
	}
	eng.Run() // set-up: the reference ring's backend procs start and park
	before := eng.Events()
	for g := 0; g < 6; g++ {
		ring := rings[rng.Intn(2)]
		start := simtime.Duration(rng.Intn(8)) * 2 * simtime.Microsecond
		calls := make([][]any, 1+rng.Intn(4))
		for k := range calls {
			cmds := make([]any, 1+rng.Intn(3))
			for j := range cmds {
				cmds[j] = ringCmd{guest: g, call: k, idx: j,
					pre:  simtime.Duration(rng.Intn(3)) * simtime.Microsecond,
					work: simtime.Duration(rng.Intn(4)) * simtime.Microsecond}
			}
			calls[k] = cmds
		}
		eng.Spawn(fmt.Sprintf("guest%d", g), func(p *simtime.Proc) {
			p.Sleep(start)
			for k, cmds := range calls {
				if len(cmds) == 1 {
					logf(p, "guest%d call %d -> %+v", g, k, ring.Call(p, cmds[0]))
					continue
				}
				logf(p, "guest%d batch %d -> %+v", g, k, ring.CallBatch(p, cmds))
			}
		})
	}
	eng.Run()
	return log, eng.Events() - before
}

// TestRingMatchesProcServedOracle: over 200 seeds of colliding guests,
// Ring runs every handler and returns every call at the same instants and
// in the same order as the proc-served reference ring, and dispatches the
// same number of events.
func TestRingMatchesProcServedOracle(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		wantLog, wantEvents := ringScenario(seed, func(eng *simtime.Engine, name string, h func(*simtime.Proc, any) any) caller {
			return newProcRing(eng, name, h)
		})
		gotLog, gotEvents := ringScenario(seed, func(eng *simtime.Engine, _ string, h func(*simtime.Proc, any) any) caller {
			return ringCaller{NewRing(eng), h}
		})
		if !reflect.DeepEqual(gotLog, wantLog) {
			for i := range wantLog {
				if i >= len(gotLog) || gotLog[i] != wantLog[i] {
					got := "<missing>"
					if i < len(gotLog) {
						got = gotLog[i]
					}
					t.Fatalf("seed %d: log line %d = %q, oracle %q", seed, i, got, wantLog[i])
				}
			}
			t.Fatalf("seed %d: log has %d lines, oracle %d", seed, len(gotLog), len(wantLog))
		}
		if gotEvents != wantEvents {
			t.Fatalf("seed %d: %d events, oracle %d", seed, gotEvents, wantEvents)
		}
	}
}
