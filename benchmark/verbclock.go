package main

import (
	"masq/internal/simtime"
	"masq/internal/trace"
)

// verbClock times, in virtual time, the verbs calls the benchmark makes
// on the connection path. In traced episodes it also keeps one span per
// call: the benchmark's own view of each layer boundary it crosses.
type verbClock struct {
	durs     map[string][]simtime.Duration
	wcErrors int

	spans    []verbSpan
	traceCap int             // connections that get spans
	traced   int             // connections that got spans
	rec      *trace.Recorder // the program's recorder, stopped at traceCap
}

// verbSpan is one benchmark-side span. Spans of one connection share Req;
// Parent indexes the connection's root span (-1 for a root).
type verbSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
}

// newVerbClock returns a clock that keeps spans for the first traceCap
// connections, and then stops rec too, bounding both traces' memory.
func newVerbClock(traceCap int, rec *trace.Recorder) *verbClock {
	return &verbClock{durs: map[string][]simtime.Duration{}, traceCap: traceCap, rec: rec}
}

// open starts connection req's root span; it returns -1 once traceCap
// connections are traced.
func (vc *verbClock) open(p *simtime.Proc, req int, name string) int {
	if vc.traced >= vc.traceCap {
		return -1
	}
	if vc.traced++; vc.traced == vc.traceCap {
		vc.rec.SetEnabled(false)
	}
	vc.spans = append(vc.spans, verbSpan{Name: name, Start: int64(p.Now()), End: -1, Parent: -1, Req: req})
	return len(vc.spans) - 1
}

// close ends a root span opened by open.
func (vc *verbClock) close(p *simtime.Proc, root int) {
	if root >= 0 {
		vc.spans[root].End = int64(p.Now())
	}
}

// call runs fn, one verbs call (or wait) of connection req, and records
// its virtual duration under name.
func (vc *verbClock) call(p *simtime.Proc, req, root int, name string, fn func() error) error {
	t0 := p.Now()
	err := fn()
	vc.durs[name] = append(vc.durs[name], p.Now().Sub(t0))
	if root >= 0 {
		vc.spans = append(vc.spans, verbSpan{Name: name, Start: int64(t0), End: int64(p.Now()), Parent: root, Req: req})
	}
	return err
}

// addMetrics adds the per-call percentiles, and the failed completions
// per episode over episodes, to a traced run's metrics.
func (vc *verbClock) addMetrics(m map[string]float64, episodes int) {
	for _, name := range verbNames {
		d := sortedDurations(vc.durs[name])
		m["verbs."+name+"_p50_us"] = percentile(d, 50).Micros()
		m["verbs."+name+"_p99_us"] = percentile(d, 99).Micros()
	}
	m["verbs.wc_errors"] = float64(vc.wcErrors) / float64(episodes)
}
