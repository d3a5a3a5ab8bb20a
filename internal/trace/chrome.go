package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event JSON array format
// (the format chrome://tracing and Perfetto load directly).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`            // microseconds
	Dur  float64        `json:"dur,omitempty"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace exports all closed spans as a Chrome trace-event JSON
// array. Each simulation Proc becomes a "thread" (tid assigned by first
// appearance, named via metadata events); span categories are layer names,
// and spans carry the owning verb invocation in args. Timestamps are
// virtual microseconds since simulation start.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	var events []chromeEvent
	tids := map[string]int{}
	if r != nil {
		for _, s := range r.spans {
			if s.open {
				continue
			}
			tid, ok := tids[s.proc]
			if !ok {
				tid = len(tids) + 1
				tids[s.proc] = tid
				events = append(events, chromeEvent{
					Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
					Args: map[string]any{"name": s.proc},
				})
			}
			args := map[string]any{"layer": s.layer.String()}
			if s.inv >= 0 {
				inv := r.invs[s.inv]
				args["verb"] = inv.Verb
				args["actor"] = inv.Actor
			}
			events = append(events, chromeEvent{
				Name: s.name, Cat: s.layer.String(), Ph: "X",
				Ts:  float64(s.start) / 1e3,
				Dur: float64(s.end.Sub(s.start)) / 1e3,
				Pid: 1, Tid: tid, Args: args,
			})
		}
	}
	if events == nil {
		events = []chromeEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(events)
}
