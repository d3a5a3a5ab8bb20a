package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"

	"masq/internal/simtime"
	"masq/internal/trace"
)

// runOpts are the settings of one benchmark run.
type runOpts struct {
	seed     int64
	seconds  float64
	trace    bool
	scale    float64
	traceDir string
}

// workload is one kind of input. newRun generates an input set from a
// seed; the returned function builds and measures one episode of it.
type workload struct {
	name   string
	why    string
	newRun func(seed int64, scale float64) func(episodeOpts) (*episode, error)
}

// episodeOpts are the settings of one episode.
type episodeOpts struct {
	traced     bool   // record the program's spans and the benchmark's verb spans
	cpuProfile string // if set, profile the timed phase's CPU into this file
}

// workloads are the benchmark's workloads in run order (README.md gives
// the reasons for each).
var workloads = []workload{
	{"datapath", "32 RC streams of 64 B-4 KB messages plus a SEND probe: packet-rate-bound RNIC transport with the control plane idle", newDatapath},
	{"connect", "Poisson connection churn at 200/s through verbs, virtio, the MasQ backend and RNIC firmware, with a warm rename cache", newConnect},
	{"ctrl-storm", "sharded, replicated controller under lease-renewal waves, re-registrations and a resolve flood from 300 hosts", newCtrlStorm},
	{"rule-churn", "security rules revoked and re-added under live traffic and new connections: RConntrack enforcement and the rule index", newRuleChurn},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// poolSize is how many input sets a run draws from its seed. The virtual
// metrics pool the samples of all of them, which keeps one seed's results
// close to another's; the run then repeats the inputs until its time
// budget is spent, for the wall-clock medians, and every repeat must
// reproduce its input's virtual results exactly.
const poolSize = 8

// inputSeed is the seed of input set k of a run.
func inputSeed(seed int64, k int) int64 {
	rng := rand.New(rand.NewSource(seed))
	var s int64
	for i := 0; i <= k; i++ {
		s = rng.Int63()
	}
	return s
}

// episode is one build-and-measure of an input set, in the process that
// runs it. The workload fills in the virtual outcomes of the result.
type episode struct {
	episodeResult
	opts              episodeOpts
	profile           *os.File // the running CPU profile, if any
	err               error    // the harness failed (not the program)
	start, timedStart time.Time
	mem0              runtime.MemStats
	eventsAtTimed     uint64
	countersAtTimed   map[string]float64
	ref               *refLoop // gauges the host's speed during the timed phase

	verbs *verbClock      // per-call latencies of the benchmark's verbs calls
	state []string        // final state lines folded into the digest
	rec   *trace.Recorder // the program's span recorder, traced episodes only
}

// episodeResult is what an episode reports to the run that started it.
type episodeResult struct {
	Input  int  `json:"input"`
	Traced bool `json:"traced"`

	// Wall clock, on this host.
	Setup      time.Duration `json:"setup_ns"`
	Timed      time.Duration `json:"timed_ns"` // the simulation's share of the timed phase
	RefSteps   int           `json:"ref_steps"`
	RefTime    time.Duration `json:"ref_ns"` // the reference loop's share of the timed phase
	Mallocs    uint64        `json:"mallocs"`
	AllocBytes uint64        `json:"alloc_bytes"`
	GCCycles   uint32        `json:"gc_cycles"`
	GCPause    time.Duration `json:"gc_pause_ns"`
	LiveHeap   uint64        `json:"live_heap"` // bytes live after the timed phase

	// Virtual clock: identical for every episode of one input set.
	Ops        int                           `json:"ops"`               // attempted in the timed phase
	Failed     int                           `json:"failed"`            // of those, failed
	Lat        []simtime.Duration            `json:"lat"`               // the workload's headline latency samples
	Enforce    []simtime.Duration            `json:"enforce,omitempty"` // rule-churn: revocation → reset seen
	Span       simtime.Duration              `json:"span"`              // virtual length of the timed phase
	Events     uint64                        `json:"events"`
	Layers     map[string]float64            `json:"layers"` // per-layer counters of the timed phase
	Verbs      map[string][]simtime.Duration `json:"verbs,omitempty"`
	WCErrors   int                           `json:"wc_errors"`
	Violations []string                      `json:"violations,omitempty"`
	Digest     string                        `json:"digest"`

	Self map[string]float64 `json:"self,omitempty"` // traced: self time per layer and connection
}

func newEpisode(o episodeOpts) *episode {
	return &episode{opts: o, start: time.Now(), episodeResult: episodeResult{Layers: map[string]float64{}}}
}

// beginTimed ends the set-up phase and starts the timed one. counters is
// the per-layer snapshot the timed phase is measured against.
func (ep *episode) beginTimed(events uint64, counters map[string]float64) {
	ep.Setup = time.Since(ep.start)
	ep.eventsAtTimed, ep.countersAtTimed = events, counters
	var err error
	if ep.ref, err = newRefLoop(); err != nil {
		ep.err = err
	}
	runtime.ReadMemStats(&ep.mem0)
	if ep.opts.cpuProfile != "" {
		ep.startProfile()
	}
	ep.timedStart = time.Now()
}

func (ep *episode) startProfile() {
	f, err := os.Create(ep.opts.cpuProfile)
	if err == nil {
		if err = pprof.StartCPUProfile(f); err != nil {
			f.Close()
		}
	}
	if err != nil {
		ep.err = fmt.Errorf("starting the CPU profile: %w", err)
		return
	}
	ep.profile = f
}

// sliceWall is the wall time a timed phase runs between bursts of the
// reference loop.
const sliceWall = 5 * time.Millisecond

// run is the timed phase: it runs eng until its queue drains, in slices
// of virtual time sized to about sliceWall each, with a burst of the
// reference loop after each sliceWall of simulation (see refloop.go).
// Nothing runs between slices, so slicing leaves the virtual results as
// they are.
func (ep *episode) run(eng *simtime.Engine) {
	ref := ep.ref
	if ref == nil { // beginTimed failed and recorded why
		eng.Run()
		return
	}
	defer func() { ref.stop(); ep.ref = nil }()
	step := simtime.Microsecond
	var since time.Duration
	for {
		deadline := eng.Now().Add(step)
		t := time.Now()
		end := eng.RunUntil(deadline)
		d := time.Since(t)
		if end < deadline { // the queue drained
			break
		}
		if since += d; since >= sliceWall {
			ref.burst()
			since = 0
		}
		switch {
		case d < sliceWall/4:
			step *= 2
		case d > sliceWall && step > 1:
			step /= 2
		}
	}
	if ref.steps == 0 { // a timed phase shorter than one slice
		ref.burst()
	}
	ep.RefSteps, ep.RefTime = ref.steps, ref.elapsed
}

// hostFactor scales the episode's wall times to a quiet host's: the
// reference loop's cost per step there over its cost in this episode.
func (r *episodeResult) hostFactor() float64 {
	return refStepNs * float64(r.RefSteps) / float64(r.RefTime.Nanoseconds())
}

// endTimed ends the timed phase and records the per-layer deltas and the
// heap the simulation holds, which the caller keeps alive.
func (ep *episode) endTimed(events uint64, counters map[string]float64) {
	r := &ep.episodeResult
	r.Timed = time.Since(ep.timedStart) - r.RefTime
	if ep.profile != nil {
		pprof.StopCPUProfile()
		if err := ep.profile.Close(); err != nil {
			ep.err = fmt.Errorf("writing the CPU profile: %w", err)
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.Mallocs = m.Mallocs - ep.mem0.Mallocs
	r.AllocBytes = m.TotalAlloc - ep.mem0.TotalAlloc
	r.GCCycles = m.NumGC - ep.mem0.NumGC
	r.GCPause = time.Duration(m.PauseTotalNs - ep.mem0.PauseTotalNs)
	runtime.GC()
	runtime.ReadMemStats(&m)
	r.LiveHeap = m.HeapAlloc
	r.Events = events - ep.eventsAtTimed
	for k, v := range counters {
		if gauges[k] {
			ep.Layers[k] = v
		} else {
			ep.Layers[k] = v - ep.countersAtTimed[k]
		}
	}
	addRatios(ep.Layers)
}

// check records a correctness violation unless ok.
func (ep *episode) check(ok bool, format string, args ...any) {
	if !ok {
		ep.Violations = append(ep.Violations, fmt.Sprintf(format, args...))
	}
}

// result completes the episode's report: the benchmark's verb timings and
// the digest that every episode of the same input set must reproduce.
func (ep *episode) result() *episodeResult {
	r := &ep.episodeResult
	if ep.verbs != nil {
		r.Verbs = map[string][]simtime.Duration{}
		for _, name := range verbNames {
			r.Verbs[name] = ep.verbs.durs[name]
		}
		r.WCErrors = ep.verbs.wcErrors
	}
	h := fnv.New64a()
	fmt.Fprintln(h, r.Ops, r.Failed, int64(r.Span), r.Events, len(r.Lat), r.WCErrors)
	for _, d := range append(append([]simtime.Duration(nil), r.Lat...), r.Enforce...) {
		fmt.Fprintln(h, int64(d))
	}
	keys := make([]string, 0, len(r.Layers))
	for k := range r.Layers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintln(h, k, r.Layers[k])
	}
	for _, name := range verbNames {
		for _, d := range r.Verbs[name] {
			fmt.Fprintln(h, name, int64(d))
		}
	}
	for _, s := range ep.state {
		fmt.Fprintln(h, s)
	}
	r.Digest = fmt.Sprintf("%016x", h.Sum64())
	return r
}

// episodeProcs is the GOMAXPROCS of an episode. The classic engine runs one
// goroutine at a time: a second P only moves the hand-offs between procs
// across CPUs, which is slower and at the mercy of the host's scheduler.
const episodeProcs = 1

// episodeMain runs input set k of a run in this process and writes its
// result as JSON to out. A traced episode also reports its self times,
// and input set 0's writes its traces to traceDir/<workload>.
func episodeMain(w workload, o runOpts, k int, cpuProfile string, out io.Writer) error {
	runtime.GOMAXPROCS(episodeProcs)
	ep, err := w.newRun(inputSeed(o.seed, k), o.scale)(episodeOpts{traced: o.trace, cpuProfile: cpuProfile})
	if err == nil {
		err = ep.err
	}
	if err != nil {
		return err
	}
	res := ep.result()
	res.Input, res.Traced = k, o.trace
	if o.trace {
		dir := ""
		if k == 0 {
			dir = filepath.Join(o.traceDir, w.name)
		}
		if res.Self, err = selfTimes(ep, dir); err != nil {
			return err
		}
	}
	return json.NewEncoder(out).Encode(res)
}

// measure runs w's pool of input sets, then repeats them until the
// wall-clock budget is spent, each episode in a fresh child process of
// this binary, and reduces the results to a report. Fresh processes keep
// every episode's heap, goroutines and GC state out of the next: the
// simulator's parked processes never exit, so a testbed outlives its
// episode in the process that ran it. A traced run measures the pool
// untraced with CPU profiles, then traced, and repeats both in turn.
func measure(w workload, o runOpts) (*report, error) {
	dir := filepath.Join(o.traceDir, w.name)
	minEpisodes := poolSize
	if o.trace {
		minEpisodes = 2 * poolSize
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	var results []*episodeResult
	var profiles []string
	budget := time.Duration(o.seconds * float64(time.Second))
	for start := time.Now(); len(results) < minEpisodes || time.Since(start) < budget; {
		i := len(results)
		k, traced := i%poolSize, o.trace && (i/poolSize)%2 == 1
		profile := ""
		if o.trace && i < poolSize {
			profile = filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", k))
			profiles = append(profiles, profile)
		}
		res, err := spawnEpisode(w, o, k, traced, profile)
		if err != nil {
			return nil, fmt.Errorf("input set %d: %w", k, err)
		}
		results = append(results, res)
	}
	rep := reduce(w.name, o, results)
	if o.trace {
		if err := rep.addTraced(dir, results, profiles); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// spawnEpisode runs one episode in a child process and waits for it.
func spawnEpisode(w workload, o runOpts, k int, traced bool, cpuProfile string) (*episodeResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if traced {
		t = "1"
	}
	args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10), "-scale", formatValue(o.scale),
		"-trace", t, "-tracedir", o.traceDir, "-input", strconv.Itoa(k)}
	if cpuProfile != "" {
		args = append(args, "-cpuprofile", cpuProfile)
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	var res episodeResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("reading the episode's result: %w", err)
	}
	return &res, nil
}

// reduce turns a run's episode results into its report: the end-to-end
// metrics, or the per-layer ones for a traced run. Virtual metrics pool
// the first untraced episode of every input set; wall-clock ones are
// medians over the untraced episodes, each scaled to a quiet host's speed
// (see hostFactor).
func reduce(name string, o runOpts, results []*episodeResult) *report {
	rep := &report{Workload: name, Seed: o.seed, Scale: o.scale, Trace: o.trace,
		Episodes: len(results), Metrics: map[string]float64{}}
	var pool, plain, traced []*episodeResult
	first := map[int]*episodeResult{}
	for _, r := range results {
		if r.Traced {
			traced = append(traced, r)
			continue
		}
		plain = append(plain, r)
		if first[r.Input] == nil {
			first[r.Input] = r
			pool = append(pool, r)
		}
	}
	h := fnv.New64a()
	for _, r := range pool {
		fmt.Fprintln(h, r.Digest)
	}
	rep.Digest = fmt.Sprintf("%016x", h.Sum64())
	for i, r := range results {
		rep.Attempted += r.Ops
		rep.Failed += r.Failed
		rep.Violations = append(rep.Violations, r.Violations...)
		if r.Digest != first[r.Input].Digest {
			rep.Violations = append(rep.Violations, fmt.Sprintf(
				"episode %d: input set %d gave virtual results %s, earlier %s", i, r.Input, r.Digest, first[r.Input].Digest))
		}
	}
	if rep.Attempted == 0 {
		rep.Violations = append(rep.Violations, "no operation was attempted")
	}

	var lat, enforce []simtime.Duration
	var ops int
	var span simtime.Duration
	var events uint64
	for _, r := range pool {
		lat = append(lat, r.Lat...)
		enforce = append(enforce, r.Enforce...)
		ops += r.Ops
		span += r.Span
		events += r.Events
	}
	rep.Samples = len(lat)
	wall := func(rs []*episodeResult, f func(r *episodeResult) float64) float64 {
		v := make([]float64, len(rs))
		for i, r := range rs {
			v[i] = f(r)
		}
		return median(v)
	}
	if !o.trace {
		lat = sortedDurations(lat)
		rep.Metrics["lat_p50_us"] = percentile(lat, 50).Micros()
		rep.Metrics["lat_p99_us"] = percentile(lat, 99).Micros()
		rep.Metrics["virt_ops_per_s"] = float64(ops) / span.Seconds()
		rep.Metrics["wall_us_per_op"] = wall(plain, usPerOp)
		rep.Metrics["setup_s"] = wall(plain, func(r *episodeResult) float64 { return r.Setup.Seconds() * r.hostFactor() })
		rep.Metrics["heap_mb"] = wall(plain, func(r *episodeResult) float64 { return float64(r.LiveHeap) / (1 << 20) })
		for _, m := range endToEnd {
			if v := rep.Metrics[m.Name]; !(v > 0) || math.IsInf(v, 0) {
				rep.Violations = append(rep.Violations, fmt.Sprintf("%s is %v, not a positive number", m.Name, v))
			}
		}
		rep.Correct = len(rep.Violations) == 0 && rep.Failed == 0
		return rep
	}

	// Per-layer counters are means over the pool's episodes.
	verbs := newVerbClock(0, nil)
	for _, r := range pool {
		for k, v := range r.Layers {
			rep.Metrics[k] += v / float64(len(pool))
		}
		for name, d := range r.Verbs {
			verbs.durs[name] = append(verbs.durs[name], d...)
		}
		verbs.wcErrors += r.WCErrors
	}
	verbs.addMetrics(rep.Metrics, len(pool))
	enforce = sortedDurations(enforce)
	rep.Metrics["rct.enforce_p50_us"] = percentile(enforce, 50).Micros()
	rep.Metrics["rct.enforce_p99_us"] = percentile(enforce, 99).Micros()
	rep.Metrics["simtime.events"] = float64(events) / float64(len(pool))
	rep.Metrics["simtime.events_per_op"] = float64(events) / float64(ops)
	perEvent := func(x func(r *episodeResult) float64) float64 {
		return wall(plain, func(r *episodeResult) float64 { return x(r) / float64(r.Events) })
	}
	rep.Metrics["simtime.ns_per_event"] = perEvent(func(r *episodeResult) float64 { return float64(r.Timed.Nanoseconds()) * r.hostFactor() })
	rep.Metrics["simtime.allocs_per_event"] = perEvent(func(r *episodeResult) float64 { return float64(r.Mallocs) })
	rep.Metrics["simtime.alloc_bytes_per_event"] = perEvent(func(r *episodeResult) float64 { return float64(r.AllocBytes) })
	rep.Metrics["runtime.gc_cycles"] = wall(plain, func(r *episodeResult) float64 { return float64(r.GCCycles) })
	rep.Metrics["runtime.gc_pause_ms"] = wall(plain, func(r *episodeResult) float64 { return float64(r.GCPause.Microseconds()) / 1e3 })
	rep.Metrics["trace.overhead_pct"] = 100 * (wall(traced, usPerOp)/wall(plain, usPerOp) - 1)
	rep.Metrics["wall.raw_us_per_op"] = wall(plain, func(r *episodeResult) float64 { return usPerOp(r) / r.hostFactor() })
	rep.Metrics["wall.ref_ns_per_step"] = wall(plain, func(r *episodeResult) float64 { return refStepNs / r.hostFactor() })
	rep.Correct = len(rep.Violations) == 0 && rep.Failed == 0
	return rep
}

// usPerOp is an episode's wall time per operation, at a quiet host's speed.
func usPerOp(r *episodeResult) float64 {
	return float64(r.Timed.Nanoseconds()) / 1e3 / float64(r.Ops) * r.hostFactor()
}

func sortedDurations(d []simtime.Duration) []simtime.Duration {
	s := append([]simtime.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []simtime.Duration, p float64) simtime.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
