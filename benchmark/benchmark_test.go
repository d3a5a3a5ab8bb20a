package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"

	"masq/internal/simtime"
)

// TestMain lets the test binary serve the episodes measure runs in child
// processes of os.Executable().
func TestMain(m *testing.M) {
	if slices.Contains(os.Args, "-input") {
		os.Exit(runMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

// small runs w at 1% scale: one episode per input set of the pool, two
// when traced (and the run checks that those agree).
func small(t *testing.T, w workload, seed int64, traced bool) *report {
	t.Helper()
	rep, err := measure(w, runOpts{seed: seed, scale: 0.01, trace: traced, traceDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s: %v", w.name, err)
	}
	if !rep.Correct {
		t.Fatalf("%s: incorrect run: failed %d, violations %v", w.name, rep.Failed, rep.Violations)
	}
	return rep
}

// The same seed must give the same virtual results and final state,
// traced or not (a traced run measures every input untraced and traced,
// and requires them to agree); another seed must give other inputs.
func TestVirtualResultsFollowTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, traced, other := small(t, w, 7, false), small(t, w, 7, true), small(t, w, 8, false)
		for _, m := range []string{"lat_p50_us", "lat_p99_us", "virt_ops_per_s"} {
			if !(a.Metrics[m] > 0) {
				t.Errorf("%s: %s = %v, want positive", w.name, m, a.Metrics[m])
			}
		}
		if a.Digest != traced.Digest {
			t.Errorf("%s: seed 7 gave digest %s untraced, %s traced", w.name, a.Digest, traced.Digest)
		}
		if a.Digest == other.Digest {
			t.Errorf("%s: seeds 7 and 8 give the same digest %s", w.name, a.Digest)
		}
		if w.name == "datapath" {
			// The control plane must not move while data streams (the run
			// checks it too).
			for _, m := range []string{"masq.renames", "rct.validated", "ctrl.resolves", "ctrl.updates"} {
				if traced.Metrics[m] != 0 {
					t.Errorf("datapath: %s = %v in the timed phase, want 0", m, traced.Metrics[m])
				}
			}
			if traced.Metrics["rnic.tx_packets"] == 0 {
				t.Error("datapath moved no packets")
			}
		}
	}
}

// At low load every connection takes the same time, so the benchmark's
// per-call p50s add up to the connect p50, and each connection's client
// spans cover it exactly. The program's own per-layer self times add up to
// the verb total, and the RNIC's is the largest (paper Fig. 16).
func TestConnectSpansAddUp(t *testing.T) {
	var in []cnArrival
	for i := 0; i < 40; i++ {
		in = append(in, cnArrival{due: simtime.Duration(i) * 50 * simtime.Millisecond,
			cli: i % cnVMs, srv: (i / cnVMs) % cnVMs, payload: int64(i)})
	}
	ep, err := runConnect(in, episodeOpts{traced: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ep.Violations) > 0 {
		t.Fatalf("violations: %v", ep.Violations)
	}
	var sum simtime.Duration
	for _, name := range connectSteps {
		sum += percentile(sortedDurations(ep.verbs.durs[name]), 50)
	}
	if p50 := percentile(sortedDurations(ep.Lat), 50); sum != p50 {
		t.Errorf("per-call p50s sum to %v, connect p50 is %v", sum, p50)
	}
	rootLen := map[int]int64{}
	covered := map[int]int64{}
	for _, s := range ep.verbs.spans {
		if s.Parent < 0 {
			rootLen[s.Req] = s.End - s.Start
		} else if !strings.HasPrefix(s.Name, "server.") {
			covered[s.Req] += s.End - s.Start
		}
	}
	for req, d := range rootLen {
		if covered[req] != d {
			t.Errorf("connection %d: client spans cover %d ns of its %d ns", req, covered[req], d)
		}
	}

	times, err := selfTimes(ep, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var self float64
	for _, l := range selfLayers {
		m := "self." + l.metric + "_us"
		self += times[m]
		if times[m] > times["self.rnic_us"] {
			t.Errorf("%s = %v µs exceeds self.rnic_us = %v µs", m, times[m], times["self.rnic_us"])
		}
	}
	if total := times["self.total_us"]; !(total > 0) || math.Abs(self-total) > 1e-6*total {
		t.Errorf("self times sum to %v µs, verb total %v µs", self, total)
	}
}

// The timed phase runs in slices with the reference loop between them;
// that must not change what the simulation does.
func TestSlicedRunMatchesRun(t *testing.T) {
	sim := func(run func(*simtime.Engine)) []simtime.Time {
		eng := simtime.NewEngine()
		rng := rand.New(rand.NewSource(1))
		var log []simtime.Time
		for i := 0; i < 8; i++ {
			sleeps := make([]simtime.Duration, 200)
			for j := range sleeps {
				sleeps[j] = simtime.Duration(rng.Int63n(int64(simtime.Millisecond)))
			}
			eng.Spawn("sleeper", func(p *simtime.Proc) {
				for _, d := range sleeps {
					p.Sleep(d)
					log = append(log, p.Now())
				}
			})
		}
		run(eng)
		return append(log, eng.Now())
	}
	want := sim(func(eng *simtime.Engine) { eng.Run() })
	ep := newEpisode(episodeOpts{})
	got := sim(func(eng *simtime.Engine) {
		ep.beginTimed(0, nil)
		ep.run(eng)
	})
	if ep.err != nil {
		t.Fatal(ep.err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("sliced run diverged from Run: %d events and end %v, want %d and %v",
			len(got)-1, got[len(got)-1], len(want)-1, want[len(want)-1])
	}
	if f := ep.hostFactor(); !(f > 0) || math.IsInf(f, 0) {
		t.Errorf("host factor %v after %d reference steps in %v", f, ep.RefSteps, ep.RefTime)
	}
}

func TestCPUSharesSumTo100(t *testing.T) {
	w, _ := workloadByName("datapath")
	rep, err := measure(w, runOpts{seed: 1, scale: 0.1, trace: true, traceDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, pkg := range cpuPackages {
		sum += rep.Metrics["cpu."+pkg+"_pct"]
	}
	if math.Abs(sum-100) > 1 {
		t.Errorf("CPU shares sum to %v%%, want 100", sum)
	}
	if rep.Metrics["cpu.controller_pct"] > 1 {
		t.Errorf("datapath spends %v%% of its CPU in the controller, want ~0", rep.Metrics["cpu.controller_pct"])
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, ..., 10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	m := metricDef{Name: "x", Unit: "us", Better: "lower", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name string
		new  []float64
		want string
	}{
		{"faster", shift(-5), improved},
		{"same", base, unchanged},
		{"much slower", shift(20), worse},
		{"slightly slower", shift(3), unchanged},
	} {
		if got := verdict(m, base, tc.new).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := verdict(m, noisy, noisy).verdict; got != unresolved {
		t.Errorf("noisy base: verdict %s, want %s", got, unresolved)
	}
}

// BENCHMARK.json must describe exactly what the benchmark reports.
func TestBenchmarkJSONMatchesDefinitions(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, benchmark %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
