package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// report is the result of one run.
type report struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Scale      float64            `json:"scale"`
	Trace      bool               `json:"trace"`
	Episodes   int                `json:"episodes"`
	Correct    bool               `json:"correct"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Digest     string             `json:"digest"`
	Samples    int                `json:"latency_samples"`
	Violations []string           `json:"violations,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
	Host       *hostInfo          `json:"host,omitempty"`
}

func (rep *report) defs() []metricDef {
	if rep.Trace {
		return perLayer
	}
	return endToEnd
}

// value is a metric's value with non-finite results (a ratio over no
// work) reported as 0.
func (rep *report) value(name string) float64 {
	v := rep.Metrics[name]
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// print writes one "workload metric value unit" line per metric, then the
// result as a JSON object on the last line.
func (rep *report) print(w io.Writer) {
	rep.printMetrics(w)
	fmt.Fprintf(w, "%s digest %s episodes %d latency_samples %d\n", rep.Workload, rep.Digest, rep.Episodes, rep.Samples)
	for _, v := range rep.Violations {
		fmt.Fprintf(w, "%s VIOLATION %s\n", rep.Workload, v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]value{}}
	for _, m := range rep.defs() {
		out.Metrics[m.Name] = value{rep.value(m.Name), m.Unit}
	}
	b, _ := json.Marshal(out) // finite floats, strings and bools: cannot fail
	fmt.Fprintln(w, string(b))
}

func (rep *report) printMetrics(w io.Writer) {
	for _, m := range rep.defs() {
		fmt.Fprintf(w, "%s %s %s %s\n", rep.Workload, m.Name, formatValue(rep.value(m.Name)), m.Unit)
	}
}

// hostInfo records where a result was measured.
type hostInfo struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"` // of the episodes
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
}

func currentHost() *hostInfo {
	commit := "unknown" // outside a git checkout
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &hostInfo{CPUs: runtime.NumCPU(), GOMAXPROCS: episodeProcs,
		GoVersion: runtime.Version(), Commit: commit, OS: runtime.GOOS, Arch: runtime.GOARCH}
}

// writeJSON writes the report and this host's description to path.
func (rep *report) writeJSON(path string) error {
	rep.Host = currentHost()
	return writeJSONFile(path, rep)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// addTraced adds a traced run's attribution and writes the per-layer
// table to dir: virtual self time per layer and connection, from the
// first traced episode, and CPU shares, from the untraced pass's profiles.
func (rep *report) addTraced(dir string, results []*episodeResult, profiles []string) error {
	for _, l := range selfLayers {
		rep.Metrics["self."+l.metric+"_us"] = 0
	}
	rep.Metrics["self.total_us"] = 0
	for _, r := range results {
		if r.Traced {
			for k, v := range r.Self {
				rep.Metrics[k] = v
			}
			break
		}
	}
	shares, err := cpuShares(profiles)
	if err != nil {
		return err
	}
	for _, pkg := range cpuPackages {
		rep.Metrics["cpu."+pkg+"_pct"] = shares[pkg]
	}
	f, err := os.Create(filepath.Join(dir, "layers.txt"))
	if err != nil {
		return err
	}
	rep.printMetrics(f)
	return f.Close()
}

// selfTimes attributes a traced episode's verb time to layers: virtual
// self time per layer and traced connection, from the program's own span
// recorder. With dir set it also writes the program's Chrome trace and
// the benchmark-side verb spans there.
func selfTimes(ep *episode, dir string) (map[string]float64, error) {
	self := map[string]float64{}
	if ep.rec == nil || ep.verbs.traced == 0 {
		return self, nil
	}
	n := float64(ep.verbs.traced)
	for _, b := range ep.rec.Attribute() {
		self["self.total_us"] += b.Total.Micros() / n
		for _, l := range selfLayers {
			self["self."+l.metric+"_us"] += b.Layer[l.layer].Micros() / n
		}
	}
	if dir == "" {
		return self, nil
	}
	f, err := os.Create(filepath.Join(dir, "trace.json"))
	if err != nil {
		return nil, err
	}
	if err := ep.rec.WriteChromeTrace(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	return self, writeJSONFile(filepath.Join(dir, "verb-spans.json"), ep.verbs.spans)
}

// cpuPackages are the buckets of the CPU profile: the simulator's layers,
// the benchmark itself, the Go runtime, and everything else.
var cpuPackages = []string{"simtime", "packet", "simnet", "rnic", "verbs", "virtio", "masq",
	"controller", "overlay", "oob", "hyper", "mem", "cluster", "apps", "trace", "benchmark",
	"runtime", "other"}

// cpuShares merges CPU profiles into each package's share of the flat
// samples, in percent, with `go tool pprof -top`, leaving out the
// reference loop's samples.
func cpuShares(profiles []string) (map[string]float64, error) {
	shares := map[string]float64{}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0", "-edgefraction=0",
		"-tagignore=" + refLabel + "=" + refLabel}, profiles...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	var total float64
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) == 5 && f[0] == "flat" { // the table's header
			inTable = true
			continue
		}
		if !inTable || len(f) < 6 {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if f[0] == "0" {
			flat, err = 0, nil
		}
		if err != nil {
			continue
		}
		shares[packageOf(strings.Join(f[5:], " "))] += flat.Seconds()
		total += flat.Seconds()
	}
	if total > 0 {
		for k := range shares {
			shares[k] *= 100 / total
		}
	}
	return shares, nil
}

// packageOf maps a profiled function name to its CPU bucket.
func packageOf(fn string) string {
	switch {
	case strings.HasPrefix(fn, "masq/internal/"):
		rest := strings.TrimPrefix(fn, "masq/internal/")
		pkg := rest[:strings.IndexAny(rest+".", "./")]
		for _, p := range cpuPackages {
			if p == pkg {
				return pkg
			}
		}
	case strings.HasPrefix(fn, "main."):
		return "benchmark"
	case strings.HasPrefix(fn, "runtime."), strings.HasPrefix(fn, "runtime/"):
		return "runtime"
	}
	return "other"
}
