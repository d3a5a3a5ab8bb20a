package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

// compareMain compares two sets of runs written with -json:
//
//	benchmark compare BASE.json... -- NEW.json...
//
// For every workload and end-to-end metric it prints each side's median
// and quartiles, the change, the share of (base i, new i) pairs the new
// side wins, and a verdict. The exit code is 1 if any metric got worse.
func compareMain(args []string, w io.Writer) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE.json... -- NEW.json...")
		return 2
	}
	base, err := loadReports(args[:split])
	if err == nil {
		var cur map[string][]*report
		cur, err = loadReports(args[split+1:])
		if err == nil {
			return compareReports(w, base, cur)
		}
	}
	fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
	return 2
}

// loadReports reads reports written with -json (a file may also hold a
// JSON array of them, as benchmark/baseline.json does) and groups them
// by workload, in order: base run i pairs with new run i.
func loadReports(paths []string) (map[string][]*report, error) {
	out := map[string][]*report{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rs []*report
		if json.Unmarshal(b, &rs) != nil {
			var r report
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, fmt.Errorf("%s: %w", p, err)
			}
			rs = []*report{&r}
		}
		for _, r := range rs {
			if r.Trace {
				return nil, fmt.Errorf("%s: a traced run has no end-to-end metrics to compare", p)
			}
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, nil
}

// Verdicts, following the choosing-metrics rule for a small sandbox.
const (
	improved   = "improved"   // wins >= 9/10 of pairs and the medians differ by more than base's quartile spread
	worse      = "worse"      // the new median is worse than the base median by more than the bound
	unresolved = "unresolved" // base's spread exceeds the bound and new does not beat every base run
	unchanged  = "unchanged"
)

func compareReports(w io.Writer, base, cur map[string][]*report) int {
	var names []string
	for name := range base {
		if _, ok := cur[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	code := 0
	fmt.Fprintf(w, "%-10s %-15s %14s %27s %14s %27s %9s %6s %s\n",
		"workload", "metric", "base", "base q1..q3", "new", "new q1..q3", "change", "wins", "verdict")
	for _, name := range names {
		for _, m := range endToEnd {
			b, n := metricValues(base[name], m.Name), metricValues(cur[name], m.Name)
			v := verdict(m, b, n)
			if v.verdict == worse {
				code = 1
			}
			fmt.Fprintf(w, "%-10s %-15s %14.6g %13.6g..%-13.6g %14.6g %13.6g..%-13.6g %+8.2f%% %6.2f %s\n",
				name, m.Name, v.baseMed, v.baseQ1, v.baseQ3, v.newMed, v.newQ1, v.newQ3,
				100*(v.newMed/v.baseMed-1), v.winRate, v.verdict)
		}
	}
	return code
}

func metricValues(rs []*report, name string) []float64 {
	v := make([]float64, len(rs))
	for i, r := range rs {
		v[i] = r.Metrics[name]
	}
	return v
}

type comparison struct {
	baseMed, baseQ1, baseQ3 float64
	newMed, newQ1, newQ3    float64
	winRate                 float64
	verdict                 string
}

// verdict compares one metric's base and new runs under m's bound.
func verdict(m metricDef, b, n []float64) comparison {
	c := comparison{baseMed: median(b), newMed: median(n), verdict: unresolved}
	if len(b) < 2 || len(n) < 2 {
		return c
	}
	c.baseQ1, c.baseQ3 = quartiles(b)
	c.newQ1, c.newQ3 = quartiles(n)
	// better reports how much x beats y in m's direction (positive: better).
	better := func(x, y float64) float64 {
		if m.Better == "higher" {
			return x - y
		}
		return y - x
	}
	pairs := min(len(b), len(n))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(n[i], b[i]) > 0 {
			wins++
		}
	}
	c.winRate = float64(wins) / float64(pairs)
	gain := better(c.newMed, c.baseMed)
	beatsAll := true
	for _, x := range n {
		for _, y := range b {
			beatsAll = beatsAll && better(x, y) > 0
		}
	}
	switch {
	case c.winRate >= 0.9 && gain > c.baseQ3-c.baseQ1:
		c.verdict = improved
	case -gain > m.Bound*math.Abs(c.baseMed):
		c.verdict = worse
	case (c.baseQ3-c.baseQ1) > m.Bound*math.Abs(c.baseMed) && !beatsAll:
		c.verdict = unresolved
	default:
		c.verdict = unchanged
	}
	return c
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) does (its default, exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	q := func(i int) float64 {
		ld, m := len(s), len(s)+1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}
