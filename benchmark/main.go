// Command benchmark is the repository benchmark: four seeded full-stack
// workloads driven through the simulator's packages, each measured in
// virtual time (the modelled MasQ) and in wall time (the simulator on this
// host). README.md describes the workloads, metrics and bounds.
//
//	benchmark [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-scale F] [-json FILE]
//	benchmark compare BASE.json... -- NEW.json...
//
// With -workload, one workload runs, each of its episodes in a child
// process, and the last line of standard output is its JSON result.
// Without it, every workload runs in turn, each in its own child process.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var o runOpts
	var traced int
	var jsonOut string
	workload := fs.String("workload", "", "workload to run (empty: all, one child process each)")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall-clock budget of the measurement loop")
	fs.IntVar(&traced, "trace", 0, "1: traced run reporting the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiplier on every workload's size")
	fs.StringVar(&o.traceDir, "tracedir", ".bench_build/trace", "where a traced run writes its profile and tables")
	fs.StringVar(&jsonOut, "json", "", "also write the result and host info to this file")
	input := fs.Int("input", -1, "internal: run only input set N of the seed, as one episode, and print its result")
	cpuProfile := fs.String("cpuprofile", "", "internal: with -input, write a CPU profile of the episode here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	if o.scale <= 0 || o.seconds < 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -scale must be positive and -seconds non-negative")
		return 2
	}
	o.trace = traced == 1
	if *workload == "" {
		return runAll(o, jsonOut)
	}
	w, ok := workloadByName(*workload)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	if *input >= 0 {
		if err := episodeMain(w, o, *input, *cpuProfile, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s input set %d: %v\n", w.name, *input, err)
			return 1
		}
		return 0
	}
	rep, err := measure(w, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	rep.print(os.Stdout)
	if jsonOut != "" {
		if err := rep.writeJSON(jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	if !rep.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, one at a time, so
// each reports its own peak RSS and no workload's heap or GC state leaks
// into the next. Children get the same settings; with jsonOut, workload W
// writes jsonOut.W.json. The exit code is non-zero if any workload failed
// or produced a wrong output.
func runAll(o runOpts, jsonOut string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	traced := "0"
	if o.trace {
		traced = "1"
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", formatValue(o.seconds), "-trace", traced,
			"-scale", formatValue(o.scale), "-tracedir", o.traceDir}
		if jsonOut != "" {
			args = append(args, "-json", jsonOut+"."+w.name+".json")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s failed: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// formatValue prints a metric value with all its digits.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
