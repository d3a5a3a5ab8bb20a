// Command masqbench regenerates the tables and figures of the MasQ paper's
// evaluation (and this repo's ablation studies) on the simulated testbed.
//
// Usage:
//
//	masqbench -list            # enumerate experiments
//	masqbench -run fig8a       # run one experiment
//	masqbench -run fig8a,fig10 # run several
//	masqbench -all             # run everything (slow)
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"masq/internal/bench"
)

func main() {
	list := flag.Bool("list", false, "list experiment ids and exit")
	run := flag.String("run", "", "comma-separated experiment ids to run")
	all := flag.Bool("all", false, "run every experiment")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to `file`")
	memprofile := flag.String("memprofile", "", "write an allocation profile to `file` at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects before the heap snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "masqbench: %v\n", err)
			}
		}()
	}

	switch {
	case *list:
		for _, e := range bench.All() {
			fmt.Printf("  %-16s %s\n", e.ID, e.Paper)
		}
	case *all:
		for _, e := range bench.All() {
			runOne(e)
		}
	case *run != "":
		for _, id := range strings.Split(*run, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Lookup(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "masqbench: unknown experiment %q (try -list)\n", id)
				os.Exit(1)
			}
			runOne(e)
		}
	default:
		flag.Usage()
		fmt.Fprintln(os.Stderr, "\nexperiments:")
		for _, e := range bench.All() {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", e.ID, e.Paper)
		}
		os.Exit(2)
	}
}

func runOne(e bench.Experiment) {
	start := time.Now()
	t := e.Run()
	t.Render(os.Stdout)
	fmt.Printf("  (%s completed in %.1fs wall time)\n\n", e.ID, time.Since(start).Seconds())
}
