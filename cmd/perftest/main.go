// Command perftest is the simulation's ib_send_lat / ib_write_lat /
// ib_send_bw / ib_write_bw: it builds a two-host testbed, connects a QP
// pair under the chosen virtualization system, and runs the selected
// microbenchmark.
//
//	perftest -op send_lat -mode masq -size 2 -iters 1000
//	perftest -op write_bw -mode host-rdma -size 65536 -iters 2000
package main

import (
	"flag"
	"fmt"
	"os"

	"masq"
)

var modes = map[string]masq.Mode{
	"host-rdma": masq.ModeHost,
	"sr-iov":    masq.ModeSRIOV,
	"masq":      masq.ModeMasQ,
	"masq-pf":   masq.ModeMasQPF,
	"freeflow":  masq.ModeFreeFlow,
}

func main() {
	op := flag.String("op", "send_lat", "send_lat | write_lat | send_bw | write_bw")
	modeName := flag.String("mode", "masq", "host-rdma | sr-iov | masq | masq-pf | freeflow")
	size := flag.Int("size", 2, "message size in bytes")
	iters := flag.Int("iters", 1000, "iterations")
	window := flag.Int("window", 64, "posting window (bandwidth tests)")
	rate := flag.Float64("rate", 0, "tenant rate limit in Gbps (masq only; 0 = none)")
	pcap := flag.String("pcap", "", "capture the underlay traffic to this pcap file")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the control path to this file")
	flag.Parse()

	minSize := 0
	if *op == "write_lat" {
		minSize = 1 // the peer polls the last byte of each WRITE
	}
	switch {
	case *iters < 1:
		fail(2, "-iters must be at least 1, got %d", *iters)
	case *size < minSize:
		fail(2, "-size must be at least %d for %s, got %d", minSize, *op, *size)
	case *window < 1:
		fail(2, "-window must be at least 1, got %d", *window)
	}
	mode, ok := modes[*modeName]
	if !ok {
		fail(1, "unknown mode %q", *modeName)
	}
	cfg := masq.DefaultConfig()
	cfg.Trace = *traceOut != ""
	pair, err := masq.NewConnectedPair(cfg, mode)
	if err != nil {
		fail(1, "%v", err)
	}
	if *rate > 0 {
		if mode != masq.ModeMasQ {
			fail(1, "-rate applies to masq mode only")
		}
		if err := pair.TB.Backend(0).SetTenantRateLimit(100, *rate*1e9); err != nil {
			fail(1, "%v", err)
		}
	}
	eng := pair.TB.Eng
	var tap *masq.LinkTap
	if *pcap != "" {
		tap = pair.TB.Links[0].AttachTap()
	}

	fmt.Printf("# %s, %s, %d B x %d iters\n", *op, *modeName, *size, *iters)
	fmt.Printf("# client VM %v -> server VM %v over hosts %v -> %v\n",
		pair.ClientNode.VIP, pair.ServerNode.VIP, pair.TB.Hosts[0].IP, pair.TB.Hosts[1].IP)

	switch *op {
	case "send_lat", "write_lat":
		start := masq.StartSendLat
		if *op == "write_lat" {
			start = masq.StartWriteLat
		}
		ev := start(eng, pair.Client, pair.Server, *size, *iters)
		eng.Run()
		if !ev.Triggered() {
			fail(1, "run did not complete")
		}
		r := ev.Value()
		fmt.Printf("%-10s %-8s %-8s %-8s %-8s\n", "iters", "min", "avg", "p99", "max")
		fmt.Printf("%-10d %-8v %-8v %-8v %-8v\n", r.Iters, r.Min, r.Avg, r.P99, r.Max)
	case "send_bw", "write_bw":
		start := masq.StartSendBW
		if *op == "write_bw" {
			start = masq.StartWriteBW
		}
		ev := start(eng, pair.Client, pair.Server, *size, *iters, *window)
		eng.Run()
		if !ev.Triggered() {
			fail(1, "run did not complete")
		}
		r := ev.Value()
		fmt.Printf("%-10s %-12s %-12s %-10s\n", "msgs", "bytes", "Gbps", "Mops")
		fmt.Printf("%-10d %-12d %-12.2f %-10.3f\n", r.Msgs, r.Bytes, r.Gbps(), r.Mops())
	default:
		fail(1, "unknown op %q", *op)
	}

	if tap != nil {
		f, err := os.Create(*pcap)
		if err != nil {
			fail(1, "%v", err)
		}
		defer f.Close()
		if err := masq.WriteTapPcap(f, tap); err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("# captured %d frames to %s (wireshark-readable)\n", len(tap.Frames()), *pcap)
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail(1, "%v", err)
		}
		defer f.Close()
		if err := pair.TB.Trace.WriteChromeTrace(f); err != nil {
			fail(1, "%v", err)
		}
		fmt.Printf("# wrote %d trace events to %s (load in chrome://tracing or ui.perfetto.dev)\n",
			pair.TB.Trace.Events(), *traceOut)
	}
}

// fail prints a perftest error and exits with status: 2 for a bad flag
// value, as the flag package does, and 1 for anything else.
func fail(status int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perftest: "+format+"\n", args...)
	os.Exit(status)
}
