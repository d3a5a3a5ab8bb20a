package perftest

import (
	"strings"
	"testing"

	"masq/internal/cluster"
	"masq/internal/simtime"
)

func pair(t *testing.T, mode cluster.Mode) *cluster.ConnectedPair {
	t.Helper()
	cp, err := cluster.NewConnectedPair(cluster.DefaultConfig(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

func TestSendLatHost2B(t *testing.T) {
	cp := pair(t, cluster.ModeHost)
	ev := StartSendLat(cp.TB.Eng, cp.Client, cp.Server, 2, 200)
	cp.TB.Eng.Run()
	r := ev.Value()
	if r.Iters != 200 {
		t.Fatalf("result = %+v", r)
	}
	// Fig. 8a: host 2 B send ≈ 0.8 µs one-way.
	if r.Avg < simtime.Us(0.6) || r.Avg > simtime.Us(1.0) {
		t.Fatalf("host send latency = %v, want ≈0.8µs", r.Avg)
	}
	if r.Min > r.Avg || r.Avg > r.Max {
		t.Fatalf("ordering: min=%v avg=%v max=%v", r.Min, r.Avg, r.Max)
	}
}

func TestSendLatMasQMatchesSRIOV(t *testing.T) {
	run := func(mode cluster.Mode) simtime.Duration {
		cp := pair(t, mode)
		ev := StartSendLat(cp.TB.Eng, cp.Client, cp.Server, 2, 100)
		cp.TB.Eng.Run()
		return ev.Value().Avg
	}
	mq := run(cluster.ModeMasQ)
	sr := run(cluster.ModeSRIOV)
	// Fig. 8a: MasQ == SR-IOV ≈ 1.1 µs.
	if mq < simtime.Us(0.9) || mq > simtime.Us(1.3) {
		t.Errorf("masq send latency = %v, want ≈1.1µs", mq)
	}
	ratio := float64(mq) / float64(sr)
	if ratio < 0.95 || ratio > 1.05 {
		t.Errorf("masq %v vs sriov %v", mq, sr)
	}
}

func TestWriteLatBelowSendLat(t *testing.T) {
	cp := pair(t, cluster.ModeHost)
	sendEv := StartSendLat(cp.TB.Eng, cp.Client, cp.Server, 2, 100)
	cp.TB.Eng.Run()
	cp2 := pair(t, cluster.ModeHost)
	writeEv := StartWriteLat(cp2.TB.Eng, cp2.Client, cp2.Server, 2, 100)
	cp2.TB.Eng.Run()
	send, write := sendEv.Value().Avg, writeEv.Value().Avg
	// Fig. 8a: write (0.7) is slightly cheaper than send (0.8).
	if write >= send {
		t.Fatalf("write latency %v should be below send latency %v", write, send)
	}
	if write < simtime.Us(0.5) || write > simtime.Us(0.9) {
		t.Fatalf("write latency = %v, want ≈0.7µs", write)
	}
}

// TestWriteLatFailedWriteEndsRun: at 40000 bytes the WRITE's staging area
// at Buf+size runs past the 64 KiB registered region, so the client's first
// WRITE completes in error. Both sides stop polling, and the result never
// triggers.
func TestWriteLatFailedWriteEndsRun(t *testing.T) {
	cp := pair(t, cluster.ModeMasQ)
	eng := cp.TB.Eng
	ev := StartWriteLat(eng, cp.Client, cp.Server, 40000, 10)
	eng.RunUntil(eng.Now().Add(simtime.Ms(1)))
	if ev.Triggered() {
		t.Fatalf("a run whose WRITE failed reported %+v", ev.Value())
	}
	for _, name := range eng.PendingProcs() {
		if strings.HasPrefix(name, "write_lat.") {
			t.Fatalf("%s still pending after the failed WRITE; pending: %v", name, eng.PendingProcs())
		}
	}
}

// TestSendLatFailedSendEndsRun: a 65537-byte SEND runs past the 64 KiB
// registered region, so the client's first SEND completes in error. The
// client moves the server's QP to ERROR, so the server, parked on its posted
// receive, returns too, and the result never triggers.
func TestSendLatFailedSendEndsRun(t *testing.T) {
	cp := pair(t, cluster.ModeMasQ)
	eng := cp.TB.Eng
	ev := StartSendLat(eng, cp.Client, cp.Server, 65537, 10)
	// Each side resets the other's QP, about half a millisecond apiece
	// through MasQ; both have returned 1.5 ms in.
	eng.RunUntil(eng.Now().Add(simtime.Ms(5)))
	if ev.Triggered() {
		t.Fatalf("a run whose SEND failed reported %+v", ev.Value())
	}
	for _, name := range eng.PendingProcs() {
		if strings.HasPrefix(name, "send_lat.") {
			t.Fatalf("%s still pending after the failed SEND; pending: %v", name, eng.PendingProcs())
		}
	}
}

func TestWriteBWLargeMessagesNearLineRate(t *testing.T) {
	cp := pair(t, cluster.ModeMasQ)
	ev := StartWriteBW(cp.TB.Eng, cp.Client, cp.Server, 32*1024, 400, 32)
	cp.TB.Eng.Run()
	g := ev.Value().Gbps()
	if g < 34 || g > 40 {
		t.Fatalf("32KB write bw = %.1f Gbps, want ≈37", g)
	}
}

func TestSendBWSmallMessagesMessageRateLimited(t *testing.T) {
	cp := pair(t, cluster.ModeHost)
	ev := StartSendBW(cp.TB.Eng, cp.Client, cp.Server, 2, 3000, 64)
	cp.TB.Eng.Run()
	r := ev.Value()
	// A single posting thread is application-limited: post_send (0.2 µs) +
	// poll (0.03 µs) per message ≈ 4.3 Mops. (The device's ~10 Mops
	// ceiling binds only with parallel posters, as in the KVS experiment.)
	if r.Mops() < 3.5 || r.Mops() > 5.5 {
		t.Fatalf("2B message rate = %.2f Mops, want ≈4.3", r.Mops())
	}
	if r.Gbps() > 1 {
		t.Fatalf("2B goodput = %.3f Gbps, should be tiny", r.Gbps())
	}
}

func TestFreeFlowThroughputCrippledAtSmallSizes(t *testing.T) {
	run := func(mode cluster.Mode, size int) float64 {
		cp := pair(t, mode)
		ev := StartSendBW(cp.TB.Eng, cp.Client, cp.Server, size, 800, 64)
		cp.TB.Eng.Run()
		return ev.Value().Gbps()
	}
	// Fig. 10: below ~8 KB FreeFlow trails MasQ badly; at 32 KB both reach
	// line rate.
	ffSmall, mqSmall := run(cluster.ModeFreeFlow, 512), run(cluster.ModeMasQ, 512)
	if ffSmall > mqSmall/2 {
		t.Errorf("512B: freeflow %.2f vs masq %.2f Gbps — expected ≥2x gap", ffSmall, mqSmall)
	}
	ffBig := run(cluster.ModeFreeFlow, 32*1024)
	if ffBig < 30 {
		t.Errorf("32KB freeflow = %.1f Gbps, should approach line rate", ffBig)
	}
}

func TestTimedWriteBW(t *testing.T) {
	cp := pair(t, cluster.ModeMasQ)
	ev := StartTimedWriteBW(cp.TB.Eng, cp.Client, cp.Server, 64*1024, simtime.Ms(10))
	cp.TB.Eng.Run()
	r := ev.Value()
	if r.Gbps() < 34 {
		t.Fatalf("timed bw = %.1f Gbps", r.Gbps())
	}
	if r.Elapsed < simtime.Ms(9) {
		t.Fatalf("elapsed = %v, want ≈10ms", r.Elapsed)
	}
}

func TestMultiQPFairAggregate(t *testing.T) {
	cp := pair(t, cluster.ModeMasQ)
	c2, s2, err := cp.ConnectExtraQP(cluster.DefaultEndpointOpts(), 7100)
	if err != nil {
		t.Fatal(err)
	}
	ev1 := StartTimedWriteBW(cp.TB.Eng, cp.Client, cp.Server, 64*1024, simtime.Ms(10))
	ev2 := StartTimedWriteBW(cp.TB.Eng, c2, s2, 64*1024, simtime.Ms(10))
	cp.TB.Eng.Run()
	g1, g2 := ev1.Value().Gbps(), ev2.Value().Gbps()
	total := g1 + g2
	if total < 33 || total > 40 {
		t.Fatalf("aggregate = %.1f Gbps", total)
	}
	if g1/g2 > 1.3 || g2/g1 > 1.3 {
		t.Fatalf("unfair split: %.1f / %.1f", g1, g2)
	}
}

func TestThroughputResultZero(t *testing.T) {
	var r ThroughputResult
	if r.Gbps() != 0 || r.Mops() != 0 {
		t.Fatal("zero result must not divide by zero")
	}
}

func TestSummarizePercentiles(t *testing.T) {
	samples := make([]simtime.Duration, 100)
	for i := range samples {
		samples[i] = simtime.Duration(i + 1)
	}
	r := summarize(samples)
	if r.Min != 1 || r.Max != 100 || r.P50 != 51 || r.P99 != 100 {
		t.Fatalf("summary = %+v", r)
	}
	if r.Avg != 50 { // (1+...+100)/100 = 50.5 → integer division
		t.Fatalf("avg = %v", r.Avg)
	}
}
