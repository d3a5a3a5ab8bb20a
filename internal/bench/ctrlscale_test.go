package bench

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// ctrlScaleDigest renders every virtual-time metric of a storm (wall
// seconds excluded).
func ctrlScaleDigest(p CtrlScalePoint) string {
	return fmt.Sprintf("%d/%v p50=%.3f p99=%.3f wave=%.4f hwm=%d retries=%d fenced=%d events=%d",
		p.Shards, p.Failover, p.ResolveP50Us, p.ResolveP99Us, p.RenewWaveMs,
		p.MaxQueueHWM, p.Retries, p.FencedWrites, p.Events)
}

// TestCtrlScaleSmoke is the CI regression guard on the controller-scale
// curve at a reduced scale: sharding must improve both the setup-path tail
// latency and the renewal-wave completion time, and the workload must be a
// pure function of its parameters.
func TestCtrlScaleSmoke(t *testing.T) {
	const hosts, vms, resolves = 100, 10, 10
	one := runCtrlScale(hosts, vms, resolves, 1, false)
	four := runCtrlScale(hosts, vms, resolves, 4, false)
	if one.Retries != 0 || four.Retries != 0 || one.FencedWrites != 0 || four.FencedWrites != 0 {
		t.Fatalf("healthy runs saw retries/fences: 1-shard %+v, 4-shard %+v", one, four)
	}
	if four.ResolveP99Us >= one.ResolveP99Us {
		t.Fatalf("sharding did not improve resolve p99: 1 shard %.1fµs vs 4 shards %.1fµs",
			one.ResolveP99Us, four.ResolveP99Us)
	}
	if four.RenewWaveMs >= one.RenewWaveMs {
		t.Fatalf("sharding did not improve the renewal wave: 1 shard %.2fms vs 4 shards %.2fms",
			one.RenewWaveMs, four.RenewWaveMs)
	}
	if one.MaxQueueHWM == 0 {
		t.Fatal("the 1-shard storm produced no queueing — the workload is too light to measure")
	}

	// Determinism: every virtual-time metric is a pure function of the
	// parameters.
	if a, b := ctrlScaleDigest(four), ctrlScaleDigest(runCtrlScale(hosts, vms, resolves, 4, false)); a != b {
		t.Fatalf("same-parameter runs diverged:\nA: %s\nB: %s", a, b)
	}
}

// TestCtrlScaleMidStormFailover: crashing shard 0's primary 200µs into the
// renewal wave must not lose the storm — batches retry through the dark
// window and across the fencing generation, the standby promotes, and the
// wave completes on the promoted incarnation.
func TestCtrlScaleMidStormFailover(t *testing.T) {
	// Big enough that the per-shard serialization queue (~hosts×vms/2 µs)
	// outlives the 2.2 ms promotion instant: batches queued behind the
	// crash straddle the fencing generation and must retry.
	const hosts, vms, resolves = 300, 20, 5
	pt := runCtrlScale(hosts, vms, resolves, 2, true)
	if pt.Retries == 0 {
		t.Fatal("no renewal batch retried through the failover window")
	}
	if pt.FencedWrites == 0 {
		t.Fatal("the promotion fenced nothing — the replication log was implausibly drained")
	}
	if pt.RenewWaveMs <= 0 {
		t.Fatal("the renewal wave never completed")
	}
	clean := runCtrlScale(hosts, vms, resolves, 2, false)
	if pt.RenewWaveMs <= clean.RenewWaveMs {
		t.Fatalf("mid-storm failover wave (%.2fms) not slower than clean wave (%.2fms)",
			pt.RenewWaveMs, clean.RenewWaveMs)
	}
	// Determinism of the failover arm too.
	again := runCtrlScale(hosts, vms, resolves, 2, true)
	if pt.Events != again.Events || pt.Retries != again.Retries || pt.FencedWrites != again.FencedWrites {
		t.Fatalf("same-parameter failover runs diverged: %+v vs %+v", pt, again)
	}
}

// TestCtrlScaleFrozenDigests pins the storms of the two tests above to
// testdata/ctrl_scale.digest byte for byte: TestCtrlScaleSmoke's 1- and
// 4-shard storms and TestCtrlScaleMidStormFailover's failover storm. The
// failover line covers the standby's log pump and its fencing at
// promotion, so a change to the service queue or the replica that moves
// any event shows up here.
func TestCtrlScaleFrozenDigests(t *testing.T) {
	want, err := os.ReadFile("testdata/ctrl_scale.digest")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, pt := range []CtrlScalePoint{
		runCtrlScale(100, 10, 10, 1, false),
		runCtrlScale(100, 10, 10, 4, false),
		runCtrlScale(300, 20, 5, 2, true),
	} {
		fmt.Fprintln(&got, ctrlScaleDigest(pt))
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("storms diverge from testdata/ctrl_scale.digest:\n--- want ---\n%s--- got ---\n%s", want, got.Bytes())
	}
}
