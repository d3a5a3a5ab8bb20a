package simtime

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// ringLogs runs the reference sharded workload — hosts on a bidirectional
// ring exchanging tokens every period, plus a local tick per host — and
// returns one log per host. The wiring order, send order, and log format
// are independent of the shard count, so logs must be byte-identical for
// any shards value; TestShardedDeterminismAB pins that.
func ringLogs(shards, hosts int, until Time) []string {
	const (
		lat    = Duration(2000) // cross-shard link latency = lookahead
		period = Duration(700)
		tick   = Duration(300)
	)
	se := NewSharded(shards)
	logs := make([]*strings.Builder, hosts)
	for i := range logs {
		logs[i] = &strings.Builder{}
	}
	// Wire right- then left-neighbor exchanges per host, in host order, so
	// exchange IDs do not depend on the shard count.
	exR := make([]*Exchange, hosts)
	exL := make([]*Exchange, hosts)
	shardOf := func(host int) int { return host % shards }
	for i := 0; i < hosts; i++ {
		exR[i] = se.NewExchange(shardOf(i), shardOf((i+1)%hosts), lat)
		exL[i] = se.NewExchange(shardOf(i), shardOf((i+hosts-1)%hosts), lat)
	}
	for i := 0; i < hosts; i++ {
		i := i
		eng := se.Shard(shardOf(i))
		right, left := (i+1)%hosts, (i+hosts-1)%hosts
		eng.Spawn(fmt.Sprintf("sender-%d", i), func(p *Proc) {
			for k := 0; ; k++ {
				p.Sleep(period)
				at := p.Now().Add(lat)
				k := k
				exR[i].Send(at, func() {
					fmt.Fprintf(logs[right], "%d recv host=%d from=%d dir=R k=%d\n",
						se.Shard(shardOf(right)).Now(), right, i, k)
				})
				exL[i].Send(at, func() {
					fmt.Fprintf(logs[left], "%d recv host=%d from=%d dir=L k=%d\n",
						se.Shard(shardOf(left)).Now(), left, i, k)
				})
			}
		})
		eng.Spawn(fmt.Sprintf("ticker-%d", i), func(p *Proc) {
			for n := 0; ; n++ {
				p.Sleep(tick)
				fmt.Fprintf(logs[i], "%d tick host=%d n=%d\n", p.Now(), i, n)
			}
		})
	}
	se.RunUntil(until)
	out := make([]string, hosts)
	for i, b := range logs {
		out[i] = b.String()
	}
	return out
}

// TestShardedDeterminismAB is the core guarantee of the refactor: the
// same workload on 1 (oracle), 2, 3, and 4 shards yields byte-identical
// per-host logs. Every host's neighbors tick at the same instants, so
// same-time deliveries from distinct exchanges collide constantly and the
// (time, exchange, seq) ordering key is exercised hard.
func TestShardedDeterminismAB(t *testing.T) {
	const hosts = 8
	oracle := ringLogs(1, hosts, 100_000)
	for _, shards := range []int{2, 3, 4} {
		got := ringLogs(shards, hosts, 100_000)
		for i := range oracle {
			if got[i] != oracle[i] {
				t.Fatalf("host %d log diverges between 1 and %d shards:\noracle:\n%s\ngot:\n%s",
					i, shards, oracle[i], got[i])
			}
		}
	}
	if oracle[0] == "" {
		t.Fatal("workload produced no log output; test is vacuous")
	}
}

// TestShardedMatchesSingleEngineTotals: a sharded run dispatches the same
// event count and ends at the same virtual time regardless of shard count.
func TestShardedMatchesSingleEngineTotals(t *testing.T) {
	run := func(shards int) (Time, uint64) {
		se := NewSharded(shards)
		x01 := se.NewExchange(0, shards/2, 1000)
		x10 := se.NewExchange(shards/2, 0, 1000)
		var ping func()
		var pong func()
		n := 0
		ping = func() {
			if n++; n > 50 {
				return
			}
			x01.Send(se.Shard(0).Now().Add(1000), pong)
		}
		pong = func() {
			x10.Send(se.Shard(shards/2).Now().Add(1500), ping)
		}
		se.Shard(0).At(0, ping)
		end := se.Run()
		return end, se.Events()
	}
	t1, n1 := run(1)
	t4, n4 := run(4)
	if t1 != t4 || n1 != n4 {
		t.Fatalf("1-shard run (end=%v events=%d) != 4-shard run (end=%v events=%d)", t1, n1, t4, n4)
	}
	if n1 == 0 {
		t.Fatal("no events dispatched")
	}
}

// TestExchangeOrderingKey: same-instant messages are applied in exchange-
// ID order, then per-exchange send order — regardless of the order the
// Sends were issued in.
func TestExchangeOrderingKey(t *testing.T) {
	se := NewSharded(1)
	exA := se.NewExchange(0, 0, 1000)
	exB := se.NewExchange(0, 0, 1000)
	var got []string
	log := func(s string) func() { return func() { got = append(got, s) } }
	// Issue sends in an order scrambled relative to the ordering key.
	exB.Send(5000, log("B1"))
	exA.Send(5000, log("A1"))
	exB.Send(5000, log("B2"))
	exA.Send(5000, log("A2"))
	se.Run()
	want := "A1,A2,B1,B2"
	if s := strings.Join(got, ","); s != want {
		t.Fatalf("same-instant cross-shard order = %s, want %s", s, want)
	}
}

// TestExchangePreRunSendsSurvive: messages staged before RunUntil (during
// topology setup) are collected and delivered even when no shard heap has
// any event yet.
func TestExchangePreRunSendsSurvive(t *testing.T) {
	se := NewSharded(2)
	x := se.NewExchange(0, 1, 500)
	fired := false
	x.Send(500, func() { fired = true })
	end := se.Run()
	if !fired {
		t.Fatal("pre-run staged message never delivered")
	}
	if end != 500 {
		t.Fatalf("end = %v, want 500", end)
	}
}

// TestExchangeLookaheadViolationPanics: a send closer than the global
// lookahead is a causality bug and must panic, not silently reorder.
func TestExchangeLookaheadViolationPanics(t *testing.T) {
	se := NewSharded(1)
	x := se.NewExchange(0, 0, 1000)
	se.Shard(0).At(500, func() {
		x.Send(1400, func() {}) // 1400 < 500+1000
	})
	defer func() {
		if recover() == nil {
			t.Fatal("lookahead-violating Send did not panic")
		}
	}()
	se.Run()
}

// TestExchangeLatencyValidation: zero/negative latency and out-of-range
// shard indices are rejected at wiring time.
func TestExchangeLatencyValidation(t *testing.T) {
	se := NewSharded(2)
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("zero latency", func() { se.NewExchange(0, 1, 0) })
	mustPanic("negative latency", func() { se.NewExchange(0, 1, -5) })
	mustPanic("src out of range", func() { se.NewExchange(2, 0, 10) })
	mustPanic("dst out of range", func() { se.NewExchange(0, -1, 10) })
}

// TestRunAfterStopResumes is the regression test for the Run-after-Stop
// bug: RunUntil never cleared `stopped`, so a stopped engine could never
// run again. The contract is now: Stop halts the current run; the next
// Run/RunUntil clears the flag and resumes from the still-queued events.
func TestRunAfterStopResumes(t *testing.T) {
	e := NewEngine()
	var fired []Time
	e.At(10, func() { fired = append(fired, 10); e.Stop() })
	e.At(20, func() { fired = append(fired, 20) })
	if end := e.RunUntil(100); end != 10 {
		t.Fatalf("first run ended at %v, want 10 (Stop)", end)
	}
	if !e.stopped {
		t.Fatal("engine not stopped after Stop")
	}
	if end := e.RunUntil(100); end != 20 {
		t.Fatalf("resumed run ended at %v, want 20 (queue drained)", end)
	}
	if e.stopped {
		t.Fatal("resumed run left the engine stopped")
	}
	if len(fired) != 2 || fired[1] != 20 {
		t.Fatalf("events fired = %v, want [10 20]", fired)
	}
}

// TestShardedRunAfterStopResumes: same resume contract for the sharded
// engine — a shard-local Stop ends the run at the barrier, and the next
// RunUntil picks up the remaining events and staged messages.
func TestShardedRunAfterStopResumes(t *testing.T) {
	se := NewSharded(2)
	x := se.NewExchange(0, 1, 1000)
	var fired []string
	se.Shard(0).At(10, func() {
		x.Send(1010, func() { fired = append(fired, "cross") })
		se.Shard(0).Stop()
	})
	se.Shard(1).At(2000, func() { fired = append(fired, "late") })
	se.RunUntil(10_000)
	if !se.anyStopped() {
		t.Fatal("sharded engine not stopped")
	}
	if len(fired) != 0 {
		t.Fatalf("events fired during stopped run: %v", fired)
	}
	end := se.RunUntil(10_000)
	if end != 2000 {
		t.Fatalf("resumed run ended at %v, want 2000 (queue drained)", end)
	}
	if want := []string{"cross", "late"}; len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("events fired = %v, want %v", fired, want)
	}
}

// TestTimerRearmWhilePendingPanics pins the double-schedule contract:
// arming a Timer that is already Pending panics (the intrusive event is
// single-slot; silent re-arm would drop one of the two deadlines).
func TestTimerRearmWhilePendingPanics(t *testing.T) {
	e := NewEngine()
	tm := e.NewTimer(func() {})
	tm.ScheduleAt(100)
	if !tm.Pending() {
		t.Fatal("timer not pending after ScheduleAt")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-arming a pending timer did not panic")
		}
	}()
	tm.ScheduleAt(200)
}

// TestTimerScheduleAtPastClampsToNow: arming a timer in the virtual past
// fires it at the current instant rather than rewinding the clock.
func TestTimerScheduleAtPastClampsToNow(t *testing.T) {
	e := NewEngine()
	var firedAt Time
	var tm *Timer
	tm = e.NewTimer(func() { firedAt = e.Now() })
	e.At(500, func() { tm.ScheduleAt(100) })
	e.Run()
	if firedAt != 500 {
		t.Fatalf("past-scheduled timer fired at %v, want clamp to 500", firedAt)
	}
	if e.Now() != 500 {
		t.Fatalf("clock at %v after run, want 500", e.Now())
	}
}

// TestPendingProcsAcrossShards: the sharded engine reports unfinished
// processes from every shard, sorted, for deadlock diagnosis.
func TestPendingProcsAcrossShards(t *testing.T) {
	se := NewSharded(3)
	se.NewExchange(0, 1, 1000) // give the run a finite lookahead
	for i, name := range []string{"zeta", "alpha", "mid"} {
		q := NewQueue[int](se.Shard(i))
		se.Shard(i).Spawn(name, func(p *Proc) {
			q.Get(p) // blocks forever
		})
	}
	se.RunUntil(5000)
	got := se.PendingProcs()
	want := []string{"alpha", "mid", "zeta"}
	if len(got) != len(want) {
		t.Fatalf("PendingProcs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PendingProcs = %v, want %v (sorted across shards)", got, want)
		}
	}
}

// TestShardedDeadlineSettlesClocks: cutting a run at the deadline leaves
// every shard clock on the deadline, mirroring Engine.RunUntil.
func TestShardedDeadlineSettlesClocks(t *testing.T) {
	se := NewSharded(2)
	se.NewExchange(0, 1, 1000)
	se.Shard(0).At(100, func() {})
	se.Shard(1).At(9000, func() {}) // beyond the deadline
	if end := se.RunUntil(5000); end != 5000 {
		t.Fatalf("RunUntil = %v, want 5000", end)
	}
	for i := 0; i < 2; i++ {
		if now := se.Shard(i).Now(); now != 5000 {
			t.Fatalf("shard %d clock = %v after deadline cut, want 5000", i, now)
		}
	}
	// The event beyond the deadline survives for the next run.
	if end := se.Run(); end != 9000 {
		t.Fatalf("follow-up Run = %v, want 9000", end)
	}
}

// TestShardedSelfWakeOnHorizon: a process whose own next wake lands
// exactly on the window horizon hands the baton back at the barrier rather
// than running on into the next window ahead of that window's cross-shard
// deliveries. Both processes here wake on every horizon; the one-shard and
// two-shard runs must log the same trace, in time order.
func TestShardedSelfWakeOnHorizon(t *testing.T) {
	const lat = Duration(100) // the lookahead: window horizons fall on multiples of it
	run := func(shards int) [2]string {
		se := NewSharded(shards)
		ab := se.NewExchange(0, shards-1, lat)
		a, b := se.Shard(0), se.Shard(shards-1)
		var logs [2]strings.Builder
		a.Spawn("a", func(p *Proc) {
			for k := 0; k < 5; k++ {
				p.Sleep(lat)
				fmt.Fprintf(&logs[0], "%d a k=%d\n", p.Now(), k)
				ab.Send(p.Now().Add(lat), func() {
					fmt.Fprintf(&logs[1], "%d b recv k=%d\n", b.Now(), k)
				})
			}
		})
		b.Spawn("b", func(p *Proc) {
			for k := 0; k < 13; k++ {
				p.Sleep(lat / 2)
				fmt.Fprintf(&logs[1], "%d b tick=%d\n", p.Now(), k)
			}
		})
		se.Run()
		return [2]string{logs[0].String(), logs[1].String()}
	}
	oracle := run(1)
	if got := run(2); got != oracle {
		t.Fatalf("2-shard trace diverges from the 1-shard oracle:\noracle:\n%s%s\ngot:\n%s%s",
			oracle[0], oracle[1], got[0], got[1])
	}
	for _, log := range oracle {
		var prev int64
		for _, line := range strings.Split(strings.TrimSpace(log), "\n") {
			var at int64
			fmt.Sscan(line, &at)
			if at < prev {
				t.Fatalf("trace runs backwards at %q:\n%s", line, log)
			}
			prev = at
		}
	}
	if !strings.Contains(oracle[1], "600 b recv k=4\n") {
		t.Fatalf("last delivery missing from the trace:\n%s", oracle[1])
	}
}

// TestShardWorkerGoexitStopsRun: a callback on shard 1 that runs while no
// process holds the baton runs on the shard's window worker. A Goexit
// there stops the run instead of hanging the barrier, and the next run
// resumes the shard's remaining events on a fresh worker.
func TestShardWorkerGoexitStopsRun(t *testing.T) {
	se := NewSharded(2)
	se.NewExchange(0, 1, 10)
	ran := false
	se.Shard(1).At(5, func() { runtime.Goexit() })
	se.Shard(1).At(8, func() { ran = true })
	if end := se.Run(); end != 5 || ran {
		t.Fatalf("Run = %v (later callback ran: %v), want 5 and stopped at the Goexit", end, ran)
	}
	if end := se.Run(); end != 8 || !ran {
		t.Fatalf("second Run = %v (later callback ran: %v), want 8 and the callback run", end, ran)
	}
}
