package main

import (
	"fmt"
	"math/rand"
	"slices"

	"masq/internal/controller"
	"masq/internal/packet"
	"masq/internal/simtime"
)

// Ctrl-storm workload at scale 1: the sharded controller driven directly
// by many hosts' backends, as in abl-ctrl-scale.
const (
	csHosts       = 300 // past ~500 the waves overlap and an episode outgrows its time budget
	csVMs         = 100 // registrations per host
	csShards      = 4
	csWaves       = 3
	csWaveGap     = 20 * simtime.Millisecond
	csJitter      = 100 * simtime.Microsecond // renewal start spread within a wave
	csFloodWindow = 2 * simtime.Millisecond   // resolves are due within this of a wave's start
	csResolves    = 20                        // per host per wave, on average
	csMovePct     = 1                         // % of keys re-registered to a new host per wave
	csVNI         = 42
)

// csResolve is one generated resolve: its due time and target key.
type csResolve struct {
	due simtime.Duration // offset from the wave's start
	key controller.Key
}

// csInput is the generated storm. Keys are (host, vm) pairs registered to
// their host at set-up; each wave re-registers csMovePct of them to a new
// host, whose renewal batch then carries the new mapping.
type csInput struct {
	hosts    int
	jitter   [][]simtime.Duration                    // [wave][host] renewal start offset
	renew    [][][][]controller.RenewReq             // [wave][host][shard] renewal batch
	resolves [][][]csResolve                         // [wave][host], in due order
	held     map[controller.Key][]controller.Mapping // every mapping a key has had
	final    map[controller.Key]controller.Mapping   // the registrations after the last wave
}

func newCtrlStorm(seed int64, scale float64) func(episodeOpts) (*episode, error) {
	rng := rand.New(rand.NewSource(seed))
	in := &csInput{hosts: scaled(csHosts, scale), held: map[controller.Key][]controller.Mapping{}}
	sm := controller.NewShardMap(csShards)
	keys := in.hosts * csVMs
	owner := make([]int, keys) // key index h*csVMs+v → host it is registered to
	for k := range owner {
		owner[k] = k / csVMs
		in.held[csKey(k)] = []controller.Mapping{csMapping(owner[k])}
	}
	for w := 0; w < csWaves; w++ {
		jit := make([]simtime.Duration, in.hosts)
		for h := range jit {
			jit[h] = simtime.Duration(rng.Int63n(int64(csJitter)))
		}
		in.jitter = append(in.jitter, jit)
		for _, k := range rng.Perm(keys)[:keys*csMovePct/100] {
			owner[k] = rng.Intn(in.hosts)
			in.held[csKey(k)] = append(in.held[csKey(k)], csMapping(owner[k]))
		}
		renew := make([][][]controller.RenewReq, in.hosts)
		for h := range renew {
			renew[h] = make([][]controller.RenewReq, csShards)
		}
		for k, o := range owner {
			key := csKey(k)
			sh := sm.Owner(key)
			renew[o][sh] = append(renew[o][sh], controller.RenewReq{K: key, M: csMapping(o)})
		}
		in.renew = append(in.renew, renew)
		res := make([][]csResolve, in.hosts)
		for h := range res {
			dues := make([]int64, csResolves/2+rng.Intn(csResolves+1))
			for i := range dues {
				dues[i] = rng.Int63n(int64(csFloodWindow))
			}
			slices.Sort(dues)
			for _, d := range dues {
				res[h] = append(res[h], csResolve{due: simtime.Duration(d), key: csKey(rng.Intn(keys))})
			}
		}
		in.resolves = append(in.resolves, res)
	}
	in.final = map[controller.Key]controller.Mapping{}
	for k, o := range owner {
		in.final[csKey(k)] = csMapping(o)
	}
	return func(o episodeOpts) (*episode, error) { return runCtrlStorm(in, o) }
}

// csKey is key index k: VM k%csVMs of host k/csVMs.
func csKey(k int) controller.Key {
	h, v := k/csVMs, k%csVMs
	return controller.Key{VNI: csVNI, VGID: packet.GIDFromIP(packet.NewIP(10, byte(h>>8), byte(h), byte(v)))}
}

func csMapping(h int) controller.Mapping {
	ip := packet.NewIP(172, 16, byte(h>>8), byte(h))
	return controller.Mapping{PGID: packet.GIDFromIP(ip), PIP: ip}
}

// runCtrlStorm is one episode: register every host's VMs (set-up), then
// run the renewal waves, 20 ms apart, with the resolve flood racing each
// (timed).
func runCtrlStorm(in *csInput, o episodeOpts) (*episode, error) {
	ep := newEpisode(o)
	eng := simtime.NewEngine()
	p := controller.DefaultParams()
	p.LeaseTTL = simtime.Ms(10_000) // nothing expires during the run
	p.Replicate = true
	p.ReplDelay = simtime.Us(20)
	s := controller.NewSharded([]*simtime.Engine{eng}, p, csShards)
	for k := 0; k < in.hosts*csVMs; k++ {
		s.Register(csKey(k), csMapping(k/csVMs))
	}

	counters := func() map[string]float64 {
		m := map[string]float64{}
		addShardedStats(m, s)
		return m
	}
	ep.beginTimed(eng.Events(), counters())
	t0 := eng.Now()
	var waveLen []simtime.Duration
	retries, bad := 0, 0
	for w := 0; w < csWaves; w++ {
		w, start := w, t0.Add(simtime.Duration(w)*csWaveGap)
		pending := in.hosts
		for h := 0; h < in.hosts; h++ {
			h := h
			eng.At(start.Add(in.jitter[w][h]), func() {
				eng.Spawn(fmt.Sprintf("renew-%d-%d", w, h), func(pr *simtime.Proc) {
					for sh, batch := range in.renew[w][h] {
						if len(batch) == 0 {
							continue
						}
						ep.Ops++
						for {
							if _, _, err := s.BatchLookupShard(pr, sh, nil, batch); err == nil {
								break
							}
							retries++
							pr.Sleep(simtime.Us(500))
						}
					}
					if pending--; pending == 0 {
						waveLen = append(waveLen, pr.Now().Sub(start))
					}
				})
			})
			eng.At(start, func() {
				eng.Spawn(fmt.Sprintf("flood-%d-%d", w, h), func(pr *simtime.Proc) {
					for _, r := range in.resolves[w][h] {
						due := start.Add(r.due)
						if wait := due.Sub(pr.Now()); wait > 0 {
							pr.Sleep(wait)
						}
						ep.Ops++
						m, ok, _, err := s.Resolve(pr, r.key)
						ep.Lat = append(ep.Lat, pr.Now().Sub(due))
						if err != nil || !ok || !slices.Contains(in.held[r.key], m) {
							bad++
						}
					}
				})
			})
		}
	}
	ep.run(eng)
	ep.Span = eng.Now().Sub(t0)
	m := counters()
	m["ctrl.client_retries"] = float64(retries)
	ep.endTimed(eng.Events(), m)
	ep.Failed = bad
	ep.check(bad == 0, "ctrl-storm: %d resolves failed or returned a mapping the key never held", bad)
	ep.check(len(waveLen) == csWaves, "ctrl-storm: %d of %d renewal waves completed", len(waveLen), csWaves)
	ms := make([]float64, len(waveLen))
	for i, d := range waveLen {
		ms[i] = d.Millis()
	}
	ep.Layers["ctrl.wave_ms"] = median(ms)

	// Every shard's table must hold exactly the final registrations.
	for i := 0; i < csShards; i++ {
		got := s.Primary(i).Dump(csVNI)
		n := 0
		for k, m := range in.final {
			if s.Owner(k) != i {
				continue
			}
			n++
			ep.check(got[k] == m, "ctrl-storm: shard %d maps %v to %v, want %v", i, k.VGID, got[k].PIP, m.PIP)
		}
		ep.check(len(got) == n, "ctrl-storm: shard %d holds %d mappings, want %d", i, len(got), n)
		ep.state = append(ep.state, fmt.Sprint("shard ", i, " size ", len(got)))
	}
	return ep, nil
}
