package bench

import (
	"fmt"

	"masq/internal/cluster"
	"masq/internal/simtime"
)

func init() {
	register("abl-migrate", "Ablation: live-migration blackout vs dirty-page rate and connection count", ablMigrate)
}

// MigrationPoint is one live-migration measurement (an abl-migrate cell):
// the blackout a guest sees when its VM moves, as a function of how fast it
// dirties memory and how many RDMA connections ride along.
type MigrationPoint struct {
	// DirtyFrac is the guest's dirty rate as a fraction of the migration
	// stream's copy bandwidth (1.0 = dirtying as fast as we copy).
	DirtyFrac float64
	Conns     int
	ImageKB   float64
	Rounds    int
	PreCopyMs float64
	// BlackoutUs decomposes into freeze + stop-copy + restore + commit.
	BlackoutUs float64
	FreezeUs   float64
	StopCopyUs float64
	RestoreUs  float64
	CommitUs   float64
}

// runLiveMigrate builds a MasQ pair with `conns` live RC connections on the
// server node, then live-migrates that node to a spare host while the
// connections stay established. The copy bandwidth is pinned to 1 GB/s so
// the dirty-rate sweep is meaningful at the testbed's small image sizes.
func runLiveMigrate(dirtyFrac float64, conns int) MigrationPoint {
	const bw = 1e9 // migration stream: 1 GB/s
	cfg := cluster.DefaultConfig()
	cfg.Hosts = 3
	cp, err := cluster.NewConnectedPair(cfg, cluster.ModeMasQ)
	if err != nil {
		panic(err)
	}
	for i := 1; i < conns; i++ {
		if _, _, err := cp.ConnectExtraQP(cluster.DefaultEndpointOpts(), uint16(7300+i)); err != nil {
			panic(err)
		}
	}
	tb := cp.TB
	image := float64(cp.ServerNode.VM.GPA.MappedBytes())
	var rep *cluster.MigrateReport
	tb.Eng.Spawn("migrator", func(p *simtime.Proc) {
		rep, err = tb.LiveMigrateNode(p, cp.ServerNode, 2, cluster.MigrateOpts{
			DirtyRate:         dirtyFrac * bw,
			CopyBandwidth:     bw,
			StopCopyThreshold: 8 << 10,
		})
	})
	tb.Eng.Run()
	if err != nil {
		panic(err)
	}
	return MigrationPoint{
		DirtyFrac:  dirtyFrac,
		Conns:      conns,
		ImageKB:    image / 1024,
		Rounds:     rep.PreCopyRounds,
		PreCopyMs:  rep.PreCopyTime.Millis(),
		BlackoutUs: rep.Blackout.Micros(),
		FreezeUs:   rep.FreezeTime.Micros(),
		StopCopyUs: rep.StopCopyTime.Micros(),
		RestoreUs:  rep.RestoreTime.Micros(),
		CommitUs:   rep.CommitTime.Micros(),
	}
}

// ablMigrate sweeps the live-migration blackout over the guest dirty-page
// rate and the number of live RDMA connections carried across the move.
// Two effects separate cleanly: the stop-copy term tracks the dirty rate
// (the classic pre-copy tradeoff — the blackout depends on how fast the
// guest writes, not on the image size), while the freeze/restore terms
// track the connection count (per-QP quiesce, capture, adopt, and RCT
// re-validation are paid in the dark).
func ablMigrate() *Table {
	t := &Table{
		ID:    "abl-migrate",
		Title: "Live-migration blackout vs dirty-page rate and live connections (copy stream 1 GB/s)",
		Columns: []string{"dirty/copy ratio", "conns", "image (KB)", "pre-copy rounds",
			"pre-copy (ms)", "blackout (µs)", "= freeze", "+ stop-copy", "+ restore", "+ commit"},
	}
	for _, dirty := range []float64{0, 0.25, 0.5, 0.9} {
		for _, conns := range []int{1, 8, 32} {
			pt := runLiveMigrate(dirty, conns)
			t.AddRow(fmt.Sprintf("%.2f", pt.DirtyFrac), pt.Conns,
				fmt.Sprintf("%.0f", pt.ImageKB), pt.Rounds,
				fmt.Sprintf("%.2f", pt.PreCopyMs),
				fmt.Sprintf("%.1f", pt.BlackoutUs),
				fmt.Sprintf("%.1f", pt.FreezeUs),
				fmt.Sprintf("%.1f", pt.StopCopyUs),
				fmt.Sprintf("%.1f", pt.RestoreUs),
				fmt.Sprintf("%.1f", pt.CommitUs))
		}
	}
	t.Note("stop-copy grows with the dirty rate; freeze+restore grow with the connection count (per-QP capture/adopt and RCT re-validation)")
	t.Note("connections stay established across the move: peers suspend, rename in place, and resume with PSN replay — zero lost or duplicated completions")
	return t
}
