package masq

import (
	"io"

	"masq/internal/apps/graph500"
	"masq/internal/apps/kvs"
	"masq/internal/apps/mpi"
	"masq/internal/apps/perftest"
	"masq/internal/apps/sparksim"
	"masq/internal/packet"
	"masq/internal/simnet"
)

// --- Packet capture ----------------------------------------------------------

// LinkTap is a passive capture point on an underlay link
// (Testbed.Links[i].AttachTap()).
type LinkTap = simnet.Tap

// WriteTapPcap writes a tap's capture as a Wireshark-readable pcap stream
// with virtual-time timestamps.
func WriteTapPcap(w io.Writer, tap *LinkTap) error {
	return packet.WritePcap(w, tap.Frames())
}

// --- perftest (ib_send_lat / ib_write_lat / ib_send_bw / ib_write_bw) -------

type (
	// LatencyResult summarizes a latency run.
	LatencyResult = perftest.LatencyResult
	// ThroughputResult summarizes a bandwidth run.
	ThroughputResult = perftest.ThroughputResult
)

// Perftest tools; each returns an event that triggers with the result once
// the testbed's engine has run.
var (
	StartSendLat      = perftest.StartSendLat
	StartWriteLat     = perftest.StartWriteLat
	StartSendBW       = perftest.StartSendBW
	StartWriteBW      = perftest.StartWriteBW
	StartTimedWriteBW = perftest.StartTimedWriteBW
)

// --- MPI runtime -------------------------------------------------------------

type (
	// MPIWorld is a communicator of fully connected ranks.
	MPIWorld = mpi.World
	// MPIRank is one MPI process.
	MPIRank = mpi.Rank
	// MPIOptions size the runtime buffers.
	MPIOptions = mpi.Options
)

// MPI constructors and OSU-style benchmarks.
var (
	NewMPIWorld       = mpi.NewWorld
	SpawnMPIRanks     = mpi.SpawnRanks
	DefaultMPIOptions = mpi.DefaultOptions
	MPILatency        = mpi.PtToPtLatency
	MPIBandwidth      = mpi.PtToPtBandwidth
	MPIBcastLatency   = mpi.BcastLatency
	MPIAllreduce      = mpi.AllreduceLatency
)

// --- Graph500 ------------------------------------------------------------------

type (
	// Graph500Config parameterizes the Kronecker benchmark.
	Graph500Config = graph500.Config
	// Graph500Result reports TEPS and traversal statistics.
	Graph500Result = graph500.Result
)

// Graph500 kernels.
var (
	Graph500Generate = graph500.Generate
	Graph500BFS      = graph500.RunBFS
	Graph500SSSP     = graph500.RunSSSP
)

// DefaultGraph500Config is a laptop-scale graph.
func DefaultGraph500Config() Graph500Config { return graph500.DefaultConfig() }

// --- KVS (HERD-style) ----------------------------------------------------------

type (
	// KVSConfig parameterizes the key-value store.
	KVSConfig = kvs.Config
	// KVSResult is the aggregate throughput.
	KVSResult = kvs.Result
)

// RunKVS executes the Fig. 21 benchmark.
var RunKVS = kvs.Run

// DefaultKVSConfig mirrors the paper with a laptop-scale key count.
func DefaultKVSConfig() KVSConfig { return kvs.DefaultConfig() }

// --- Spark ----------------------------------------------------------------------

type (
	// SparkConfig parameterizes the two-stage job.
	SparkConfig = sparksim.Config
	// SparkResult is a finished job with per-stage times.
	SparkResult = sparksim.JobResult
)

// Spark jobs.
var (
	SparkGroupBy = sparksim.RunGroupBy
	SparkSortBy  = sparksim.RunSortBy
)

// DefaultSparkConfig mirrors the paper's workload.
func DefaultSparkConfig() SparkConfig { return sparksim.DefaultConfig() }
