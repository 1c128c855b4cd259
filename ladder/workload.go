package main

// A shape is one workload's closed loop: every client goroutine asks for
// its next operation only after the previous one returned. The same shape
// drives every layer, scaled per layer. Reps are short — a few to a few
// tens of milliseconds on a 2-vCPU box, except backlog's queue bursts —
// so that a run takes hundreds of them and a host stall spoils only the
// few reps it hits, which the median across reps ignores.
type shape struct {
	name    string
	workers int // client goroutines, at most GOMAXPROCS on the reference box

	// Queue cells: pairs per worker per rep, and the burst a worker
	// enqueues before draining it (0 = interleaved enqueue→dequeue pairs).
	pairs, burst int
	// Service cells: jobs per worker per Service instance, and the burst a
	// worker submits, then leases, then acks (0 = Submit→Lease→Ack per
	// job).
	svcJobs, svcBurst int
	// HTTP cells: the same over loopback HTTP.
	httpJobs, httpBurst int
	// refNs is the median reference rep (see ref.go) on the reference box
	// under this workload, in nanoseconds. A time scaled by it reads in
	// that box's units whatever the host's speed during the run.
	refNs float64
}

// The three workloads. README.md records why each exists and which
// per-layer metric it should move.
var shapes = map[string]shape{
	// solo: one client, so queues and the tenant stay near-empty and every
	// layer pays its fixed per-operation cost only. It bypasses every
	// contention mechanism: CAS retries, soft aborts, steals, lock waits.
	"solo": {
		name: "solo", workers: 1,
		pairs:   10000,
		svcJobs: 4000, httpJobs: 200,
		refNs: 4.45e6,
	},
	// contended: two clients on the same queue and the same tenant, each
	// doing interleaved pairs or jobs. It exercises CAS failures, TxCAS
	// soft aborts, shard steals and the service's lock contention.
	"contended": {
		name: "contended", workers: 2,
		pairs:   5000,
		svcJobs: 2000, httpJobs: 100,
		refNs: 5.9e6,
	},
	// backlog: two clients, each enqueueing or submitting a burst before
	// draining it. At the top of a queue burst 2×65536 elements are live:
	// tens of MiB of SBQ nodes, far more than a core's 2 MiB L2, so
	// allocation, reclamation and GC matter (FAA-Queue's 16-byte cells
	// come to 2 MiB). The service's job map, lease table and deadline
	// heap hold thousands of entries.
	"backlog": {
		name: "backlog", workers: 2,
		pairs: 65536, burst: 65536,
		svcJobs: 8192, svcBurst: 4096,
		httpJobs: 256, httpBurst: 128,
		refNs: 6.5e6,
	},
}

// repScale multiplies a workload's pairs per rep for the entries whose
// pairs are cheapest, so that no queue rep is much shorter than the
// others and the runtime.GC before it stays a small part of its time.
// Entries not listed run the workload's pairs as they are.
var repScale = map[string]int{"FAA-Queue": 4, "Sharded-FAA": 8, "LCRQ": 2, "MS-Queue": 2}

// soloEntries run every workload with one client. SBQ-TxCAS has the
// publication-gate race of ROADMAP item 1: with two enqueuers, one can
// soft-abort on a node the other has linked but not yet published, then
// dereference that node's nil next. With two clients it panicked in 33
// of 47 contended reps, a share that changes from run to run, so two runs
// of the same code could not agree on how many operations failed. With
// one enqueuer there is no contender and no panic. Drop the entry once
// the race is fixed; the cell then runs the workload's clients again.
var soloEntries = map[string]bool{"SBQ-TxCAS": true}

// headline are the queue entries whose pair time is an end-to-end metric:
// the three SBQ append paths, the paper's FAA and LCRQ baselines, and the
// service's default backend.
var headline = []string{"FAA-Queue", "LCRQ", "SBQ-CAS", "SBQ-DCAS", "SBQ-TxCAS", "Sharded-FAA"}

// others are the remaining registry entries, timed only in the traced
// run; every entry is also timed in pooled-node mode there.
var others = []string{"MS-Queue", "CC-Queue", "BQ-Original", "SBQ-PB", "Sharded-SBQ"}
