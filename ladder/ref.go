package main

import (
	"runtime/debug"
	"sync/atomic"
)

// The reference cell times a fixed piece of work that uses nothing from
// the repository, only this file, the Go runtime and the standard
// library. Each client goroutine allocates 2 MiB of 64-byte nodes (like
// a GC-mode queue's allocations), links them in a scrambled order
// and walks the list (a working set the size of the 2 MiB L2), and mixes
// integers (ALU). It shares nothing between clients: a shared lock or
// counter added hand-off noise of its own. A 4 MiB list per client, to
// reach into L3 as the backlog bursts do, tracked backlog worse, not
// better. No change to the program can move its time; only the host can.
// The host is shared, and its speed drifts by tens of percent over
// minutes (busy neighbours on the same cores and L3), far more than the
// reps of one run vary. Every round therefore runs the reference cell
// next to the others, and each end-to-end time is the median over rounds
// of the cell's time divided by that round's reference time, scaled back
// to the reference box's speed (shape.refNs). The rep keeps nothing live
// after it returns, so it does not move heap_peak_mb.

// The work of one client in one reference rep. refNodes is a power of
// two: the walk's scrambled order is a full-period LCG over the indices.
const (
	refNodes = 1 << 15
	refMix   = 1 << 17
)

type refCell struct {
	workers int
	sink    atomic.Uint64
}

type refNode struct {
	next *refNode
	v    [7]uint64
}

// rep runs one reference rep and returns its wall time in nanoseconds.
func (c *refCell) rep() float64 {
	var stop atomic.Bool
	beginRep()
	// With the collector off, the rep allocates without collecting, so
	// its time does not depend on how much heap the program keeps live
	// between reps, which sets when a collection would start.
	gcPercent := debug.SetGCPercent(-1)
	elapsed, failure := runWorkers(c.workers, &stop, c.work)
	debug.SetGCPercent(gcPercent)
	if failure != "" {
		fatalf("reference cell: %s", failure)
	}
	return float64(elapsed.Nanoseconds())
}

func (c *refCell) work(int) {
	nodes := make([]*refNode, refNodes)
	for i := range nodes {
		nodes[i] = &refNode{}
		nodes[i].v[0] = uint64(i)
	}
	// i -> 5i+1 mod refNodes visits every index once (Hull–Dobell).
	for i, n := range nodes {
		n.next = nodes[(5*i+1)&(refNodes-1)]
	}
	var h uint64
	n := nodes[0]
	for k := 0; k < refNodes; k++ {
		h += n.v[0]
		n = n.next
	}
	h |= 1
	for k := 0; k < refMix; k++ {
		h ^= h >> 33
		h *= 0xff51afd7ed558ccd
	}
	c.sink.Add(h)
}
