package core

import (
	"repro/internal/machine"
	"repro/internal/txcas"
)

// Bound adapts the simulated track's TxCAS executors to the unified
// txcas.Primitive interface, so the same policy-paced CAS can be driven
// against the simulated machine or the native engine and compared
// report-for-report.
//
// A Bound holds one CAS executor per simulated thread (the executors keep
// per-thread telemetry and the simulator's cooperative scheduler runs one
// thread at a time, so they are never shared). Simulated operations need
// the calling thread's *machine.Proc, which only exists once the machine
// has started the thread body — so procs attach lazily: each thread calls
// Attach(tid, p) once before its first TxCAS (repro/internal/simqueue's
// PrimitiveAppend does this automatically).
type Bound struct {
	casers []*CAS
	procs  []*machine.Proc
}

var _ txcas.Primitive = (*Bound)(nil)

// Bind returns a Bound for the given number of simulated threads, each
// with its own executor built from opt.
func Bind(threads int, opt Options) *Bound {
	b := &Bound{
		casers: make([]*CAS, threads),
		procs:  make([]*machine.Proc, threads),
	}
	for i := range b.casers {
		b.casers[i] = New(opt)
	}
	return b
}

// Attach registers thread tid's proc. It must be called from tid's thread
// body before its first TxCAS; re-attaching the same proc is a no-op.
// Attachment is not synchronized — it relies on the simulator's
// cooperative, single-threaded scheduling, like all machine-track state.
func (b *Bound) Attach(tid int, p *machine.Proc) { b.procs[tid] = p }

// TxCAS implements txcas.Primitive: run one simulated-track TxCAS on
// thread's proc against machine address loc (machine.Addr is an alias of
// uint64, so the Loc conversion is free).
//
//lf:hotpath
func (b *Bound) TxCAS(thread int, loc txcas.Loc, old, new uint64) txcas.Outcome {
	return b.casers[thread].DoTx(b.procs[thread], machine.Addr(loc), old, new)
}
