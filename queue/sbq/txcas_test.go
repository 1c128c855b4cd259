package sbq_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/txcas"
	"repro/queue/queuetest"
	"repro/queue/sbq"
)

func TestConformanceTxCAS(t *testing.T) {
	queuetest.RunAll(t, factory(func(e int) *sbq.Queue[uint64] {
		return sbq.New[uint64](sbq.WithEnqueuers(e), sbq.WithTxCAS())
	}))
}

func TestConformanceTxCASPooled(t *testing.T) {
	queuetest.RunAll(t, factory(func(e int) *sbq.Queue[uint64] {
		return sbq.New[uint64](sbq.WithEnqueuers(e), sbq.WithTxCAS(), sbq.WithNodePool())
	}))
}

func TestConformanceTxCASPolicy(t *testing.T) {
	queuetest.RunAll(t, factory(func(e int) *sbq.Queue[uint64] {
		return sbq.New[uint64](sbq.WithEnqueuers(e),
			sbq.WithTxCAS(txcas.WithPolicy(policy.ImmediateRetry{Jitter: 64})))
	}))
}

// TestTxCASTelemetry drives contending enqueuers through the TxCAS append
// and checks the engine's accounting discipline: every conflict resolves
// as either a counted CAS failure or a soft abort, never both, and soft
// aborts carry sharer hints.
func TestTxCASTelemetry(t *testing.T) {
	rec := obs.New()
	const enq, per = 4, 2000
	q := sbq.New[uint64](
		sbq.WithEnqueuers(enq),
		sbq.WithTxCAS(txcas.WithWindow(2*time.Microsecond)),
		sbq.WithRecorder(rec),
	)
	var wg sync.WaitGroup
	for i := 0; i < enq; i++ {
		wg.Add(1)
		h := q.NewHandle()
		go func(base uint64) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				h.Enqueue(base + uint64(j))
			}
		}(uint64(i * per))
	}
	wg.Wait()
	drain(t, q, enq*per)

	snap := rec.Snapshot()
	if got := snap.Counter(obs.EnqOps); got != enq*per {
		t.Fatalf("EnqOps=%d, want %d", got, enq*per)
	}
	// Every element landed, so the linking CASes that were issued and won
	// plus the appends absorbed by baskets account for all ops; the engine
	// must have recorded at least one attempt (the first link).
	if snap.Counter(obs.CASAttempts) == 0 {
		t.Fatal("no CAS attempts recorded in TxCAS mode")
	}
	// Soft aborts may or may not occur depending on scheduling; when they
	// do, each must have carried a sharer hint (the winner had published).
	soft := snap.Counter(obs.TxSoftAborts)
	hints := snap.Counter(obs.TxSharerHints)
	if soft > 0 && hints == 0 {
		t.Errorf("TxSoftAborts=%d but TxSharerHints=0: soft aborts must harvest the published winner", soft)
	}
	t.Logf("txcas telemetry: attempts=%d failures=%d soft=%d hints=%d",
		snap.Counter(obs.CASAttempts), snap.Counter(obs.CASFailures), soft, hints)
}

// TestTxCASFallbackPolicy paces try_append with a policy that always
// answers Fallback (policy.DelayedCAS) and no speculation window: appends
// succeed, and every linking CAS resolves on the plain path as a counted
// fallback.
func TestTxCASFallbackPolicy(t *testing.T) {
	rec := obs.New()
	q := sbq.New[uint64](
		sbq.WithEnqueuers(2),
		sbq.WithTxCAS(txcas.WithPolicy(policy.DelayedCAS{Delay: 25}), txcas.WithWindow(0)),
		sbq.WithRecorder(rec),
	)
	h0, h1 := q.NewHandle(), q.NewHandle()
	const per = 200
	for i := 0; i < per; i++ {
		h0.Enqueue(uint64(i))
		h1.Enqueue(uint64(per + i))
	}
	drain(t, q, 2*per)
	snap := rec.Snapshot()
	// DelayedCAS always answers Fallback, so every linking CAS is counted
	// as a fallback resolution by the engine.
	if snap.Counter(obs.CASFallbacks) == 0 {
		t.Error("DelayedCAS policy recorded no fallback CASes; the append is not routing through the engine")
	}
	if snap.Counter(obs.CASAttempts) < snap.Counter(obs.CASFallbacks) {
		t.Error("fallback CASes not counted as attempts")
	}
}
