package txcas_test

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/txcas"
	"repro/queue/queuetest"
)

// TestSequentialChurnHarvest forces a known amount of version churn and
// checks that a stale TxCAS's failure report carries exactly that
// information: the full version delta and the identity of the last winner.
// This is the deterministic half of the ISSUE's "failure Outcomes carry
// non-trivial sharer/version info" acceptance test.
func TestSequentialChurnHarvest(t *testing.T) {
	for _, churn := range []int{1, 3, 8} {
		e := txcas.NewEngine(txcas.WithWindow(0))
		loc := e.Register(0)
		// Threads 1..churn win in sequence: value goes 0 → 1 → ... → churn.
		for i := 1; i <= churn; i++ {
			out := e.TxCAS(i, loc, uint64(i-1), uint64(i))
			if !out.OK || out.Contended() || out.SharerKnown() {
				t.Fatalf("churn=%d: uncontended win %d reported %+v", churn, i, out)
			}
		}
		// Thread 99 still expects the initial value: it must fail without
		// issuing a CAS (read-step soft abort) and harvest the full story.
		out := e.TxCAS(99, loc, 0, 100)
		if out.OK {
			t.Fatalf("churn=%d: stale TxCAS succeeded", churn)
		}
		if out.VersionDelta == 0 {
			t.Errorf("churn=%d: failed TxCAS reported VersionDelta=0", churn)
		}
		if v := e.WordAt(loc).Version(); v != uint64(churn) {
			t.Errorf("churn=%d: published version = %d, want %d (one bump per win)", churn, v, churn)
		}
		if out.LastWriter != churn {
			t.Errorf("churn=%d: LastWriter = %d, want %d (the last winner)", churn, out.LastWriter, churn)
		}
		if out.SoftAborts != 1 {
			t.Errorf("churn=%d: SoftAborts = %d, want 1 (read-step abort)", churn, out.SoftAborts)
		}
		if !out.Contended() || !out.SharerKnown() {
			t.Errorf("churn=%d: Contended=%v SharerKnown=%v, want true/true", churn, out.Contended(), out.SharerKnown())
		}
		if got := e.Load(loc); got != uint64(churn) {
			t.Errorf("churn=%d: value = %d after failed stale CAS, want %d", churn, got, churn)
		}
	}
}

// TestSeededInterleavings drives seeded pseudo-random TxCAS schedules
// against a plain compare-and-swap model and checks the engine agrees
// step for step — CAS semantics hold under arbitrary version churn, and
// every failure report is consistent with the model's history.
func TestSeededInterleavings(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		rng := rand.New(rand.NewSource(seed))
		e := txcas.NewEngine(txcas.WithWindow(0), txcas.WithBudget(2))
		const locs = 4
		model := make([]uint64, locs)
		lastWin := make([]int, locs)
		ids := make([]txcas.Loc, locs)
		for i := range ids {
			ids[i] = e.Register(0)
			lastWin[i] = txcas.NoWriter
		}
		for step := 0; step < 2000; step++ {
			l := rng.Intn(locs)
			thread := rng.Intn(8)
			old := uint64(rng.Intn(3))
			new := uint64(rng.Intn(3))
			want := model[l] == old
			out := e.TxCAS(thread, ids[l], old, new)
			if out.OK != want {
				t.Fatalf("seed=%d step=%d: TxCAS(%d, old=%d, new=%d) OK=%v, model value %d wants %v",
					seed, step, l, old, new, out.OK, model[l], want)
			}
			if want {
				model[l] = new
				lastWin[l] = thread
			} else {
				if out.VersionDelta == 0 {
					t.Fatalf("seed=%d step=%d: failed TxCAS reported VersionDelta=0", seed, step)
				}
				if out.SharerKnown() && out.LastWriter != lastWin[l] {
					t.Fatalf("seed=%d step=%d: LastWriter=%d, model's last winner is %d",
						seed, step, out.LastWriter, lastWin[l])
				}
			}
			if got := e.Load(ids[l]); got != model[l] {
				t.Fatalf("seed=%d step=%d: value=%d, model=%d", seed, step, got, model[l])
			}
		}
	}
}

// TestConcurrentSingleWinner races N threads at one location and checks
// exactly one wins, the value is the winner's, and every loser's Outcome
// reports the contention it lost to.
func TestConcurrentSingleWinner(t *testing.T) {
	for round := 0; round < 50; round++ {
		e := txcas.NewEngine()
		loc := e.Register(0)
		const n = 8
		outs := make([]txcas.Outcome, n)
		var start, done sync.WaitGroup
		start.Add(1)
		done.Add(n)
		for i := 0; i < n; i++ {
			go func(id int) {
				defer done.Done()
				start.Wait()
				outs[id] = e.TxCAS(id, loc, 0, uint64(id)+1)
			}(i)
		}
		start.Done()
		done.Wait()
		winner := -1
		for i, out := range outs {
			if out.OK {
				if winner != -1 {
					t.Fatalf("round %d: threads %d and %d both won", round, winner, i)
				}
				winner = i
			}
		}
		if winner == -1 {
			t.Fatalf("round %d: no thread won", round)
		}
		if got := e.Load(loc); got != uint64(winner)+1 {
			t.Fatalf("round %d: value=%d, winner %d wrote %d", round, got, winner, winner+1)
		}
		for i, out := range outs {
			if i == winner {
				continue
			}
			if !out.Contended() {
				t.Errorf("round %d: loser %d reported no contention: %+v", round, i, out)
			}
			if out.SharerKnown() && out.LastWriter != winner {
				t.Errorf("round %d: loser %d blames %d, winner was %d", round, i, out.LastWriter, winner)
			}
		}
	}
}

// TestGuardedCASOneShot exercises the Gate form on a pointer link: the
// winner publishes, a stale contender fails and harvests the winner's
// identity from the gate.
func TestGuardedCASOneShot(t *testing.T) {
	e := txcas.NewEngine(txcas.WithWindow(0))
	var g txcas.Gate
	var link atomic.Pointer[int]
	a, b := new(int), new(int)

	out := txcas.GuardedCAS(e, &g, 3, &link, nil, a)
	if !out.OK || out.Contended() {
		t.Fatalf("uncontended guarded CAS reported %+v", out)
	}
	if g.Version() != 1 || g.Writer() != 3 {
		t.Fatalf("gate after win: version=%d writer=%d, want 1/3", g.Version(), g.Writer())
	}

	out = txcas.GuardedCAS(e, &g, 5, &link, nil, b)
	if out.OK {
		t.Fatal("guarded CAS on a taken one-shot location succeeded")
	}
	if out.VersionDelta != 1 || out.LastWriter != 3 {
		t.Errorf("loser harvest: delta=%d writer=%d, want 1/3", out.VersionDelta, out.LastWriter)
	}
	if link.Load() != a {
		t.Error("link no longer points at the winner's node")
	}
}

// TestGuardedCASSoftAbort holds a contender inside a long speculation
// window while a winner publishes through the shared gate, and checks the
// contender abandons its CAS (soft abort) instead of issuing it.
func TestGuardedCASSoftAbort(t *testing.T) {
	rec := obs.New()
	// The winner and contender drive the same gate/link through different
	// engines so only the contender speculates.
	fast := txcas.NewEngine(txcas.WithWindow(0))
	slow := txcas.NewEngine(txcas.WithWindow(200*time.Millisecond), txcas.WithRecorder(rec))
	var g txcas.Gate
	var link atomic.Pointer[int]
	a, b := new(int), new(int)

	started := make(chan struct{})
	outc := make(chan txcas.Outcome, 1)
	go func() {
		close(started)
		outc <- txcas.GuardedCAS(slow, &g, 7, &link, nil, b)
	}()
	<-started
	// Win while the contender is (with overwhelming probability) still
	// inside its 200ms window.
	if out := txcas.GuardedCAS(fast, &g, 2, &link, nil, a); !out.OK {
		t.Fatal("winner's guarded CAS failed")
	}
	out := <-outc
	if out.OK {
		// The contender ran its whole window before the winner's CAS —
		// can't happen with these timings, but it would mean b won.
		t.Fatal("contender won despite the winner publishing")
	}
	if out.SoftAborts != 1 {
		t.Errorf("contender SoftAborts=%d, want 1 (CAS never issued)", out.SoftAborts)
	}
	if out.LastWriter != 2 {
		t.Errorf("contender LastWriter=%d, want 2", out.LastWriter)
	}
	snap := rec.Snapshot()
	if snap.Counter(obs.TxSoftAborts) != 1 {
		t.Errorf("TxSoftAborts=%d, want 1", snap.Counter(obs.TxSoftAborts))
	}
	if snap.Counter(obs.CASAttempts) != 0 {
		t.Errorf("CASAttempts=%d, want 0: the doomed CAS must never be issued", snap.Counter(obs.CASAttempts))
	}
	if snap.Counter(obs.TxSharerHints) != 1 {
		t.Errorf("TxSharerHints=%d, want 1", snap.Counter(obs.TxSharerHints))
	}
}

// lateWin is a RetryPolicy that, on its first decision, wins a different
// location through the same gate and then asks for a speculation window.
// GuardedCAS consults the policy after snapshotting the gate version and
// before watching it, so the win lands exactly in the gap that a
// queue-wide gate exposes: a contender's v0 taken before the previous
// node's linker published.
type lateWin struct {
	e    *txcas.Engine
	g    *txcas.Gate
	link *atomic.Pointer[int]
	done bool
}

func (p *lateWin) Decide(policy.Abort, func(uint64) uint64) policy.Decision {
	if !p.done {
		p.done = true
		txcas.GuardedCAS(p.e, p.g, 9, p.link, nil, new(int))
	}
	return policy.Decision{Delay: 100}
}

// TestGuardedCASGateMoveElsewhere is the deterministic regression test for
// the shared-gate race: a gate version advance published for another
// location must not soft-abort a CAS whose own location still holds old.
func TestGuardedCASGateMoveElsewhere(t *testing.T) {
	var g txcas.Gate
	var other, mine atomic.Pointer[int]
	pol := &lateWin{e: txcas.NewEngine(txcas.WithWindow(0)), g: &g, link: &other}
	e := txcas.NewEngine(txcas.WithPolicy(pol))

	n := new(int)
	out := txcas.GuardedCAS(e, &g, 1, &mine, nil, n)
	if !pol.done || other.Load() == nil || g.Version() == 0 {
		t.Fatal("policy did not win the other location through the gate")
	}
	if !out.OK || out.SoftAborts != 0 {
		t.Fatalf("guarded CAS on an untouched location: %+v, want OK with no soft abort", out)
	}
	if mine.Load() != n {
		t.Fatal("location does not hold the caller's node")
	}
}

// TestPolicyFallback checks the policy plumbing: DelayedCAS (always
// Fallback) resolves on the plain path, and the engine counts it.
func TestPolicyFallback(t *testing.T) {
	rec := obs.New()
	e := txcas.NewEngine(
		txcas.WithPolicy(policy.DelayedCAS{Delay: 10}),
		txcas.WithRecorder(rec),
	)
	loc := e.Register(0)
	out := e.TxCAS(1, loc, 0, 5)
	if !out.OK || !out.Fallback {
		t.Fatalf("policy-diverted TxCAS: %+v, want OK fallback", out)
	}
	if out.Attempts != 0 {
		t.Errorf("Attempts=%d, want 0 (no speculative attempt ran)", out.Attempts)
	}
	snap := rec.Snapshot()
	if snap.Counter(obs.CASFallbacks) != 1 {
		t.Errorf("CASFallbacks=%d, want 1", snap.Counter(obs.CASFallbacks))
	}

	var g txcas.Gate
	var link atomic.Pointer[int]
	out = txcas.GuardedCAS(e, &g, 1, &link, nil, new(int))
	if !out.OK || !out.Fallback {
		t.Fatalf("policy-diverted guarded CAS: %+v, want OK fallback", out)
	}
}

// TestBudgetBound checks the wait-free bound: however hostile the churn,
// an operation runs at most budget speculative attempts and then resolves
// with one plain CAS.
func TestBudgetBound(t *testing.T) {
	e := txcas.NewEngine(txcas.WithWindow(50*time.Microsecond), txcas.WithBudget(3))
	loc := e.Register(0)
	var stop atomic.Bool
	done := make(chan struct{})
	// An adversary flips the value 0↔1, publishing churn nonstop.
	go func() {
		defer close(done)
		v := uint64(0)
		for !stop.Load() {
			//lint:ignore casloop adversary churn is deliberately unbounded; stop flag bounds it
			if e.TxCAS(0, loc, v, 1-v).OK {
				v = 1 - v
			} else {
				v = e.Load(loc)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		out := e.TxCAS(1, loc, 0, 0)
		if out.Attempts > 3 {
			t.Fatalf("op %d ran %d attempts, budget is 3", i, out.Attempts)
		}
		if !out.OK && !out.Fallback && out.SoftAborts == 0 {
			t.Fatalf("op %d failed without fallback or soft abort: %+v", i, out)
		}
	}
	stop.Store(true)
	<-done
}

// TestRecorderAccounting checks the engine-side counter discipline on the
// word path: a read-step abort is a soft abort (no CAS issued), a
// genuine lost race is a CAS failure.
func TestRecorderAccounting(t *testing.T) {
	rec := obs.New()
	e := txcas.NewEngine(txcas.WithWindow(0), txcas.WithRecorder(rec))
	loc := e.Register(0)
	if !e.TxCAS(1, loc, 0, 1).OK {
		t.Fatal("setup win failed")
	}
	if e.TxCAS(2, loc, 0, 2).OK {
		t.Fatal("stale CAS won")
	}
	snap := rec.Snapshot()
	if got := snap.Counter(obs.CASAttempts); got != 1 {
		t.Errorf("CASAttempts=%d, want 1 (only the winner issued a CAS)", got)
	}
	if got := snap.Counter(obs.CASFailures); got != 0 {
		t.Errorf("CASFailures=%d, want 0 (the loser soft-aborted)", got)
	}
	if got := snap.Counter(obs.TxSoftAborts); got != 1 {
		t.Errorf("TxSoftAborts=%d, want 1", got)
	}
	if got := snap.Counter(obs.TxSharerHints); got != 1 {
		t.Errorf("TxSharerHints=%d, want 1", got)
	}
}

// TestOutcomeMethods pins the Outcome helper semantics.
func TestOutcomeMethods(t *testing.T) {
	var o txcas.Outcome
	o.LastWriter = txcas.NoWriter
	if o.Contended() || o.SharerKnown() {
		t.Error("zero-ish Outcome reports contention or a sharer")
	}
	o.SoftAborts = 1
	if !o.Contended() {
		t.Error("SoftAborts>0 must imply Contended")
	}
	o = txcas.Outcome{VersionDelta: 2, LastWriter: 4}
	if !o.Contended() || !o.SharerKnown() {
		t.Error("delta>0 with writer must imply Contended and SharerKnown")
	}
}

// TestAllocFreeHotPaths gates the engine's hot paths at zero heap
// allocations per operation, success and failure alike.
func TestAllocFreeHotPaths(t *testing.T) {
	if queuetest.RaceEnabled {
		t.Skip("race-detector instrumentation distorts allocation accounting")
	}
	rec := obs.New()
	e := txcas.NewEngine(txcas.WithWindow(time.Microsecond), txcas.WithRecorder(rec))
	loc := e.Register(0)
	v := uint64(0)
	if avg := testing.AllocsPerRun(200, func() {
		if e.TxCAS(1, loc, v, v+1).OK {
			v++
		}
		e.TxCAS(2, loc, 0, 1) // stale after the first win: failure path
	}); avg != 0 {
		t.Errorf("word TxCAS allocates %.2f objects/op, want 0", avg)
	}

	var g txcas.Gate
	var link atomic.Pointer[int]
	n := new(int)
	if avg := testing.AllocsPerRun(200, func() {
		txcas.GuardedCAS(e, &g, 1, &link, nil, n) // wins once, then fails
	}); avg != 0 {
		t.Errorf("GuardedCAS allocates %.2f objects/op, want 0", avg)
	}
}
