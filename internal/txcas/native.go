package txcas

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/machine/policy"
	"repro/internal/obs"
	"repro/internal/spin"
)

// This file is the native software-TxCAS engine. The design maps the
// paper's TxCAS (Algorithm 1) onto plain Go atomics:
//
//   hardware read set        → a published version word polled mid-window
//   §4.1 intra-tx delay      → a calibrated speculation window (no clock
//                              reads on the hot path; see repro/internal/spin)
//   read-step abort          → a soft abort: the doomed CAS is never issued
//   "who aborted me"         → the winner's published identity (last-writer
//                              word), harvested into the Outcome
//   wait-free fallback (§4)  → a single plain CAS after the speculation
//                              budget, per Brown's template
//
// Crucially the version/writer words are advisory publication channels,
// not locks: the linearization point is always the plain CompareAndSwap on
// the value itself, so lock-freedom (and, with the budget, wait-freedom)
// is inherited from the underlying atomic rather than argued separately.
// Winners publish *after* winning; contenders that observe the publication
// during their window abandon the attempt before putting a doomed atomic
// on the contended line.

// DefaultWindow is the default speculation window, matching the paper's
// empirically tuned ~270ns delayed-CAS/intra-transaction delay (§4.1,
// §6.1) that the SBQ-DCAS entry also uses.
const DefaultWindow = 270 * time.Nanosecond

// DefaultBudget bounds speculative attempts per operation before the
// wait-free plain-CAS resolution (Brown's bounded-speculation template;
// the simulated track's analogue is core.DefaultMaxRetries, sized for HTM
// retry storms — the software engine converges much faster).
const DefaultBudget = 4

// watchChecks is how many times a speculation window polls the version
// word: the window is spun in slices with one poll between slices, so the
// final poll lands immediately before the CAS would be issued.
const watchChecks = 8

// cyclesPerNS converts the simulated track's cycle-denominated policy
// delays to wall time (the simulated machine's 2.5 GHz convention), so
// one policy value means the same delay on both tracks.
const cyclesPerNS = 2.5

// Word is one native TxCAS location: the value word plus its publication
// line. Each field owns a cache line — the value is swung by every
// contender's CAS, and the version/writer words are rewritten by every
// winner while losers poll them, so sharing lines would manufacture
// exactly the coherence storms the engine exists to avoid (§4.3).
type Word struct {
	//lf:contended every contender's CAS lands on the value word
	val atomic.Uint64
	_   [56]byte
	//lf:contended winners publish here; losers poll it during their window
	ver atomic.Uint64
	_   [56]byte
	//lf:contended the last winner's identity, rewritten on every win
	writer atomic.Int64
	_      [56]byte
}

// publish records a win: identity first, then the version bump, so any
// thread that observes the new version also observes a writer at least as
// fresh (Go atomics are sequentially consistent).
func (w *Word) publish(thread int) {
	w.writer.Store(int64(thread) + 1)
	w.ver.Add(1)
}

// Load returns the location's current value.
func (w *Word) Load() uint64 { return w.val.Load() }

// Version returns the number of wins published so far.
func (w *Word) Version() uint64 { return w.ver.Load() }

// Writer returns the identity of the last published winner, or NoWriter
// when the location has never been won.
func (w *Word) Writer() int { return int(w.writer.Load()) - 1 }

// Gate is the publication half of a Word alone: an advisory version/
// last-writer channel guarding CASes the engine cannot own — typed
// pointer links like repro/queue/sbq's try_append, where the value word
// must remain a GC-visible atomic.Pointer.
//
// A Gate's contract is that every guarded location is one-shot: it is
// CASed away from its initial value at most once (queue link fields are
// the canonical case — nil until linked, then never nil again), and every
// winner publishes through the Gate. A version advance observed during a
// contender's window is only the trigger: winners publish after their
// CAS, so when one Gate serves several locations the advance may report a
// win elsewhere. The contender therefore re-reads its own location and
// soft-aborts only if it has left the expected value; one-shot-ness makes
// that proof final, so soft-aborting is exactly as correct as issuing the
// CAS and failing — minus the coherence traffic.
type Gate struct {
	//lf:contended winners publish here; contenders poll during their window
	ver atomic.Uint64
	_   [56]byte
	//lf:contended the last winner's identity, rewritten on every win
	writer atomic.Int64
	_      [56]byte
}

// Version returns the number of wins published through the gate.
func (g *Gate) Version() uint64 { return g.ver.Load() }

// Writer returns the identity of the last published winner, or NoWriter.
func (g *Gate) Writer() int { return int(g.writer.Load()) - 1 }

// publish mirrors Word.publish: identity first, then the version bump.
func (g *Gate) publish(thread int) {
	g.writer.Store(int64(thread) + 1)
	g.ver.Add(1)
}

// Option configures an Engine.
type Option func(*options)

type options struct {
	window time.Duration // <0 = DefaultWindow sentinel
	budget int
	pol    policy.RetryPolicy
	rec    obs.Recorder
}

// WithWindow sets the speculation window: how long a contender watches the
// publication word before issuing its CAS, playing the role of the §4.1
// intra-transaction delay. The spin is calibrated (no clock reads on the
// hot path). Zero disables speculation — every attempt issues its CAS
// immediately, which degenerates to plain CAS plus failure harvesting.
// The default is DefaultWindow.
func WithWindow(d time.Duration) Option {
	return func(o *options) { o.window = d }
}

// WithBudget bounds speculative attempts per operation before the
// wait-free plain-CAS resolution. Non-positive values select
// DefaultBudget.
func WithBudget(n int) Option {
	return func(o *options) { o.budget = n }
}

// WithPolicy paces the engine with a retry policy from
// repro/internal/machine/policy — the same policy values that pace the
// simulated track's TxCAS, now fed real failure signal: after a soft
// abort the policy's Abort carries Conflict and the published winner's
// identity in Requester. A non-fallback Decision.Delay (simulated cycles,
// converted at 2.5 cycles/ns) replaces the engine window for that
// attempt; a Fallback decision diverts the operation to the plain-CAS
// path after the decided delay — policy.DelayedCAS therefore reproduces
// the classic §4.1 delayed CAS exactly, with no speculation.
func WithPolicy(p policy.RetryPolicy) Option {
	return func(o *options) { o.pol = p }
}

// WithRecorder attaches telemetry (see repro/internal/obs): issued CAS
// attempts/failures land in CASAttempts/CASFailures, plain-path
// resolutions in CASFallbacks, abandoned attempts in TxSoftAborts, and
// failure reports that captured a sharer identity in TxSharerHints. Soft
// aborts also emit EvTxAbort timeline events (reason AbortConflict,
// requester = the published winner) when the recorder is a flight
// recorder, so sbqtrace renders the native profit-from-failure effect
// with the same event vocabulary as the simulated machine.
func WithRecorder(r obs.Recorder) Option {
	return func(o *options) { o.rec = obs.Normalize(r) }
}

// Engine is the native software-TxCAS executor. One Engine serves any
// number of threads; per-location state lives in the Words it registers
// (value CAS via the Primitive interface) or in caller-owned Gates
// (pointer CAS via GuardedCAS).
type Engine struct {
	window        uint64 // speculation window, calibrated spin iterations
	budget        int
	pol           policy.RetryPolicy
	itersPerCycle float64
	randN         func(uint64) uint64
	rec           obs.Recorder
	ev            obs.EventRecorder
	_             [48]byte
	//lf:contended policy randomness stream shared by every thread
	rng atomic.Uint64
	_   [56]byte

	mu    sync.Mutex
	words []*Word
}

var _ Primitive = (*Engine)(nil)

// NewEngine returns an engine configured by opts. Construction calibrates
// the spin rate once; the hot paths then run integer math only.
func NewEngine(opts ...Option) *Engine {
	o := options{window: -1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.window < 0 {
		o.window = DefaultWindow
	}
	if o.budget <= 0 {
		o.budget = DefaultBudget
	}
	e := &Engine{
		window:        spin.ItersFor(o.window),
		budget:        o.budget,
		pol:           o.pol,
		itersPerCycle: spin.PerNS() / cyclesPerNS,
		rec:           o.rec,
		ev:            obs.Events(o.rec),
	}
	e.rng.Store(0x9E3779B97F4A7C15)
	// The policy randomness stream: an engine-local xorshift mix — the
	// native track makes no determinism promise, it just needs cheap
	// jitter without clock reads.
	e.randN = func(n uint64) uint64 {
		x := e.rng.Add(0xBF58476D1CE4E5B9)
		x ^= x >> 30
		x *= 0x94D049BB133111EB
		x ^= x >> 27
		return x % n
	}
	return e
}

// Register adds a location holding initial and returns its Loc. Register
// is not synchronized against concurrent TxCAS calls on the same engine:
// register every location before handing the engine to worker threads
// (the same discipline as sizing a queue's baskets up front).
func (e *Engine) Register(initial uint64) Loc {
	w := &Word{}
	w.val.Store(initial)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.words = append(e.words, w)
	return Loc(len(e.words) - 1)
}

// WordAt returns the registered Word backing loc, for inspection.
func (e *Engine) WordAt(loc Loc) *Word { return e.words[loc] }

// Load returns the current value at loc.
func (e *Engine) Load(loc Loc) uint64 { return e.words[loc].val.Load() }

// event emits one timeline event if a flight recorder is attached.
func (e *Engine) event(k obs.EventKind, thread int, arg uint64) {
	if ev := e.ev; ev != nil {
		ev.Event(k, int32(thread), arg)
	}
}

// softAborted records one abandoned attempt: the native read-step abort.
func (e *Engine) softAborted(thread, winner int) {
	if r := e.rec; r != nil {
		r.Inc(obs.TxSoftAborts)
	}
	if ev := e.ev; ev != nil {
		ev.Event(obs.EvTxAbort, int32(thread), obs.AbortArg(obs.AbortConflict, winner, 0))
	}
}

// fail finalizes a losing Outcome: harvest the version delta published
// since v0 and the identity of the last published winner, and count the
// sharer hint. The delta is a lower bound — a winner that has CASed but
// not yet published is invisible, so a demonstrably changed value still
// reports at least 1. The writer hint is whoever most recently published
// a win at the location: on a failure that is by definition a thread that
// beat the caller there, which is exactly the §3 sharer identity.
func (e *Engine) fail(w *Word, v0 uint64, out Outcome) Outcome {
	now := w.ver.Load()
	out.VersionDelta = now - v0
	if now > 0 {
		out.LastWriter = w.Writer()
	}
	if out.VersionDelta == 0 {
		out.VersionDelta = 1
	}
	if r := e.rec; r != nil && out.LastWriter != NoWriter {
		r.Inc(obs.TxSharerHints)
	}
	return out
}

// watch spins the window in slices, polling ver between slices; it
// reports whether ver left v0 before the window elapsed. The final poll
// is immediately before the caller would issue its CAS, so a winner that
// published at any point during the window is never raced pointlessly.
func watch(ver *atomic.Uint64, v0, iters uint64) bool {
	slice := iters / watchChecks
	if slice == 0 {
		slice = 1
	}
	for spent := uint64(0); spent < iters; spent += slice {
		spin.Iters(slice)
		if ver.Load() != v0 {
			return true
		}
	}
	return false
}

// spinCycles busy-waits a cycle-denominated policy delay.
func spinCycles(cycles uint64, itersPerCycle float64) {
	n := float64(cycles) * itersPerCycle
	if n < 1 {
		n = 1
	}
	spin.Iters(uint64(n))
}

// cyclesToIters converts a cycle-denominated policy delay to calibrated
// window iterations.
func cyclesToIters(cycles uint64, itersPerCycle float64) uint64 {
	n := float64(cycles) * itersPerCycle
	if n < 1 {
		n = 1
	}
	return uint64(n)
}

// TxCAS implements Primitive over a registered Word: if the word holds
// old, swing it to new. The failure report carries the published version
// delta and last-writer identity observed during the operation.
//
// Structure mirrors Algorithm 1: a read step that fails only if the value
// actually changed (§4.2), a speculation window in place of the
// intra-transaction delay (§4.1) during which a published win soft-aborts
// the attempt, the write step as a real CAS, and — after the budget or on
// the policy's word — a single plain CAS for wait-freedom.
//
//lf:hotpath
func (e *Engine) TxCAS(thread int, loc Loc, old, new uint64) Outcome {
	w := e.words[loc]
	out := Outcome{LastWriter: NoWriter}
	v0 := w.ver.Load()
	a := policy.Abort{Requester: NoWriter}
	for {
		window := e.window
		if e.pol != nil {
			d := e.pol.Decide(a, e.randN)
			if d.Fallback {
				if d.Delay > 0 {
					spinCycles(d.Delay, e.itersPerCycle)
				}
				break
			}
			if d.Delay > 0 {
				window = cyclesToIters(d.Delay, e.itersPerCycle)
			}
		}
		if out.Attempts >= e.budget {
			break
		}
		out.Attempts++
		// Read step: fail only if the value actually changed (§4.2). No
		// CAS was issued, so this is a soft abort — the cheap failure.
		if w.val.Load() != old {
			out.SoftAborts++
			e.softAborted(thread, w.Writer())
			return e.fail(w, v0, out)
		}
		// Speculation window: poll the publication word like a read set.
		vpre := w.ver.Load()
		if window > 0 && watch(&w.ver, vpre, window) {
			// A winner published mid-window: abandon the write before it
			// reaches the line and re-run the read step — the value may
			// now differ (fail) or have returned to old (retry).
			out.SoftAborts++
			hint := w.Writer()
			e.softAborted(thread, hint)
			a = policy.Abort{Attempt: out.Attempts, Conflict: true, Nested: true, Requester: hint}
			continue
		}
		if r := e.rec; r != nil {
			r.Inc(obs.CASAttempts)
		}
		e.event(obs.EvCASAttempt, thread, 0)
		if w.val.CompareAndSwap(old, new) {
			w.publish(thread)
			out.OK = true
			return out
		}
		// The write step lost a photo-finish race the window missed.
		if r := e.rec; r != nil {
			r.Inc(obs.CASFailures)
		}
		e.event(obs.EvCASFailure, thread, 0)
		if w.val.Load() != old {
			return e.fail(w, v0, out)
		}
		// The value is back to old (ABA on the value, not on our CAS —
		// the version word still counts every win): retry under policy.
		hint := NoWriter
		if w.ver.Load() != vpre {
			hint = w.Writer()
		}
		a = policy.Abort{Attempt: out.Attempts, Conflict: true, Requester: hint}
	}
	// Wait-free resolution: one plain CAS, no speculation, no retry.
	out.Fallback = true
	if r := e.rec; r != nil {
		r.Inc(obs.CASAttempts)
		r.Inc(obs.CASFallbacks)
	}
	e.event(obs.EvCASFallback, thread, 0)
	if w.val.CompareAndSwap(old, new) {
		w.publish(thread)
		out.OK = true
		return out
	}
	if r := e.rec; r != nil {
		r.Inc(obs.CASFailures)
	}
	e.event(obs.EvCASFailure, thread, 0)
	return e.fail(w, v0, out)
}

// gateFail finalizes a losing guarded Outcome, mirroring Engine.fail for
// Gate-guarded one-shot locations (where any failure implies at least one
// win, published or not).
func (e *Engine) gateFail(g *Gate, v0 uint64, out Outcome) Outcome {
	now := g.ver.Load()
	out.VersionDelta = now - v0
	if now > 0 {
		out.LastWriter = g.Writer()
	}
	if out.VersionDelta == 0 {
		out.VersionDelta = 1
	}
	if r := e.rec; r != nil && out.LastWriter != NoWriter {
		r.Inc(obs.TxSharerHints)
	}
	return out
}

// GuardedCAS is the engine's one-shot pointer form: attempt
// ptr.CompareAndSwap(old, new) under g's advisory publication channel.
// The location must obey the Gate contract (one-shot, winners publish);
// repro/queue/sbq's try_append links are the canonical caller. thread is
// the caller's identity for publication and sharer attribution.
//
// Unlike Engine.TxCAS there is no retry loop: a failed try_append is
// permanent for the baskets queue (it profits from the failure instead of
// retrying), so the operation is a single speculative attempt — watch the
// gate for the window, soft-abort without issuing the CAS if a winner
// published and ptr no longer holds old, otherwise issue it and on
// failure harvest the report. A policy Fallback decision (e.g.
// policy.DelayedCAS) skips the watch: delay, then one plain CAS, the
// classic §4.1 software baseline.
//
//lf:hotpath invoked by every TxCAS-mode try_append in repro/queue/sbq
func GuardedCAS[T any](e *Engine, g *Gate, thread int, ptr *atomic.Pointer[T], old, new *T) Outcome {
	out := Outcome{Attempts: 1, LastWriter: NoWriter}
	v0 := g.ver.Load()
	window := e.window
	if e.pol != nil {
		d := e.pol.Decide(policy.Abort{Requester: NoWriter}, e.randN)
		if d.Fallback {
			out.Fallback = true
			if d.Delay > 0 {
				spinCycles(d.Delay, e.itersPerCycle)
			}
			window = 0
		} else if d.Delay > 0 {
			window = cyclesToIters(d.Delay, e.itersPerCycle)
		}
	}
	if window > 0 && watch(&g.ver, v0, window) && ptr.Load() != old {
		// A winner published during our window and our own location has
		// moved off old; under the Gate contract it never returns, so the
		// pending CAS can no longer succeed. Abandon it before it ever
		// reaches the line and report the failure with the winner's
		// identity attached. A gate move alone proves nothing when the
		// gate serves several locations: it may be a late publication of
		// a win elsewhere (one published after our v0 snapshot), so the
		// re-read is what licenses the soft abort.
		out.SoftAborts = 1
		e.softAborted(thread, g.Writer())
		return e.gateFail(g, v0, out)
	}
	if r := e.rec; r != nil {
		r.Inc(obs.CASAttempts)
		if out.Fallback {
			r.Inc(obs.CASFallbacks)
		}
	}
	e.event(obs.EvCASAttempt, thread, 0)
	if ptr.CompareAndSwap(old, new) {
		g.publish(thread)
		out.OK = true
		return out
	}
	if r := e.rec; r != nil {
		r.Inc(obs.CASFailures)
	}
	e.event(obs.EvCASFailure, thread, 0)
	return e.gateFail(g, v0, out)
}
