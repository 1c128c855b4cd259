package sbq

import (
	"runtime"
	"time"

	"repro/basket"
	"repro/internal/obs"
	"repro/internal/txcas"
)

// Option configures a Queue built with New. The element type appears only
// in WithBasket; every other option is type-free, so call sites read:
//
//	q := sbq.New[string](
//		sbq.WithEnqueuers(8),
//		sbq.WithAppendDelay(270*time.Nanosecond),
//		sbq.WithRecorder(rec),
//	)
type Option func(*options)

type options struct {
	enqueuers   int
	appendDelay time.Duration
	txcasOn     bool
	txcasOpts   []txcas.Option
	rec         obs.Recorder
	// newBasket holds a func() basket.Basket[T]; it is typed any because
	// Option is not generic (Go cannot infer a generic option's type
	// parameter from a value-free call like WithEnqueuers(8)). New[T]
	// checks the element type and panics on mismatch.
	newBasket any
	pooled    bool
}

// WithNodePool enables pooled-node mode: nodes recycle through a
// reclaim-backed freelist (per-P via sync.Pool) with epoch-deferred
// reuse, and their baskets are re-armed in place via basket.Resettable,
// so steady-state enqueue/dequeue allocate nothing and the queue stops
// leaning on the garbage collector under sustained load. The basket
// (default or WithBasket) must implement basket.Resettable; New panics
// otherwise. The trade is one guard acquire/announce per operation.
func WithNodePool() Option {
	return func(o *options) { o.pooled = true }
}

// WithEnqueuers sets the number of producer handles the queue will issue
// (each producer goroutine needs its own Handle). Baskets are sized from
// it. The default is GOMAXPROCS; explicit non-positive values panic in New.
func WithEnqueuers(n int) Option {
	return func(o *options) { o.enqueuers = n }
}

// WithAppendDelay makes try_append busy-wait for d before its CAS — the
// paper's SBQ-CAS configuration (§6.1), which paces contending enqueuers so
// one CAS wins while the others join its basket. The paper tunes d ≈ 270ns.
//
// The wait is a calibrated spin, not a clock poll: at first use the package
// times a fixed spin loop against the monotonic clock (taking the fastest
// of several probes so preemption cannot inflate the estimate) and converts
// d to loop iterations. The delay loop itself therefore never reads the
// wall clock — re-reading it each iteration (the obvious implementation)
// costs tens of nanoseconds per read and distorts a ~270ns delay beyond
// recognition. Zero or negative d selects a plain immediate CAS.
func WithAppendDelay(d time.Duration) Option {
	return func(o *options) { o.appendDelay = d }
}

// WithTxCAS routes try_append through the native software-TxCAS engine
// (repro/internal/txcas): contending enqueuers watch the queue's
// publication gate during a calibrated speculation window and abandon
// CASes a published winner has already doomed — the paper's
// profit-from-failure effect (§3) on real cores: the loser still joins the
// winner's basket, but its doomed atomic never lands on the contended
// line, and the failure report identifies the winner. opts tune the
// engine: txcas.WithWindow (default the §4.1 ~270ns), txcas.WithPolicy to
// pace attempts with a repro/internal/machine/policy RetryPolicy fed real
// conflict signal, txcas.WithBudget for the speculation bound. The
// queue's recorder is attached automatically, so soft aborts and sharer
// hints land in the same snapshot as the CAS counters.
//
// WithTxCAS supersedes WithAppendDelay's spin-only pacing and takes
// precedence over it when combined. A plain delayed CAS under a policy is
// WithTxCAS(txcas.WithPolicy(policy.DelayedCAS{...}), txcas.WithWindow(0)):
// the policy's Fallback decision spins its delay and issues one plain CAS.
func WithTxCAS(opts ...txcas.Option) Option {
	return func(o *options) {
		o.txcasOn = true
		o.txcasOpts = append(o.txcasOpts, opts...)
	}
}

// WithBasket overrides the basket constructor (the default is the scalable
// basket sized to the enqueuer count, wired to the queue's recorder). The
// basket must satisfy the §5.3.2 property: once indicated empty, every
// future Extract fails.
func WithBasket[T any](mk func() basket.Basket[T]) Option {
	return func(o *options) { o.newBasket = mk }
}

// WithRecorder attaches a telemetry recorder (see repro/internal/obs): the
// queue reports operation counts, try_append CAS attempts and failures, and
// retries; the default basket reports insert/extract outcomes into the same
// recorder. A nil or obs.Nop recorder disables telemetry — the disabled
// path costs one nil check per event site.
func WithRecorder(r obs.Recorder) Option {
	return func(o *options) { o.rec = obs.Normalize(r) }
}

func buildOptions[T any](opts []Option) options {
	o := options{enqueuers: -1}
	for _, opt := range opts {
		opt(&o)
	}
	if o.enqueuers == -1 {
		o.enqueuers = runtime.GOMAXPROCS(0)
	}
	if o.enqueuers <= 0 {
		panic("sbq: enqueuers must be positive")
	}
	if o.newBasket != nil {
		if _, ok := o.newBasket.(func() basket.Basket[T]); !ok {
			panic("sbq: WithBasket element type does not match the queue's")
		}
	}
	return o
}
