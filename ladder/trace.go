package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/queue"
	"repro/queue/registry"
	"repro/service"
)

// epoch anchors every timestamp the benchmark takes, so spans from the
// client, the HTTP middleware and the traced queue views share one clock.
var epoch = time.Now()

func nowNs() int64 { return int64(time.Since(epoch)) }

// Span kinds, one per layer boundary the benchmark wraps.
const (
	spQueueEnq   uint8 = iota // queue cell: one Enqueue call
	spQueueDeq                // queue cell: one successful Dequeue call
	spSvcSubmit               // in-process Service.Submit
	spSvcLease                // in-process Service.Lease that returned a job
	spSvcAck                  // in-process Service.Ack
	spHTTPSubmit              // client side of POST /v1/submit
	spHTTPLease               // client side of POST /v1/lease that returned a job
	spHTTPAck                 // client side of POST /v1/ack
	spHTTPServer              // server middleware around Service.Handler()
	spSvcEnq                  // the service's enqueue into its tenant queue
	spSvcDeq                  // the service's successful dequeue from it
)

var spanNames = [...]string{
	spQueueEnq: "queue.enqueue", spQueueDeq: "queue.dequeue",
	spSvcSubmit: "svc.submit", spSvcLease: "svc.lease", spSvcAck: "svc.ack",
	spHTTPSubmit: "http.submit", spHTTPLease: "http.lease", spHTTPAck: "http.ack",
	spHTTPServer: "http.server",
	spSvcEnq:     "svc.queue.enqueue", spSvcDeq: "svc.queue.dequeue",
}

// Sampling keeps the span buffer bounded: the first spanOps queue calls of
// each worker in a rep, and the jobs with id ≤ spanJobs of each Service
// instance (ids restart at 1 per instance), become spans. maxSpans caps
// the whole run.
const (
	spanOps    = 64
	spanJobs   = 100
	maxSpans   = 200_000
	spanHeader = "X-Ladder-Span"
)

// span is one timed call into a layer. rep scopes job ids, which restart
// with each Service instance; parent is the id of the enclosing span when
// the benchmark knows it at record time (server spans name their client
// span through spanHeader). Queue spans inside the service are linked to
// their job's service or server span after the run, by job id and time.
type span struct {
	kind       uint8
	rep        uint32
	id, parent uint64
	start, end int64
	job        uint64
}

// tracer keeps spans in memory; write stores them when the run ends.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	dropped uint64
	ids     atomic.Uint64
	rep     atomic.Uint32
}

func newTracer() *tracer { return &tracer{spans: make([]span, 0, 1<<14)} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// add records s, filling in its rep and, when zero, its id.
func (t *tracer) add(s span) {
	s.rep = t.rep.Load()
	if s.id == 0 {
		s.id = t.newID()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// activeTracer is the tracer of the rep in progress, or nil. The traced
// registry entry reads it on every call, because registry builders receive
// no context of their own.
var activeTracer atomic.Pointer[tracer]

// tracedQueue is the registry entry traced service reps build tenants on:
// the service's default backend with every enqueue and successful dequeue
// wrapped in a span whose job is the queued job id.
const tracedQueue = "ladder-traced/" + service.DefaultQueue

func init() {
	base, ok := registry.LookupEntry(service.DefaultQueue)
	if !ok {
		panic("registry has no " + service.DefaultQueue)
	}
	registry.RegisterEntry(tracedQueue, registry.Entry{
		Ordering: base.Ordering,
		Build: func(cfg registry.Config) registry.Instance {
			in := base.Build(cfg)
			return registry.Views(
				func(i int) queue.BatchQueue[uint64] { return tracedView{in.ProducerView(i)} },
				func(i int) queue.BatchQueue[uint64] { return tracedView{in.ConsumerView(i)} },
			)
		},
	})
}

type tracedView struct{ q queue.BatchQueue[uint64] }

func (v tracedView) Enqueue(id uint64) {
	t0 := nowNs()
	v.q.Enqueue(id)
	if tr := activeTracer.Load(); tr != nil && id <= spanJobs {
		tr.add(span{kind: spSvcEnq, start: t0, end: nowNs(), job: id})
	}
}

func (v tracedView) Dequeue() (uint64, bool) {
	t0 := nowNs()
	id, ok := v.q.Dequeue()
	if tr := activeTracer.Load(); tr != nil && ok && id <= spanJobs {
		tr.add(span{kind: spSvcDeq, start: t0, end: nowNs(), job: id})
	}
	return id, ok
}

// The service never batches; the batch calls pass through untraced.
func (v tracedView) EnqueueBatch(ids []uint64)     { v.q.EnqueueBatch(ids) }
func (v tracedView) DequeueBatch(dst []uint64) int { return v.q.DequeueBatch(dst) }

// selfTimes splits each sampled job's time across layers: for in-process
// jobs the service's own time (svc spans minus the queue spans inside
// them) and the queue's; for HTTP jobs the client side (client spans minus
// their server spans) and the server side (server spans minus the queue
// spans inside them). Values are per-job sums in nanoseconds.
type selfTimes struct {
	svcQueue, svc, httpServer, httpClient []int64
}

func (t *tracer) selfTimes() selfTimes {
	type key struct {
		rep uint32
		job uint64
	}
	queueByJob := map[key][]*span{}
	serverByParent := map[uint64]*span{}
	for i := range t.spans {
		s := &t.spans[i]
		switch s.kind {
		case spSvcEnq, spSvcDeq:
			k := key{s.rep, s.job}
			queueByJob[k] = append(queueByJob[k], s)
		case spHTTPServer:
			if s.parent != 0 {
				serverByParent[s.parent] = s
			}
		}
	}
	// inside sums the queue spans of job k that fall within [start, end]
	// and links each to parent.
	inside := func(k key, start, end int64, parent uint64) int64 {
		var sum int64
		for _, q := range queueByJob[k] {
			if q.start >= start && q.end <= end {
				q.parent = parent
				sum += q.end - q.start
			}
		}
		return sum
	}
	type acc struct{ outer, mid, queue int64 }
	svcJobs := map[key]*acc{}
	httpJobs := map[key]*acc{}
	get := func(m map[key]*acc, k key) *acc {
		a := m[k]
		if a == nil {
			a = &acc{}
			m[k] = a
		}
		return a
	}
	for i := range t.spans {
		s := &t.spans[i]
		if s.job == 0 || s.job > spanJobs {
			continue
		}
		k := key{s.rep, s.job}
		switch s.kind {
		case spSvcSubmit, spSvcLease, spSvcAck:
			a := get(svcJobs, k)
			a.outer += s.end - s.start
			a.queue += inside(k, s.start, s.end, s.id)
		case spHTTPSubmit, spHTTPLease, spHTTPAck:
			a := get(httpJobs, k)
			a.outer += s.end - s.start
			if srv := serverByParent[s.id]; srv != nil {
				srv.job = s.job
				a.mid += srv.end - srv.start
				a.queue += inside(k, srv.start, srv.end, srv.id)
			}
		}
	}
	var st selfTimes
	for _, a := range svcJobs {
		st.svcQueue = append(st.svcQueue, a.queue)
		st.svc = append(st.svc, a.outer-a.queue)
	}
	for _, a := range httpJobs {
		st.httpClient = append(st.httpClient, a.outer-a.mid)
		st.httpServer = append(st.httpServer, a.mid-a.queue)
	}
	return st
}

// write stores the spans as JSON lines, one span per line, after
// selfTimes has linked queue spans to their parents.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, `{"name":%q,"rep":%d,"id":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"job":%d}`+"\n",
			spanNames[s.kind], s.rep, s.id, s.parent, s.start, s.end, s.job)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
