package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/service"
)

const tenant = "ladder"

// jobInputs are the seeded payloads of one cell: payload[w][i] is worker
// w's i-th job, hash its FNV-64a, submitBody the matching HTTP request.
type jobInputs struct {
	payload    [][]json.RawMessage
	hash       [][]uint64
	submitBody [][][]byte
}

func makeJobInputs(rng *rand.Rand, workers, jobs int) *jobInputs {
	in := &jobInputs{
		payload:    make([][]json.RawMessage, workers),
		hash:       make([][]uint64, workers),
		submitBody: make([][][]byte, workers),
	}
	for w := 0; w < workers; w++ {
		for i := 0; i < jobs; i++ {
			p := json.RawMessage(fmt.Sprintf(`{"w":%d,"i":%d,"blob":"%016x%08x"}`, w, i, rng.Uint64(), rng.Uint32()))
			in.payload[w] = append(in.payload[w], p)
			in.hash[w] = append(in.hash[w], hashOf(p))
			in.submitBody[w] = append(in.submitBody[w],
				[]byte(`{"tenant":"`+tenant+`","payload":`+string(p)+`}`))
		}
	}
	return in
}

// hashOf is FNV-64a, inlined so hashing a leased payload allocates nothing.
func hashOf(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// jobAPI is one layer's Submit→Lease→Ack surface as a worker drives it.
// sid is the span id of the call when the rep is traced, else 0.
type jobAPI interface {
	submit(w, i int, sid uint64) (id uint64, err error)
	// lease returns the leased job's id, token and payload; ok=false means
	// the tenant's queue was empty.
	lease(sid uint64) (id, token uint64, payload []byte, ok bool, err error)
	// ack returns acked=false when the service refused the token (a
	// wrong output), and an error when the call itself failed.
	ack(token, sid uint64) (acked bool, err error)
}

// leaseRec is one lease a worker took. acked is set once Ack returned
// nil; ackErr once the service refused the token. A lease whose ack never
// ran, because its rep failed first, has neither.
type leaseRec struct {
	id, token, hash uint64
	leaseNs, ackNs  int64
	acked, ackErr   bool
}

type jworker struct {
	subID      []uint64
	subNs      []int64
	leases     []leaseRec
	leaseCalls uint64
	empties    uint64
	heapPeak   uint64
	err        string
}

// jrep is one rep of a job cell: one Service instance serving a fixed
// number of jobs.
type jrep struct {
	elapsed        time.Duration
	planned, acked int
	failure, wrong string
	// Medians of per-job call time (its Submit, successful Lease and Ack
	// calls; not the time it sat queued), its p99, and the medians of
	// each call, in nanoseconds.
	jobP50, jobP99              float64
	submitP50, leaseP50, ackP50 float64
	leaseCalls                  uint64
	empties                     uint64
	rt0, rt1                    rtSample
	heapPeak                    uint64
	leasesIssued                uint64
	scrapeMs                    []float64
}

func (r *jrep) ok() bool { return r.failure == "" && r.wrong == "" }

// jobsPerSec is the rep's acked jobs per second of wall time; a failed
// rep's covers the jobs it acked before it stopped.
func (r *jrep) jobsPerSec() float64 { return ratio(float64(r.acked), r.elapsed.Seconds()) }

// run is one worker's closed loop: submit a burst (one job when the shape
// has none), lease as many jobs as it submitted, then ack them all.
func (w *jworker) run(api jobAPI, w0, jobs, burst int, stop *atomic.Bool, tr *tracer, kinds [3]uint8) {
	defer func() {
		if r := recover(); r != nil {
			w.err = fmt.Sprint("panic: ", r)
			stop.Store(true)
		}
	}()
	sid := func() uint64 {
		if tr == nil {
			return 0
		}
		return tr.newID()
	}
	fail := func(err error) {
		w.err = err.Error()
		stop.Store(true)
	}
	b := max(burst, 1)
	for i := 0; i < jobs && !stop.Load(); i += b {
		n := min(b, jobs-i)
		for k := 0; k < n; k++ {
			s := sid()
			t0 := nowNs()
			id, err := api.submit(w0, i+k, s)
			t1 := nowNs()
			if err != nil {
				fail(err)
				return
			}
			w.subID = append(w.subID, id)
			w.subNs = append(w.subNs, t1-t0)
			if tr != nil && id <= spanJobs {
				tr.add(span{kind: kinds[0], id: s, start: t0, end: t1, job: id})
			}
		}
		first := len(w.leases)
		for got := 0; got < n; {
			s := sid()
			t0 := nowNs()
			id, token, payload, ok, err := api.lease(s)
			t1 := nowNs()
			w.leaseCalls++
			if err != nil {
				fail(err)
				return
			}
			if !ok {
				w.empties++
				if stop.Load() {
					return
				}
				continue
			}
			w.leases = append(w.leases, leaseRec{id: id, token: token, hash: hashOf(payload), leaseNs: t1 - t0})
			if tr != nil && id <= spanJobs {
				tr.add(span{kind: kinds[1], id: s, start: t0, end: t1, job: id})
			}
			got++
		}
		if burst > 0 {
			w.heapPeak = max(w.heapPeak, heapObjectsBytes())
		}
		for k := first; k < len(w.leases); k++ {
			l := &w.leases[k]
			s := sid()
			t0 := nowNs()
			acked, err := api.ack(l.token, s)
			t1 := nowNs()
			if err != nil {
				fail(err)
				return
			}
			l.ackNs, l.acked, l.ackErr = t1-t0, acked, !acked
			if tr != nil && l.id <= spanJobs {
				tr.add(span{kind: kinds[2], id: s, start: t0, end: t1, job: l.id})
			}
		}
	}
}

// verifyJobs checks that every submitted job was leased exactly once, with
// its payload unchanged, and acked exactly once (Ack returned nil). It
// returns the per-job call times of the acked jobs and "" when the
// outputs are correct. A lease whose ack never ran is not wrong — its rep
// failed, and says so — but it is not an acked job either.
func verifyJobs(ws []*jworker, in *jobInputs, complete bool) ([]int64, string) {
	type sub struct {
		w, i   int
		ns     int64
		leased bool
	}
	subs := map[uint64]*sub{}
	for w, jw := range ws {
		for i, id := range jw.subID {
			if subs[id] != nil {
				return nil, fmt.Sprintf("job id %d assigned twice", id)
			}
			subs[id] = &sub{w: w, i: i, ns: jw.subNs[i]}
		}
	}
	var jobNs []int64
	for _, jw := range ws {
		for _, l := range jw.leases {
			s := subs[l.id]
			switch {
			case s == nil:
				return nil, fmt.Sprintf("leased unknown job %d", l.id)
			case s.leased:
				return nil, fmt.Sprintf("job %d leased twice", l.id)
			case l.hash != in.hash[s.w][s.i]:
				return nil, fmt.Sprintf("job %d payload changed in flight", l.id)
			case l.ackErr:
				return nil, fmt.Sprintf("ack of job %d failed", l.id)
			}
			s.leased = true
			if l.acked {
				jobNs = append(jobNs, s.ns+l.leaseNs+l.ackNs)
			}
		}
	}
	if complete {
		for id, s := range subs {
			if !s.leased {
				return nil, fmt.Sprintf("job %d was never leased", id)
			}
		}
	}
	return jobNs, ""
}

// runJobCell drives one rep of a job cell through a fresh Service: in
// process when rig is nil, else over rig's HTTP server. A traced rep
// gives the service an obs.Stats recorder and the traced backend.
func runJobCell(sh shape, in *jobInputs, rig *httpRig, tr *tracer, scrape bool) jrep {
	jobs, burst := sh.svcJobs, sh.svcBurst
	kinds := [3]uint8{spSvcSubmit, spSvcLease, spSvcAck}
	if rig != nil {
		jobs, burst = sh.httpJobs, sh.httpBurst
		kinds = [3]uint8{spHTTPSubmit, spHTTPLease, spHTTPAck}
	}
	cfg := service.Config{Shards: shards}
	if tr != nil {
		cfg.Recorder = obs.New()
		cfg.Queue = tracedQueue
	}
	svc, err := service.New(cfg)
	if err != nil {
		fatalf("service: %v", err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = svc.Shutdown(ctx) // every lease is settled or abandoned with the rep
	}()
	apis := make([]jobAPI, sh.workers)
	for w := range apis {
		if rig == nil {
			apis[w] = svcAPI{svc: svc, in: in}
		} else {
			apis[w] = &httpAPI{rig: rig, in: in}
		}
	}
	// One untimed job creates the tenant and builds its queue, so the
	// timed jobs start on a warm Service whatever the rep's size.
	warm(svc)
	if rig != nil {
		rig.serve(svc, tr)
		defer rig.serve(nil, nil)
	}
	ws := make([]*jworker, sh.workers)
	for i := range ws {
		ws[i] = &jworker{
			subID: make([]uint64, 0, jobs), subNs: make([]int64, 0, jobs),
			leases: make([]leaseRec, 0, jobs),
		}
	}
	rep := jrep{planned: sh.workers * jobs}
	activeTracer.Store(tr)
	var stop atomic.Bool
	rep.rt0 = beginRep()
	rep.elapsed, rep.failure = runWorkers(len(ws), &stop, func(i int) { ws[i].run(apis[i], i, jobs, burst, &stop, tr, kinds) })
	rep.rt1 = readRuntime()
	activeTracer.Store(nil)
	rep.heapPeak = uint64(rep.rt1.heapObjects)

	var subNs, leaseNs, ackNs []int64
	for _, w := range ws {
		rep.leaseCalls += w.leaseCalls
		rep.empties += w.empties
		subNs = append(subNs, w.subNs...)
		rep.heapPeak = max(rep.heapPeak, w.heapPeak)
		for _, l := range w.leases {
			leaseNs = append(leaseNs, l.leaseNs)
			ackNs = append(ackNs, l.ackNs)
		}
		if rep.failure == "" && w.err != "" {
			rep.failure = w.err
		}
	}
	jobNs, wrong := verifyJobs(ws, in, rep.failure == "")
	rep.wrong, rep.acked = wrong, len(jobNs)
	rep.jobP50, rep.jobP99 = durQuantile(jobNs, 0.5), durQuantile(jobNs, 0.99)
	rep.submitP50, rep.leaseP50, rep.ackP50 = durQuantile(subNs, 0.5), durQuantile(leaseNs, 0.5), durQuantile(ackNs, 0.5)
	st := svc.Stats()
	rep.leasesIssued = st.Leases
	if scrape {
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			if err := svc.MetricsCollection().Write(io.Discard); err != nil {
				fatalf("render /metrics: %v", err)
			}
			rep.scrapeMs = append(rep.scrapeMs, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	return rep
}

func warm(svc *service.Service) {
	if _, err := svc.Submit(tenant, json.RawMessage(`{"warm":true}`)); err != nil {
		fatalf("warm-up submit: %v", err)
	}
	l, ok, err := svc.Lease(tenant)
	if err != nil || !ok {
		fatalf("warm-up lease: ok=%v err=%v", ok, err)
	}
	if err := svc.Ack(l.Token); err != nil {
		fatalf("warm-up ack: %v", err)
	}
}

// svcAPI calls the Service in process.
type svcAPI struct {
	svc *service.Service
	in  *jobInputs
}

func (a svcAPI) submit(w, i int, _ uint64) (uint64, error) {
	j, err := a.svc.Submit(tenant, a.in.payload[w][i])
	return j.ID, err
}

func (a svcAPI) lease(uint64) (id, token uint64, payload []byte, ok bool, err error) {
	l, ok, err := a.svc.Lease(tenant)
	return l.ID, l.Token, l.Payload, ok, err
}

func (a svcAPI) ack(token, _ uint64) (bool, error) { return a.svc.Ack(token) == nil, nil }

// httpRig is the loopback HTTP server every HTTP rep of a run shares, with
// a client limited to two connections. Each rep installs its own Service's
// handler behind a middleware that records the server-side span.
type httpRig struct {
	ln       net.Listener
	srv      *http.Server
	hc       *http.Client
	base     string
	handler  atomic.Pointer[http.Handler]
	tr       atomic.Pointer[tracer]
	newConns atomic.Int64
	done     chan error
}

func newHTTPRig() *httpRig {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fatalf("listen: %v", err)
	}
	r := &httpRig{ln: ln, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	r.srv = &http.Server{
		Handler: r,
		ConnState: func(_ net.Conn, st http.ConnState) {
			if st == http.StateNew {
				r.newConns.Add(1)
			}
		},
	}
	r.hc = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}
	go func() { r.done <- r.srv.Serve(ln) }()
	return r
}

// serve installs svc's handler (nil uninstalls) and the rep's tracer.
func (r *httpRig) serve(svc *service.Service, tr *tracer) {
	if svc == nil {
		r.handler.Store(nil)
		r.tr.Store(nil)
		return
	}
	h := svc.Handler()
	r.handler.Store(&h)
	r.tr.Store(tr)
}

func (r *httpRig) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	h := r.handler.Load()
	if h == nil {
		http.Error(w, "no service installed", http.StatusServiceUnavailable)
		return
	}
	tr := r.tr.Load()
	if tr == nil {
		(*h).ServeHTTP(w, req)
		return
	}
	parent, _ := strconv.ParseUint(req.Header.Get(spanHeader), 10, 64)
	t0 := nowNs()
	(*h).ServeHTTP(w, req)
	tr.add(span{kind: spHTTPServer, parent: parent, start: t0, end: nowNs()})
}

// close stops the server and waits for it, then drops idle connections.
func (r *httpRig) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := r.srv.Shutdown(ctx); err != nil {
		r.srv.Close()
	}
	<-r.done
	r.hc.CloseIdleConnections()
}

// statusError is an HTTP status the endpoint does not document for the
// call; it fails the rep.
type statusError struct {
	path   string
	status int
	body   string
}

func (e *statusError) Error() string {
	return fmt.Sprintf("POST %s: status %d: %s", e.path, e.status, e.body)
}

// httpAPI is one worker's HTTP client; buf holds the last response body.
type httpAPI struct {
	rig     *httpRig
	in      *jobInputs
	buf     bytes.Buffer
	ackBody []byte
}

// post sends body and reads the whole response, so the connection goes
// back to the pool. It returns the status when it is one of want.
func (a *httpAPI) post(path string, body []byte, sid uint64, want ...int) (int, error) {
	req, err := http.NewRequest(http.MethodPost, a.rig.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if sid != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(sid, 10))
	}
	res, err := a.rig.hc.Do(req)
	if err != nil {
		return 0, err
	}
	a.buf.Reset()
	_, err = a.buf.ReadFrom(res.Body)
	res.Body.Close()
	if err != nil {
		return 0, fmt.Errorf("POST %s: read body: %w", path, err)
	}
	for _, code := range want {
		if res.StatusCode == code {
			return code, nil
		}
	}
	return 0, &statusError{path: path, status: res.StatusCode, body: a.buf.String()}
}

var leaseBody = []byte(`{"tenant":"` + tenant + `"}`)

func (a *httpAPI) submit(w, i int, sid uint64) (uint64, error) {
	if _, err := a.post("/v1/submit", a.in.submitBody[w][i], sid, http.StatusOK); err != nil {
		return 0, err
	}
	var j struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal(a.buf.Bytes(), &j); err != nil {
		return 0, fmt.Errorf("submit response: %w", err)
	}
	return j.ID, nil
}

func (a *httpAPI) lease(sid uint64) (id, token uint64, payload []byte, ok bool, err error) {
	code, err := a.post("/v1/lease", leaseBody, sid, http.StatusOK, http.StatusNoContent)
	if err != nil || code == http.StatusNoContent {
		return 0, 0, nil, false, err
	}
	var l struct {
		ID      uint64          `json:"id"`
		Token   uint64          `json:"token"`
		Payload json.RawMessage `json:"payload"`
	}
	if err := json.Unmarshal(a.buf.Bytes(), &l); err != nil {
		return 0, 0, nil, false, fmt.Errorf("lease response: %w", err)
	}
	return l.ID, l.Token, l.Payload, true, nil
}

// ack treats every status but 200 as a failed call, 409 (stale token)
// included: the endpoint documents only 200 for a successful settle.
func (a *httpAPI) ack(token, sid uint64) (bool, error) {
	a.ackBody = strconv.AppendUint(append(a.ackBody[:0], `{"token":`...), token, 10)
	a.ackBody = append(a.ackBody, '}')
	_, err := a.post("/v1/ack", a.ackBody, sid, http.StatusOK)
	return err == nil, err
}
