package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/queue"
	"repro/queue/registry"
)

func TestVerifyQueue(t *testing.T) {
	const base = 1 << 32
	v := func(p, s int) uint64 { return encode(p, base+uint64(s)) }
	cases := []struct {
		name     string
		outs     [][]uint64
		complete bool
		bad      bool
	}{
		{"all out, interleaved", [][]uint64{{v(0, 0), v(1, 0), v(0, 1)}, {v(1, 1)}}, true, false},
		{"duplicate", [][]uint64{{v(0, 0), v(0, 1)}, {v(0, 1), v(1, 0), v(1, 1)}}, true, true},
		{"lost", [][]uint64{{v(0, 0), v(0, 1)}, {v(1, 1)}}, true, true},
		{"lost after a failure is not checked", [][]uint64{{v(0, 0), v(0, 1)}, {v(1, 1)}}, false, false},
		{"producer order broken", [][]uint64{{v(0, 1), v(0, 0)}, {v(1, 0), v(1, 1)}}, true, true},
		{"unknown value", [][]uint64{{v(0, 0), v(0, 1), v(1, 0), v(1, 1), v(2, 0)}}, true, true},
		{"below the base", [][]uint64{{v(0, 0), v(0, 1), v(1, 0), v(1, 1), 7}}, true, true},
	}
	for _, c := range cases {
		if got := verifyQueue(c.outs, 2, 2, base, c.complete); (got != "") != c.bad {
			t.Errorf("%s: verifyQueue = %q, want wrong=%v", c.name, got, c.bad)
		}
	}
}

func TestVerifyJobs(t *testing.T) {
	in := &jobInputs{hash: [][]uint64{{11, 12}}}
	ok := func() []*jworker {
		return []*jworker{{
			subID: []uint64{1, 2}, subNs: []int64{10, 20},
			leases: []leaseRec{{id: 2, hash: 12, leaseNs: 1, ackNs: 2, acked: true}, {id: 1, hash: 11, leaseNs: 3, ackNs: 4, acked: true}},
		}}
	}
	ws := ok()
	ns, wrong := verifyJobs(ws, in, true)
	if wrong != "" || len(ns) != 2 || ns[0] != 23 || ns[1] != 17 {
		t.Fatalf("clean jobs: got %v %q", ns, wrong)
	}
	for name, mutate := range map[string]func([]*jworker){
		"leased twice":   func(ws []*jworker) { ws[0].leases[1].id = 2 },
		"payload change": func(ws []*jworker) { ws[0].leases[0].hash = 99 },
		"ack refused":    func(ws []*jworker) { ws[0].leases[0].acked, ws[0].leases[0].ackErr = false, true },
		"never leased":   func(ws []*jworker) { ws[0].leases = ws[0].leases[:1] },
		"unknown job":    func(ws []*jworker) { ws[0].leases[0].id = 9 },
	} {
		ws := ok()
		mutate(ws)
		if _, wrong := verifyJobs(ws, in, true); wrong == "" {
			t.Errorf("%s: not detected", name)
		}
	}
	// A failed rep stops before it acks everything it leased: those jobs
	// are not wrong outputs, but they add no job time either.
	ws = ok()
	ws[0].leases[1].acked = false
	if ns, wrong := verifyJobs(ws, in, false); wrong != "" || len(ns) != 1 || ns[0] != 23 {
		t.Errorf("unacked lease: got %v %q, want [23]", ns, wrong)
	}
}

// TestSpreadMatchesPython pins spread to statistics.quantiles(values, n=4)
// (the exclusive method) on values whose Python results are known.
func TestSpreadMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 1.0},
		{[]float64{5, 1, 4, 2, 3}, 1.0},
		{[]float64{10.0, 12.5, 11.0, 9.0, 30.0, 10.5, 11.5, 10.2, 9.8, 10.1}, 0.17391304347826095},
		{[]float64{3.0, 5.0}, 0.75},
		{[]float64{2.0, 7.0, 4.0}, 1.25},
	} {
		if got := spread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// lossy drops every element whose low bits are 3, so a consumer waiting
// for it can only be released by the cell's cancel flag.
type lossy struct{ queue.BatchQueue[uint64] }

func (l lossy) Enqueue(v uint64) {
	if v&7 != 3 {
		l.BatchQueue.Enqueue(v)
	}
}

type panicky struct{ queue.BatchQueue[uint64] }

func (panicky) Enqueue(uint64) { panic("injected") }

func init() {
	wrap := func(name string, f func(queue.BatchQueue[uint64]) queue.BatchQueue[uint64]) {
		registry.Register(name, func(cfg registry.Config) registry.Instance {
			in, err := registry.Build("MS-Queue", cfg)
			if err != nil {
				panic(err)
			}
			return registry.Views(
				func(i int) queue.BatchQueue[uint64] { return f(in.ProducerView(i)) },
				in.ConsumerView)
		})
	}
	wrap("test-lossy", func(q queue.BatchQueue[uint64]) queue.BatchQueue[uint64] { return lossy{q} })
	wrap("test-panicky", func(q queue.BatchQueue[uint64]) queue.BatchQueue[uint64] { return panicky{q} })
}

// A queue that loses an element or panics fails its rep: nothing counts
// as ok, the rep ends within the cell timeout, and no worker is left
// spinning.
func TestQueueCellFailures(t *testing.T) {
	defer func(d time.Duration) { cellTimeout = d }(cellTimeout)
	cellTimeout = 200 * time.Millisecond
	sh := shape{workers: 2, pairs: 1000}
	for _, entry := range []string{"test-lossy", "test-panicky"} {
		rep := runQueueCell(entry, false, sh, 1<<32, nil)
		if rep.ok() || rep.failure == "" {
			t.Errorf("%s: rep ok=%v failure=%q", entry, rep.ok(), rep.failure)
		}
		if rep.wrong != "" {
			t.Errorf("%s: a failed rep reported wrong outputs: %q", entry, rep.wrong)
		}
	}
	if rep := runQueueCell("MS-Queue", false, sh, 1<<32, nil); !rep.ok() || rep.completed != rep.planned {
		t.Errorf("MS-Queue: ok=%v completed=%d failure=%q wrong=%q", rep.ok(), rep.completed, rep.failure, rep.wrong)
	}
	// SBQ-TxCAS runs one client whatever the shape (see soloEntries).
	if rep := runQueueCell("SBQ-TxCAS", false, sh, 1<<32, nil); !rep.ok() || rep.planned != sh.pairs {
		t.Errorf("SBQ-TxCAS: ok=%v planned=%d failure=%q", rep.ok(), rep.planned, rep.failure)
	}
}

// Both job layers serve a small contended burst with every job verified.
func TestJobCells(t *testing.T) {
	sh := shape{workers: 2, svcJobs: 64, svcBurst: 16, httpJobs: 16, httpBurst: 4}
	rig := newHTTPRig()
	defer rig.close()
	for _, traced := range []bool{false, true} {
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		for _, r := range []*httpRig{nil, rig} {
			jobs := sh.svcJobs
			if r != nil {
				jobs = sh.httpJobs
			}
			in := makeJobInputs(rand.New(rand.NewSource(1)), sh.workers, jobs)
			rep := runJobCell(sh, in, r, tr, true)
			if !rep.ok() || rep.acked != sh.workers*jobs {
				t.Errorf("http=%v traced=%v: ok=%v acked=%d failure=%q wrong=%q",
					r != nil, traced, rep.ok(), rep.acked, rep.failure, rep.wrong)
			}
		}
		if traced {
			st := tr.selfTimes()
			if len(st.svc) == 0 || len(st.httpServer) == 0 {
				t.Errorf("traced reps produced no self times: %+v", st)
			}
		}
	}
}

// A whole layer failing moves ok_share by an eighth, past its bound of a
// tenth, however few operations the layer plans next to the others.
func TestOkShareWeighsCellsEqually(t *testing.T) {
	r := &run{cells: map[string]*tally{}, failures: map[string]int{}}
	for _, e := range headline {
		r.account(80000, true, e, "", "")
	}
	r.account(4000, true, "svc", "", "")
	r.account(200, false, "http", "", "timeout")
	if got := r.okShare().value; got != 1-1.0/8 {
		t.Errorf("ok_share with http failing = %v, want 7/8", got)
	}
}

// A round on a host twice as slow as the reference box reads half its
// measured time and twice its measured rate.
func TestAtRefSpeed(t *testing.T) {
	r := &run{sh: shape{refNs: 100}, refNs: []float64{100, 200, 100}}
	if got := r.atRefSpeed([]float64{10, 20, 10}, false); got != 10 {
		t.Errorf("time: got %v, want 10", got)
	}
	if got := r.atRefSpeed([]float64{5, 2.5, 5}, true); got != 5 {
		t.Errorf("rate: got %v, want 5", got)
	}
}
