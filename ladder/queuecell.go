package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/queue"
	"repro/queue/registry"
)

// cellTimeout bounds one rep of any cell. A rep that has not finished by
// then is cancelled and counted as failed; reps normally take well under a
// second. Tests shorten it.
var cellTimeout = 10 * time.Second

// Queue values encode (producer, seq): the producer in the top 16 bits,
// the seeded base plus the producer's sequence number below.
const seqBits = 48

func encode(producer int, seq uint64) uint64 { return uint64(producer)<<seqBits | seq }

// qrep is one rep of a queue cell.
type qrep struct {
	elapsed   time.Duration
	planned   int // pairs
	completed int // pairs: (enqueues + dequeues) / 2
	failure   string
	wrong     string // outputs failed verification
	deqCalls  uint64
	empties   uint64
	rt0, rt1  rtSample
	heapPeak  uint64
	// Traced reps: the median enqueue and successful-dequeue call times
	// and how many calls each median covers.
	enqP50, deqP50 float64
	enqN, deqN     int
	snap           *obs.Snapshot
}

func (r *qrep) ok() bool { return r.failure == "" && r.wrong == "" }

// pairNs is the rep's wall time per completed pair. A rep cut short by a
// panic reports the rate it reached before the panic: every loop checks
// the cancel flag, so the rep stops soon after the panic, and half its
// enqueues plus half its dequeues count as pairs.
func (r *qrep) pairNs() float64 {
	return ratio(float64(r.elapsed.Nanoseconds()), float64(r.completed))
}

type qworker struct {
	id       int
	p, c     queue.BatchQueue[uint64]
	enqs     int
	out      []uint64
	deqCalls uint64
	empties  uint64
	heapPeak uint64
	enqNs    []int64
	deqNs    []int64
	panicked string
}

// runQueueCell builds entry afresh and drives one rep of sh through it.
// With tr non-nil the rep is traced: the queue records into an obs.Stats,
// every call is timed, and the first spanOps calls of each worker become
// spans.
func runQueueCell(entry string, pooled bool, sh shape, base uint64, tr *tracer) qrep {
	sh.pairs *= max(repScale[entry], 1)
	if soloEntries[entry] {
		sh.workers = 1
	}
	cfg := registry.Config{Producers: sh.workers, Shards: shards, Pooled: pooled}
	var stats *obs.Stats
	if tr != nil {
		stats = obs.New()
		cfg.Recorder = stats
	}
	inst, err := registry.Build(entry, cfg)
	if err != nil {
		fatalf("build %s: %v", entry, err)
	}
	// Each client dequeues through the consumer view homed on the next
	// client's shard, as an independent consumer would: on a sharded entry
	// it takes the other client's elements first and steals when its home
	// runs dry. Unsharded entries hand every client the same view.
	ws := make([]*qworker, sh.workers)
	for i := range ws {
		ws[i] = &qworker{id: i, p: inst.ProducerView(i), c: inst.ConsumerView((i + 1) % sh.workers),
			out: make([]uint64, 0, sh.pairs)}
		if tr != nil {
			ws[i].enqNs = make([]int64, 0, sh.pairs)
			ws[i].deqNs = make([]int64, 0, sh.pairs)
		}
	}
	rep := qrep{planned: sh.workers * sh.pairs}
	var stop atomic.Bool
	rep.rt0 = beginRep()
	rep.elapsed, rep.failure = runWorkers(len(ws), &stop, func(i int) { ws[i].run(sh, base, &stop, tr) })
	rep.rt1 = readRuntime()
	rep.heapPeak = uint64(rep.rt1.heapObjects)

	var enqNs, deqNs []int64
	for _, w := range ws {
		rep.completed += w.enqs + len(w.out)
		rep.deqCalls += w.deqCalls
		rep.empties += w.empties
		enqNs = append(enqNs, w.enqNs...)
		deqNs = append(deqNs, w.deqNs...)
		rep.heapPeak = max(rep.heapPeak, w.heapPeak)
		if rep.failure == "" && w.panicked != "" {
			rep.failure = "panic: " + w.panicked
		}
	}
	rep.completed /= 2
	outs := make([][]uint64, len(ws))
	for i, w := range ws {
		outs[i] = w.out
	}
	rep.wrong = verifyQueue(outs, sh.workers, sh.pairs, base, rep.failure == "")
	if stats != nil {
		snap := stats.Snapshot()
		rep.snap = &snap
		rep.enqP50, rep.enqN = durQuantile(enqNs, 0.5), len(enqNs)
		rep.deqP50, rep.deqN = durQuantile(deqNs, 0.5), len(deqNs)
	}
	return rep
}

// run is one worker's closed loop: enqueue a burst (one element when the
// shape has no burst), then dequeue as many elements as it enqueued. Every
// dequeue retry checks stop, so a queue that lost an element cannot leave
// the worker spinning.
func (w *qworker) run(sh shape, base uint64, stop *atomic.Bool, tr *tracer) {
	defer func() {
		if r := recover(); r != nil {
			w.panicked = fmt.Sprint(r)
			stop.Store(true)
		}
	}()
	burst := max(sh.burst, 1)
	for seq := 0; seq < sh.pairs; seq += burst {
		n := min(burst, sh.pairs-seq)
		for i := 0; i < n; i++ {
			if stop.Load() {
				return
			}
			v := encode(w.id, base+uint64(seq+i))
			w.enqs++
			if tr == nil {
				w.p.Enqueue(v)
				continue
			}
			t0 := nowNs()
			w.p.Enqueue(v)
			t1 := nowNs()
			w.enqNs = append(w.enqNs, t1-t0)
			if seq+i < spanOps {
				tr.add(span{kind: spQueueEnq, start: t0, end: t1, job: v})
			}
		}
		if sh.burst > 0 {
			w.heapPeak = max(w.heapPeak, heapObjectsBytes())
		}
		for got := 0; got < n; {
			var t0 int64
			if tr != nil {
				t0 = nowNs()
			}
			v, ok := w.c.Dequeue()
			w.deqCalls++
			if !ok {
				w.empties++
				if stop.Load() {
					return
				}
				continue
			}
			if tr != nil {
				t1 := nowNs()
				w.deqNs = append(w.deqNs, t1-t0)
				if len(w.deqNs) <= spanOps {
					tr.add(span{kind: spQueueDeq, start: t0, end: t1, job: v})
				}
			}
			w.out = append(w.out, v)
			got++
		}
	}
}

// runWorkers runs fn(0..n-1) on n goroutines and waits for them. The
// clock starts once every goroutine is running and stops when the last
// one returns, so neither goroutine start-up nor the wake-up of the
// waiting goroutine is timed. After cellTimeout it raises stop and waits
// once more; a worker still stuck inside a layer after that is abandoned.
// The failure text is empty when every worker returned in time.
func runWorkers(n int, stop *atomic.Bool, fn func(i int)) (elapsed time.Duration, failure string) {
	var wg sync.WaitGroup
	var ready atomic.Int32
	var begin atomic.Bool
	ends := make([]atomic.Int64, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			defer func() { ends[i].Store(nowNs()) }()
			ready.Add(1)
			for !begin.Load() {
				runtime.Gosched()
			}
			fn(i)
		}(i)
	}
	for ready.Load() < int32(n) {
		runtime.Gosched()
	}
	start := nowNs()
	begin.Store(true)
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		var end int64
		for i := range ends {
			end = max(end, ends[i].Load())
		}
		return time.Duration(end - start), ""
	case <-time.After(cellTimeout):
	}
	stop.Store(true)
	select {
	case <-done:
		failure = fmt.Sprintf("timeout after %v", cellTimeout)
	case <-time.After(cellTimeout):
		failure = fmt.Sprintf("timeout after %v; a worker is stuck inside the layer", cellTimeout)
	}
	return time.Duration(nowNs() - start), failure
}

// verifyQueue checks the multiset and order of what each consumer
// dequeued: every value decodes to a known (producer, seq), no value is
// dequeued twice, and each consumer sees each producer's values in
// enqueue order (the contract of both TotalFIFO and PerProducerFIFO
// entries). When complete is set, every enqueued value must also have come
// out. It returns "" when the outputs are correct.
func verifyQueue(outs [][]uint64, producers, pairs int, base uint64, complete bool) string {
	seen := make([][]bool, producers)
	for p := range seen {
		seen[p] = make([]bool, pairs)
	}
	mask := uint64(1)<<seqBits - 1
	for c, out := range outs {
		last := make([]int, producers)
		for p := range last {
			last[p] = -1
		}
		for _, v := range out {
			p, s := int(v>>seqBits), int(v&mask-base)
			if p >= producers || v&mask < base || s >= pairs {
				return fmt.Sprintf("consumer %d dequeued unknown value %#x", c, v)
			}
			if seen[p][s] {
				return fmt.Sprintf("value (producer %d, seq %d) dequeued twice", p, s)
			}
			seen[p][s] = true
			if s < last[p] {
				return fmt.Sprintf("consumer %d saw producer %d's seq %d after seq %d", c, p, s, last[p])
			}
			last[p] = s
		}
	}
	if complete {
		for p := range seen {
			for s, ok := range seen[p] {
				if !ok {
					return fmt.Sprintf("value (producer %d, seq %d) was never dequeued", p, s)
				}
			}
		}
	}
	return ""
}
