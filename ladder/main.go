// Command ladder is the repository's end-to-end benchmark. It drives one
// closed-loop "job" through every layer of the stack — the native queues
// (repro/queue via repro/queue/registry), the sharded front-end
// (repro/queue/sharded), the in-process job service (repro/service) and
// the same service over loopback HTTP — under one of three workloads, and
// verifies every output. See README.md for the workloads, the metrics and
// the measured ladder.
//
// Run it from the root of a checkout through run.sh, which builds it:
//
//	bash ladder/run.sh --workload solo --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries the
// per-layer metrics of a separate, traced run, whose spans are written to
// --spans. --steady N runs the self-check instead (see steady.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ladder: "+format+"\n", args...)
	os.Exit(1)
}

// beginRep collects the previous rep's garbage, so every rep starts from
// the same heap, and returns the runtime counters at the start.
func beginRep() rtSample {
	runtime.GC()
	return readRuntime()
}

// shards is the shard count of every sharded queue the benchmark builds,
// the service's included: the entries' default (GOMAXPROCS) on an
// unconstrained process, fixed so that solo's single P does not change
// the queue's shape.
var shards = runtime.NumCPU()

func main() {
	workload := flag.String("workload", "", "workload: solo, contended or backlog")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "measurement time in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	spans := flag.String("spans", "", "file for the traced run's spans (default .bench_build/spans/<workload>-<seed>.jsonl)")
	steady := flag.Int("steady", 0, "self-check: run two sets of N runs and compare their spreads with the bounds")
	flag.Parse()

	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatalf("%v", err)
	}
	sh, ok := shapes[*workload]
	if !ok {
		fatalf("unknown workload %q (have solo, contended, backlog)", *workload)
	}
	// One P per client: on solo the GC's work and the HTTP server's
	// goroutines share the client's core instead of borrowing an idle
	// one, so solo prices the whole per-operation cost on one core and
	// does not depend on how busy the host keeps the other.
	runtime.GOMAXPROCS(sh.workers)
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fatalf("--seconds must be >= 1 and --trace 0 or 1")
	}
	if *steady > 0 {
		os.Exit(runSteady(spec, *workload, *seconds, *steady))
	}
	if *spans == "" {
		*spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", sh.name, *seed)
	}

	r := newRun(sh, *seed, *traced == 1)
	r.measure(time.Duration(*seconds) * time.Second)
	r.close()

	want, got := spec.EndToEnd, map[string]metric(nil)
	if r.tr == nil {
		got = r.endToEnd()
	} else {
		want, got = spec.PerLayer, r.perLayer()
		if err := r.tr.write(*spans); err != nil {
			fatalf("write spans: %v", err)
		}
		fmt.Printf("spans: %d written to %s (%d dropped past the cap)\n", len(r.tr.spans), *spans, r.tr.dropped)
	}
	r.report(want, got)
}

// metric is one computed value with its unit and sample count.
type metric struct {
	value float64
	unit  string
	n     int
}

// run is one invocation of the benchmark: a workload, a seed, and every
// rep it measured.
type run struct {
	sh            shape
	rng           *rand.Rand
	tr            *tracer // traced run only
	rig           *httpRig
	svcIn, httpIn *jobInputs
	// The set-up's warm-up pass: an eighth of the workload and its inputs.
	warm                  shape
	warmSvcIn, warmHTTPIn *jobInputs

	ref    *refCell
	refNs  []float64 // each round's reference rep
	setupS []float64
	reps   map[string]qreps // by cell name; traced reps under name+"#traced"
	svc    map[bool]jreps   // by traced
	http   map[bool]jreps

	attempted, ok int
	cells         map[string]*tally // by cell name, as reps
	wrong         []string
	failures      map[string]int
	// roundPeak is the highest heap sample of the round in progress;
	// heapPeaks holds each finished round's, in MiB.
	roundPeak    uint64
	heapPeaks    []float64
	steal0, tot0 uint64
}

func newRun(sh shape, seed int64, traced bool) *run {
	r := &run{
		sh:       sh,
		rng:      rand.New(rand.NewSource(seed)),
		reps:     map[string]qreps{},
		svc:      map[bool]jreps{},
		http:     map[bool]jreps{},
		cells:    map[string]*tally{},
		failures: map[string]int{},
	}
	if traced {
		r.tr = newTracer()
	}
	r.steal0, r.tot0 = cpuTicks()
	r.ref = &refCell{workers: sh.workers}
	r.setup()
	return r
}

// warm is the workload at an eighth of its size: set-up drives it
// through every headline cell once, so code, caches and lazily built state
// are warm before the first timed rep.
func (s shape) warm() shape {
	w := s
	w.pairs, w.burst = s.pairs/8, s.burst/8
	w.svcJobs, w.svcBurst = s.svcJobs/8, s.svcBurst/8
	w.httpJobs, w.httpBurst = s.httpJobs/8, s.httpBurst/8
	return w
}

// setup makes the run's inputs and its first set-up, whose HTTP rig the
// measurement keeps. measure repeats the set-up once per round, so
// setup_s is a median over as many set-ups as there are rounds, taken
// under the same host conditions as the reps around them.
func (r *run) setup() {
	r.warm = r.sh.warm()
	r.warmSvcIn = makeJobInputs(r.rng, r.warm.workers, r.warm.svcJobs)
	r.warmHTTPIn = makeJobInputs(r.rng, r.warm.workers, r.warm.httpJobs)
	r.svcIn = makeJobInputs(r.rng, r.sh.workers, r.sh.svcJobs)
	r.httpIn = makeJobInputs(r.rng, r.sh.workers, r.sh.httpJobs)
	r.rig = r.setupRep()
}

// setupRep builds and warms every layer once — queue builds, service.New,
// the listener and its dials, and a warm-up pass through every headline
// cell and both job layers — records its time, and returns its HTTP rig.
func (r *run) setupRep() *httpRig {
	runtime.GC()
	start := time.Now()
	for _, e := range headline {
		runQueueCell(e, false, r.warm, r.base(), nil)
	}
	runJobCell(r.warm, r.warmSvcIn, nil, nil, false)
	rig := newHTTPRig()
	runJobCell(r.warm, r.warmHTTPIn, rig, nil, false)
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	return rig
}

func (r *run) close() { r.rig.close() }

// base draws a rep's queue value base: seeded, above every sampled job id
// and leaving room for the sequence numbers below bit 48.
func (r *run) base() uint64 { return 1<<32 | uint64(r.rng.Int63n(1<<40)) }

// measure runs whole rounds until d has passed. A round runs a set-up
// (from the second round on), the reference cell, and then every cell
// once, in a fixed order, with a GC before each rep; the traced run pairs
// each headline rep with a traced one and adds the per-layer-only cells.
func (r *run) measure(d time.Duration) {
	deadline := time.Now().Add(d)
	for first := true; time.Now().Before(deadline); first = false {
		if !first {
			r.setupRep().close()
		}
		r.refNs = append(r.refNs, r.ref.rep())
		for _, e := range headline {
			r.queueRep(e, e, false, nil)
			if r.tr != nil {
				r.queueRep(e+"#traced", e, false, r.tr)
			}
		}
		r.jobRep(nil, false)
		r.jobRep(r.rig, false)
		r.heapPeaks = append(r.heapPeaks, float64(r.roundPeak)/(1<<20))
		r.roundPeak = 0
		if r.tr == nil {
			continue
		}
		r.jobRep(nil, true)
		r.jobRep(r.rig, true)
		for _, e := range others {
			r.queueRep(e, e, false, nil)
		}
		for _, e := range append(append([]string{}, headline...), others...) {
			r.queueRep(e+".pooled", e, true, nil)
		}
	}
}

// tally counts one cell's planned operations and the verified-ok ones.
type tally struct{ attempted, ok int }

func (r *run) account(planned int, ok bool, cell, wrong, failure string) {
	t := r.cells[cell]
	if t == nil {
		t = &tally{}
		r.cells[cell] = t
	}
	t.attempted += planned
	r.attempted += planned
	if ok {
		t.ok += planned
		r.ok += planned
	}
	if wrong != "" {
		r.wrong = append(r.wrong, cell+": "+wrong)
	}
	if failure != "" {
		if r.failures[cell] == 0 {
			fmt.Fprintf(os.Stderr, "ladder: %s: %s\n", cell, failure)
		}
		r.failures[cell]++
	}
}

func (r *run) queueRep(cell, entry string, pooled bool, tr *tracer) {
	if tr != nil {
		tr.rep.Add(1)
	}
	rep := runQueueCell(entry, pooled, r.sh, r.base(), tr)
	r.account(rep.planned, rep.ok(), cell, rep.wrong, rep.failure)
	r.roundPeak = max(r.roundPeak, rep.heapPeak)
	r.reps[cell] = append(r.reps[cell], rep)
}

func (r *run) jobRep(rig *httpRig, traced bool) {
	var tr *tracer
	if traced {
		tr = r.tr
		tr.rep.Add(1)
	}
	in, m, cell := r.svcIn, r.svc, "svc"
	if rig != nil {
		in, m, cell = r.httpIn, r.http, "http"
	}
	if traced {
		cell += "#traced"
	}
	rep := runJobCell(r.sh, in, rig, tr, r.tr != nil && !traced && rig == nil)
	r.account(rep.planned, rep.ok(), cell, rep.wrong, rep.failure)
	r.roundPeak = max(r.roundPeak, rep.heapPeak)
	m[traced] = append(m[traced], rep)
}

// report prints every metric of want as a table with sample counts, then
// the result line.
func (r *run) report(want []specMetric, got map[string]metric) {
	out := map[string]any{}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			fatalf("metric %s is in BENCHMARK.json but was not computed", w.Name)
		}
		if m.unit != w.Unit {
			fatalf("metric %s: unit %q, BENCHMARK.json says %q", w.Name, m.unit, w.Unit)
		}
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fatalf("metric %s is %v", w.Name, m.value)
		}
		fmt.Printf("%-36s %14.6g %-6s n=%d\n", w.Name, m.value, m.unit, m.n)
		out[w.Name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	cells := make([]string, 0, len(r.failures))
	for c := range r.failures {
		cells = append(cells, c)
	}
	sort.Strings(cells)
	for _, c := range cells {
		fmt.Printf("failed reps: %s %d\n", c, r.failures[c])
	}
	for _, w := range r.wrong {
		fmt.Printf("wrong output: %s\n", w)
	}
	fmt.Printf("env: gomaxprocs=%d go=%s steal_share=%.4f ref_rep_ms=%.4f host_speed=%.4f\n", runtime.GOMAXPROCS(0),
		runtime.Version(), r.stealShare(), median(r.refNs)/1e6, r.hostSpeed().value)
	line, err := json.Marshal(map[string]any{
		"correct":   len(r.wrong) == 0,
		"attempted": r.attempted,
		"failed":    r.attempted - r.ok,
		"metrics":   out,
	})
	if err != nil {
		fatalf("encode result: %v", err)
	}
	fmt.Println(string(line))
}

func (r *run) stealShare() float64 {
	steal, tot := cpuTicks()
	return ratio(float64(steal-r.steal0), float64(tot-r.tot0))
}
