package main

import (
	"repro/internal/obs"
)

// endToEnd computes the metrics a user of the stack would see, from the
// untraced reps. Times and rates are at the reference box's speed (see
// ref.go). A failed rep gives the rate it reached on the operations it
// finished; okShare is what registers its failure.
func (r *run) endToEnd() map[string]metric {
	m := map[string]metric{
		"setup_s":      {r.atRefSpeed(r.setupS, false), "s", len(r.setupS)},
		"ok_share":     r.okShare(),
		"heap_peak_mb": {median(r.heapPeaks), "MB", len(r.heapPeaks)},
	}
	for _, e := range headline {
		qs := r.reps[e]
		m["pair_ns."+e] = metric{r.atRefSpeed(qs.each((*qrep).pairNs), false), "ns", len(qs)}
	}
	for layer, js := range map[string]jreps{"svc": r.svc[false], "http": r.http[false]} {
		var n int
		for i := range js {
			n += js[i].acked
		}
		m[layer+".jobs_per_s"] = metric{r.atRefSpeed(js.each((*jrep).jobsPerSec), true), "1/s", n}
		m[layer+".job_p50_us"] = metric{r.atRefSpeed(js.each(func(j *jrep) float64 { return j.jobP50 }), false) / 1e3, "us", n}
	}
	return m
}

// atRefSpeed is the median over rounds of xs[i], round i's value, scaled
// by how much slower than the reference box the host ran the reference
// rep of that round: divided by the slowdown for a time, multiplied by it
// for a rate (rate set).
func (r *run) atRefSpeed(xs []float64, rate bool) float64 {
	ys := make([]float64, len(xs))
	for i, x := range xs {
		slowdown := r.refNs[i] / r.sh.refNs
		if rate {
			ys[i] = x * slowdown
		} else {
			ys[i] = x / slowdown
		}
	}
	return median(ys)
}

// hostSpeed is the host's speed during the run relative to the reference
// box: the nominal reference time over the median measured one.
func (r *run) hostSpeed() metric {
	return metric{ratio(r.sh.refNs, median(r.refNs)), "share", len(r.refNs)}
}

// okShare is the mean over the end-to-end cells — the headline queues,
// svc and http — of each cell's verified-ok operations ÷ its attempted
// operations. Counting per operation within a cell and weighting cells
// equally keeps a cheap layer from hiding behind an expensive one: the
// Sharded-FAA cell plans hundreds of pairs for every HTTP job, so a
// failing HTTP layer would barely move a share pooled over all
// operations, while here it costs an eighth.
func (r *run) okShare() metric {
	var sum float64
	var n int
	for _, c := range append(append([]string{}, headline...), "svc", "http") {
		t := r.cells[c]
		sum += ratio(float64(t.ok), float64(t.attempted))
		n += t.attempted
	}
	return metric{sum / float64(len(headline)+2), "share", n}
}

// measured is the end-to-end time metrics as measured, without scaling
// to the reference box's speed, so that the per-layer metrics built from
// them compare with the traced reps' own measured times.
func (r *run) measured() map[string]metric {
	m := map[string]metric{}
	for _, e := range headline {
		m["pair_ns."+e] = r.reps[e].pairNs()
	}
	for layer, js := range map[string]jreps{"svc": r.svc[false], "http": r.http[false]} {
		m[layer+".jobs_per_s"] = js.median((*jrep).jobsPerSec, "1/s")
		m[layer+".job_p50_us"] = js.median(func(j *jrep) float64 { return j.jobP50 / 1e3 }, "us")
	}
	return m
}

// perLayer computes the per-layer metrics of the traced run. Counter
// ratios come from the traced reps' obs.Stats; times, allocations and
// empty-call shares from the untraced reps, so tracing does not bias them.
func (r *run) perLayer() map[string]metric {
	m := map[string]metric{}
	var gcCPU, cpu float64
	for _, e := range headline {
		traced, plain := r.reps[e+"#traced"], r.reps[e]
		m["queue.enq_ns.p50."+e] = traced.medianOf(func(q *qrep) (float64, int) { return q.enqP50, q.enqN })
		m["queue.deq_ns.p50."+e] = traced.medianOf(func(q *qrep) (float64, int) { return q.deqP50, q.deqN })
		snap := traced.snapshot()
		m["queue.cas_fail_ratio."+e] = metric{snap.CASFailureRate(), "share", int(snap.Counter(obs.CASAttempts))}
		var empties, deqCalls, allocs, pairs float64
		for _, q := range plain {
			empties += float64(q.empties)
			deqCalls += float64(q.deqCalls)
			allocs += q.rt1.allocObjs - q.rt0.allocObjs
			pairs += float64(q.completed)
			gcCPU += q.rt1.gcCPU - q.rt0.gcCPU
			cpu += q.rt1.totalCPU - q.rt0.totalCPU
		}
		m["queue.empty_deq_share."+e] = metric{ratio(empties, deqCalls), "share", int(deqCalls)}
		m["queue.allocs_per_pair."+e] = metric{ratio(allocs, pairs), "count", int(pairs)}
	}
	m["gc.cpu_share"] = metric{ratio(gcCPU, cpu), "share", len(headline) * len(r.reps[headline[0]])}

	tx := r.reps["SBQ-TxCAS#traced"].snapshot()
	m["queue.tx_soft_abort_share"] = metric{tx.TxSoftAbortRate(), "share",
		int(tx.Counter(obs.TxSoftAborts) + tx.Counter(obs.CASFailures))}
	sh := r.reps["Sharded-FAA#traced"].snapshot()
	var shDeqCalls uint64
	for _, q := range r.reps["Sharded-FAA#traced"] {
		shDeqCalls += q.deqCalls
	}
	m["sharded.steal_share"] = metric{sh.Rate(obs.DeqSteals, obs.DeqOps), "share", int(sh.Counter(obs.DeqOps))}
	m["sharded.steal_miss_share"] = metric{ratio(float64(sh.Counter(obs.DeqStealMisses)), float64(shDeqCalls)), "share", int(shDeqCalls)}

	for _, e := range others {
		m["queue.pair_ns."+e] = r.reps[e].pairNs()
	}
	for _, e := range append(append([]string{}, headline...), others...) {
		m["queue.pair_ns."+e+".pooled"] = r.reps[e+".pooled"].pairNs()
	}

	for layer, reps := range map[string]jreps{"svc": r.svc[false], "http": r.http[false]} {
		m[layer+".submit_us.p50"] = reps.median(func(j *jrep) float64 { return j.submitP50 / 1e3 }, "us")
		m[layer+".lease_us.p50"] = reps.median(func(j *jrep) float64 { return j.leaseP50 / 1e3 }, "us")
		m[layer+".ack_us.p50"] = reps.median(func(j *jrep) float64 { return j.ackP50 / 1e3 }, "us")
		m[layer+".job_p99_us"] = reps.median(func(j *jrep) float64 { return j.jobP99 / 1e3 }, "us")
		var allocs, bytes, jobs, empties, calls float64
		for _, j := range reps {
			allocs += j.rt1.allocObjs - j.rt0.allocObjs
			bytes += j.rt1.allocBytes - j.rt0.allocBytes
			jobs += float64(j.acked)
			empties += float64(j.empties)
			calls += float64(j.leaseCalls)
		}
		m[layer+".allocs_per_job"] = metric{ratio(allocs, jobs), "count", int(jobs)}
		if layer == "svc" {
			m["svc.empty_lease_share"] = metric{ratio(empties, calls), "share", int(calls)}
		} else {
			m["http.bytes_per_job"] = metric{ratio(bytes, jobs), "B", int(jobs)}
		}
	}
	var heapLen uint64
	var scrapes []float64
	for _, j := range r.svc[false] {
		heapLen = max(heapLen, j.leasesIssued)
		scrapes = append(scrapes, j.scrapeMs...)
	}
	// The deadline heap keeps every lease, settled or not, until LeaseTTL
	// (30 s) passes, and a rep's Service lives well under that: its heap
	// ends as long as the leases it issued.
	m["svc.deadline_heap_len"] = metric{float64(heapLen), "count", len(r.svc[false])}
	m["obs.scrape_ms"] = metric{median(scrapes), "ms", len(scrapes)}
	e2e := r.measured()
	// HTTP throughput with two clients swings with where the host puts the
	// two vCPUs; it did not repeat within a tenth across runs, so it is a
	// per-layer metric (see README.md).
	m["http.jobs_per_s"] = e2e["http.jobs_per_s"]
	m["http.overhead_us"] = metric{e2e["http.job_p50_us"].value - e2e["svc.job_p50_us"].value, "us", e2e["http.job_p50_us"].n}
	m["http.new_conns"] = metric{float64(r.rig.newConns.Load()), "count", 1}
	m["env.steal_share"] = metric{r.stealShare(), "share", 1}
	m["env.host_speed"] = r.hostSpeed()
	m["trace.overhead_share"] = r.traceOverhead(e2e)

	st := r.tr.selfTimes()
	for name, ns := range map[string][]int64{
		"queue_in_svc": st.svcQueue, "svc": st.svc, "http_server": st.httpServer, "http_client": st.httpClient,
	} {
		m["trace.self_us."+name] = metric{durQuantile(ns, 0.5) / 1e3, "us", len(ns)}
	}
	return m
}

// traceOverhead is the mean over the headline cells of the traced rep's
// time per operation relative to the untraced rep's, minus one.
func (r *run) traceOverhead(e2e map[string]metric) metric {
	var sum float64
	var cells int
	add := func(traced, plain float64) {
		if plain > 0 && traced > 0 {
			sum += traced/plain - 1
			cells++
		}
	}
	for _, e := range headline {
		add(r.reps[e+"#traced"].pairNs().value, e2e["pair_ns."+e].value)
	}
	perSec := func(j *jrep) float64 { return j.jobsPerSec() }
	add(e2e["svc.jobs_per_s"].value, jreps(r.svc[true]).median(perSec, "1/s").value)
	add(e2e["http.jobs_per_s"].value, jreps(r.http[true]).median(perSec, "1/s").value)
	return metric{ratio(sum, float64(cells)), "share", cells}
}

type qreps []qrep

// pairNs is the median over reps of qrep.pairNs, as measured.
func (qs qreps) pairNs() metric {
	return qs.medianOf(func(q *qrep) (float64, int) { return q.pairNs(), 1 })
}

// each is f of every rep, in round order.
func (qs qreps) each(f func(*qrep) float64) []float64 {
	xs := make([]float64, len(qs))
	for i := range qs {
		xs[i] = f(&qs[i])
	}
	return xs
}

// medianOf is the median of f over the reps that produced a value, with
// the summed sample counts.
func (qs qreps) medianOf(f func(*qrep) (float64, int)) metric {
	var xs []float64
	var n int
	for i := range qs {
		if v, k := f(&qs[i]); k > 0 && v > 0 {
			xs = append(xs, v)
			n += k
		}
	}
	return metric{median(xs), "ns", n}
}

func (qs qreps) snapshot() obs.Snapshot {
	var s obs.Snapshot
	for i := range qs {
		if qs[i].snap != nil {
			s.Merge(*qs[i].snap)
		}
	}
	return s
}

type jreps []jrep

// each is f of every rep, in round order.
func (js jreps) each(f func(*jrep) float64) []float64 {
	xs := make([]float64, len(js))
	for i := range js {
		xs[i] = f(&js[i])
	}
	return xs
}

// median is the median of f over every rep, failed ones included, as
// measured; the sample count is the jobs the reps acked.
func (js jreps) median(f func(*jrep) float64, unit string) metric {
	var xs []float64
	var n int
	for i := range js {
		xs = append(xs, f(&js[i]))
		n += js[i].acked
	}
	return metric{median(xs), unit, n}
}
