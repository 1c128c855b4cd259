package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
)

// runSteady is the steadiness self-check: two sets of n runs of this
// binary on one workload, each run with its own seed. For every end-to-end
// metric it prints each set's median and spread — the distance between
// the first and third quartiles as a share of the median — and how far
// the second median moved from the first in the metric's worse
// direction, against the metric's bound. setup_s is held to both checks
// like every other metric. A run with a failed operation fails the check
// too: failures that vary from run to run leave two sets disagreeing on
// what they count. It returns the exit code: 0 when every check holds.
func runSteady(s spec, workload string, seconds, n int) int {
	exe, err := os.Executable()
	if err != nil {
		fatalf("find own binary: %v", err)
	}
	steal0, tot0 := cpuTicks()
	sets := [2]map[string][]float64{{}, {}}
	var attempted, failed [2]int
	for set := 0; set < 2; set++ {
		for i := 0; i < n; i++ {
			seed := set*n + i + 1
			var stdout bytes.Buffer
			cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.Itoa(seed),
				"--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fatalf("run seed %d: %v", seed, err)
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				fatalf("run seed %d: %v", seed, err)
			}
			attempted[set] += res.Attempted
			failed[set] += res.Failed
			for name, v := range res.values {
				sets[set][name] = append(sets[set][name], v)
			}
			fmt.Fprintf(os.Stderr, "ladder: steady %s set %d run %d/%d done\n", workload, set+1, i+1, n)
		}
	}
	steal, tot := cpuTicks()

	fmt.Printf("steadiness of %s: 2 sets of %d runs, %d s each; gomaxprocs=%d go=%s env.steal_share=%.4f\n",
		workload, n, seconds, runtime.GOMAXPROCS(0), runtime.Version(), ratio(float64(steal-steal0), float64(tot-tot0)))
	fmt.Printf("%-24s %6s %12s %12s %8s %8s %8s  %s\n", "metric", "bound", "median1", "median2", "spread1", "spread2", "drift", "verdict")
	code := 0
	fmt.Printf("failed operations: %d of %d in set 1, %d of %d in set 2\n", failed[0], attempted[0], failed[1], attempted[1])
	if failed[0] > 0 || failed[1] > 0 {
		fmt.Printf("FAIL: a workload must run without failed operations\n")
		code = 1
	}
	for _, m := range s.EndToEnd {
		a, b := sets[0][m.Name], sets[1][m.Name]
		if len(a) < 2 || len(b) < 2 {
			fatalf("metric %s: too few runs for quartiles", m.Name)
		}
		m1, m2 := median(a), median(b)
		s1, s2 := spread(a), spread(b)
		drift := ratio(m2-m1, m1)
		if m.Better == "higher" {
			drift = -drift
		}
		verdict := "ok"
		switch {
		case drift > m.Bound:
			verdict = "FAIL: second median worse by more than the bound"
		case max(s1, s2) > m.Bound:
			verdict = "FAIL: spread above the bound"
		case max(s1, s2) > m.Bound/3:
			verdict = "noisy: spread above a third of the bound"
		}
		if verdict != "ok" && verdict[0] == 'F' {
			code = 1
		}
		fmt.Printf("%-24s %6.3f %12.6g %12.6g %8.4f %8.4f %8.4f  %s\n", m.Name, m.Bound, m1, m2, s1, s2, drift, verdict)
	}
	return code
}

// spread is (Q3 - Q1) / median with the quartiles Python's
// statistics.quantiles(values, n=4) gives (its default "exclusive"
// method), so this check and an outside one agree.
func spread(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	m := len(d) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return ratio(q(3)-q(1), q(2))
}

// result is a run's last output line, with its metric values by name.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
	values map[string]float64
}

// lastResult parses a run's last output line.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("parse result line %q: %w", last, err)
	}
	if !res.Correct {
		return res, fmt.Errorf("run reported wrong outputs")
	}
	res.values = map[string]float64{}
	for name, v := range res.Metrics {
		res.values[name] = v.Value
	}
	return res, nil
}
