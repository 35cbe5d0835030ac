// Command compare sets two result sets of the end-to-end benchmark side by
// side: a parent and a change, each a directory of result files written by
// the benchmark (.bench_build/results by default). For every workload and
// end-to-end metric it prints each side's median and quartiles, the share
// of seed-paired runs the change wins, and a verdict under the bounds in
// BENCHMARK.json:
//
//	unresolved  the parent's own spread (quartile distance over median)
//	            exceeds the metric's bound, so no claim either way holds
//	worse       the change's median is worse than the parent's by more
//	            than the bound
//	better      the change wins at least 9 in 10 pairs and the medians
//	            differ by more than the parent's quartile distance
//	same        otherwise
//
// Usage, from the benchmark directory:
//
//	go run ./compare -bench ../BENCHMARK.json parent-results/ change-results/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type resultFile struct {
	Env struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Trace    bool   `json:"trace"`
		Commit   string `json:"commit"`
	} `json:"env"`
	Result struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"result"`
}

// runs maps workload → seed → metric → value of the untraced, correct runs
// in dir (the last file per seed wins).
type runs map[string]map[uint64]map[string]float64

func load(dir string) (runs, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := make(runs)
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rf.Env.Trace || !rf.Result.Correct {
			continue
		}
		w := rf.Env.Workload
		if out[w] == nil {
			out[w] = make(map[uint64]map[string]float64)
		}
		m := make(map[string]float64)
		for k, v := range rf.Result.Metrics {
			m[k] = v.Value
		}
		out[w][rf.Env.Seed] = m
	}
	return out, nil
}

// quartiles returns the quartiles as Python's
// statistics.quantiles(xs, n=4) computes them (the default "exclusive"
// method, clamping included), and the median.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := min(max(i*m/n, 1), ld-1)
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	if ld%2 == 1 {
		med = s[ld/2]
	} else {
		med = (s[ld/2-1] + s[ld/2]) / 2
	}
	return at(1), med, at(3)
}

func main() {
	bench := flag.String("bench", "../BENCHMARK.json", "BENCHMARK.json with the metric bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-bench BENCHMARK.json] parent-dir change-dir")
		os.Exit(2)
	}
	b, err := os.ReadFile(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	var spec benchSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "compare:", *bench+":", err)
		os.Exit(1)
	}
	parent, err := load(flag.Arg(0))
	if err == nil {
		var change runs
		change, err = load(flag.Arg(1))
		if err == nil {
			report(spec, parent, change)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
}

func report(spec benchSpec, parent, change runs) {
	var workloads []string
	for w := range parent {
		if change[w] != nil {
			workloads = append(workloads, w)
		}
	}
	sort.Strings(workloads)
	fmt.Printf("%-14s %-22s %28s %28s %6s  %s\n", "workload", "metric", "parent median [q1,q3]", "change median [q1,q3]", "wins", "verdict")
	for _, w := range workloads {
		for _, m := range spec.EndToEnd {
			var pv, cv []float64
			wins, pairs := 0, 0
			for seed, pm := range parent[w] {
				pv = append(pv, pm[m.Name])
				if cm, ok := change[w][seed]; ok {
					pairs++
					d := cm[m.Name] - pm[m.Name]
					if (m.Better == "lower" && d < 0) || (m.Better == "higher" && d > 0) {
						wins++
					}
				}
			}
			for _, cm := range change[w] {
				cv = append(cv, cm[m.Name])
			}
			pq1, pmed, pq3 := quartiles(pv)
			cq1, cmed, cq3 := quartiles(cv)
			worse := cmed - pmed
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case pmed == 0 || (pq3-pq1)/pmed > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound*pmed:
				verdict = "worse"
			case pairs > 0 && 10*wins >= 9*pairs && -worse > pq3-pq1:
				verdict = "better"
			}
			winFrac := "-"
			if pairs > 0 {
				winFrac = fmt.Sprintf("%d/%d", wins, pairs)
			}
			fmt.Printf("%-14s %-22s %28s %28s %6s  %s\n", w, m.Name+" ("+m.Unit+")",
				fmt.Sprintf("%.4g [%.4g,%.4g]", pmed, pq1, pq3), fmt.Sprintf("%.4g [%.4g,%.4g]", cmed, cq1, cq3),
				winFrac, verdict)
		}
		fmt.Println(strings.Repeat("-", 120))
	}
}
