// Command e2ebench is decaynet's end-to-end benchmark. It runs one named
// workload against the public decaynet API (and, in the traced run, the
// layers' exported functions), checks every output against expected
// digests or a library mirror, and prints each metric by name and unit.
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with -trace 1 they are the per-layer ones from a traced run.
// A result file with the run environment is written under -out/results,
// and the traced run's spans under -out/traces. Run it through run.sh,
// which builds it from the checkout first:
//
//	bash benchmark/run.sh --workload urban-city --seed 1 --seconds 20 --trace 0
//
// See METRICS.md for the workloads, metrics and layers.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(ctx context.Context, o runOpts) (*report, error){
	exactDense.name:   exactDense.loop().run,
	urbanCity.name:    urbanCity.loop().run,
	remoteTiered.name: remoteTiered.loop().run,
	serveSession.name: serveSession.run,
	"serve-churn":     runServeChurn,
}

type runOpts struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string
}

// report is a run's outcome before formatting.
type report struct {
	attempted, failed int
	errors            []string
	metrics           map[string]float64
	// notes are extra facts printed with the metrics and kept in the
	// result file (sample counts, tail percentiles, ladder steps).
	notes map[string]any
	tr    *tracer
}

func newReport() *report {
	return &report{metrics: make(map[string]float64), notes: make(map[string]any)}
}

// fail records a failed unit of work with its reason (the first few
// reasons are kept).
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.errors) < 20 {
		r.errors = append(r.errors, fmt.Sprintf(format, args...))
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line; the key order is the contract's.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(mainErr(os.Stdout, os.Stderr))
}

func mainErr(stdout, stderr io.Writer) int {
	var (
		workload     = flag.String("workload", "", "workload name (exact-dense, urban-city, remote-tiered, serve-session, serve-churn)")
		seed         = flag.Uint64("seed", 1, "workload seed")
		seconds      = flag.Int("seconds", 20, "measured seconds")
		trace        = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root         = flag.String("root", ".", "repository checkout root")
		out          = flag.String("out", ".bench_build", "directory for result files and traces")
		writeDigests = flag.Bool("write-digests", false, "recompute every pool session's digest into benchmark/digests.json and exit")
	)
	flag.Parse()
	runtime.GOMAXPROCS(runtime.NumCPU())

	if *writeDigests {
		if err := regenerateDigests(filepath.Join(*root, "benchmark", "digests.json")); err != nil {
			fmt.Fprintln(stderr, "e2ebench:", err)
			return 1
		}
		return 0
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need -workload one of %v, -seconds ≥ 1, -trace 0|1\n", workloadNames())
		return 2
	}
	opts := runOpts{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	env := captureEnv(*root, *workload, *seed, *seconds, opts.trace)

	// Every run must end well inside the 180 s budget, stuck or not.
	ctx, cancel := context.WithTimeout(context.Background(), opts.seconds+120*time.Second)
	defer cancel()
	rep, err := run(ctx, opts)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	catalog := endToEnd
	if opts.trace {
		catalog = perLayer
	}
	res := result{Correct: rep.failed == 0, Attempted: rep.attempted, Failed: rep.failed, Metrics: make(map[string]metricValue)}
	for _, m := range catalog {
		v, ok := rep.metrics[m.name]
		if !ok {
			fmt.Fprintf(stderr, "e2ebench: %s did not produce metric %s\n", *workload, m.name)
			return 1
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	if rep.attempted < 1 {
		fmt.Fprintln(stderr, "e2ebench: no work attempted")
		return 1
	}

	printHuman(stdout, env, rep, res, catalog)
	if err := writeResult(opts.out, env, rep, res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printHuman(w io.Writer, env runEnv, rep *report, res result, catalog []metricDef) {
	fmt.Fprintf(w, "workload %s seed %d trace %v: commit %s, source %.12s, %s, GOMAXPROCS %d, nproc %d, %s\n",
		env.Workload, env.Seed, env.Trace, env.Commit, env.SourceHash, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel)
	fmt.Fprintf(w, "attempted %d, failed %d, failed_ratio %.4g\n", rep.attempted, rep.failed, float64(rep.failed)/float64(max(rep.attempted, 1)))
	for _, e := range rep.errors {
		fmt.Fprintln(w, "  FAILED:", e)
	}
	for _, m := range catalog {
		fmt.Fprintf(w, "  %-34s %14.6g %s\n", m.name, res.Metrics[m.name].Value, m.unit)
	}
	keys := make([]string, 0, len(rep.notes))
	for k := range rep.notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  note %s: %v\n", k, rep.notes[k])
	}
}

// resultFile is what a run writes under out/results: the environment,
// the final result and the extra notes. The compare helper reads these.
type resultFile struct {
	Env    runEnv         `json:"env"`
	Result result         `json:"result"`
	Errors []string       `json:"errors,omitempty"`
	Notes  map[string]any `json:"notes"`
	Spans  string         `json:"spans,omitempty"`
}

func writeResult(out string, env runEnv, rep *report, res result) error {
	stamp := time.Now().UTC().Format("20060102T150405.000000000")
	base := fmt.Sprintf("%s-seed%d-trace%d-%s", env.Workload, env.Seed, boolInt(env.Trace), stamp)
	rf := resultFile{Env: env, Result: res, Errors: rep.errors, Notes: rep.notes}
	if rep.tr != nil {
		dir := filepath.Join(out, "traces")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		rf.Spans = filepath.Join(dir, base+".jsonl")
		if err := rep.tr.write(rf.Spans); err != nil {
			return err
		}
	}
	dir := filepath.Join(out, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".json"), append(b, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
