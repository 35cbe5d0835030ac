package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 3

// heapWatch samples the runtime's live heap every 10 ms while a run
// measures, and keeps each unit of work's peak. A single run-wide maximum
// depends on where the collector happened to mark relative to a unit's
// transient data; the median of the units' peaks does not.
type heapWatch struct {
	stop   chan struct{}
	done   chan struct{}
	cur    atomic.Uint64 // peak live bytes of the current unit
	peaks  []float64     // MiB, one per ended unit
	alloc0 uint64
}

var heapSamples = []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/heap/allocs:bytes"}}

func readHeap() (live, allocs uint64) {
	s := append([]metrics.Sample(nil), heapSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	_, h.alloc0 = readHeap()
	h.sample()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapWatch) sample() {
	live, _ := readHeap()
	for {
		old := h.cur.Load()
		if live <= old || h.cur.CompareAndSwap(old, live) {
			return
		}
	}
}

// endUnit closes the current unit of work's peak.
func (h *heapWatch) endUnit() {
	h.sample()
	h.peaks = append(h.peaks, float64(h.cur.Swap(0))/(1<<20))
}

// finish stops the sampler and returns the median unit peak of the live
// heap and the bytes allocated since watchHeap, both in MiB.
func (h *heapWatch) finish() (peakMiB, allocMiB float64) {
	close(h.stop)
	<-h.done
	_, alloc := readHeap()
	return median(h.peaks), float64(alloc-h.alloc0) / (1 << 20)
}

// closedLoop is a closed-loop, single-client workload: cold sessions
// back to back over a fixed pool of session seeds.
type closedLoop struct {
	name string
	// pool is the fixed session-seed list; expected digests exist for
	// every entry.
	pool []uint64
	// setUp performs one set-up repetition (the infrastructure the
	// sessions need plus a warm-up session) and returns what undoes it.
	setUp func(ctx context.Context, o runOpts) (stop func(), err error)
	// session runs the cold session of one pool seed: untraced when tr is
	// nil, else traced as root span session sid.
	session func(ctx context.Context, seed uint64, tr *tracer, sid int) (sessionResult, error)
	// layers fills the traced run's per-layer metrics that the spans do
	// not give, from the traced sessions' results and every output.
	layers func(rep *report, spans []span, traced []sessionResult, outs []sessionOutput)
}

// sessionResult is one session's output plus what the run reports about
// it: the untraced session's API call latencies (s), the traced session's
// layer counters.
type sessionResult struct {
	out    sessionOutput
	calls  []float64
	layers layerSample
}

// run measures the workload: set-up repeated setupReps times, then
// sessions over the seed-ordered pool until the measuring time is up. The
// traced run alternates each seed's traced and untraced session, so
// tracing overhead is measured on identical inputs.
func (w *closedLoop) run(ctx context.Context, o runOpts) (*report, error) {
	rep := newReport()
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	var (
		stop   func()
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		if stop != nil {
			stop()
		}
		t0 := time.Now()
		if stop, err = w.setUp(ctx, o); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer stop()

	if o.trace {
		rep.tr = newTracer()
	}
	order := seedOrder(w.pool, o.seed)
	// A run ends on a whole walk over the pool (each seed twice, traced
	// and untraced, in a traced run), so every run's sessions are the same
	// multiset and their median does not depend on where the time ran out.
	cycle := len(order) * (1 + boolInt(o.trace))
	var (
		sessions, traced []float64
		calls            [][]float64
		tracedResults    []sessionResult
		outs             []sessionOutput
		ms               runtime.MemStats
	)
	runtime.ReadMemStats(&ms)
	gc0, pause0 := ms.NumGC, ms.PauseTotalNs
	heap := watchHeap()
	start := time.Now()
	for k := 0; k%cycle != 0 || time.Since(start) < o.seconds; k++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := order[k%len(order)]
		var tr *tracer
		if o.trace {
			seed = order[(k/2)%len(order)]
			if k%2 == 0 {
				tr = rep.tr
			}
		}
		t0 := time.Now()
		res, err := w.session(ctx, seed, tr, k+1)
		d := time.Since(t0).Seconds()
		heap.endUnit()
		rep.attempted++
		if err == nil {
			err = digests.check(w.name, seed, res.out.digest())
		}
		if err == nil && res.layers.retries > 0 {
			err = fmt.Errorf("remote pool recovered %v times on a fault-free run", res.layers.retries)
		}
		if err != nil {
			rep.fail("session %d (seed %d, traced %v): %v", k+1, seed, tr != nil, err)
			continue
		}
		outs = append(outs, res.out)
		if tr != nil {
			traced = append(traced, d)
			tracedResults = append(tracedResults, res)
		} else {
			sessions = append(sessions, d)
			calls = append(calls, res.calls)
		}
	}
	elapsed := time.Since(start).Seconds()
	peak, alloc := heap.finish()
	if len(sessions) == 0 {
		return nil, fmt.Errorf("%s: no session completed (%d failed)", w.name, rep.failed)
	}
	if !o.trace {
		closedEndToEnd(rep, setups, sessions, elapsed, alloc, peak)
		rep.notes["call_p50_ms"] = callMedians(calls)
		return rep, nil
	}

	runtime.ReadMemStats(&ms)
	spans := rep.tr.snapshot()
	fillPerLayer(rep, spans, true)
	w.layers(rep, spans, tracedResults, outs)
	n := float64(rep.attempted)
	rep.metrics["runtime.gc_cycles_per_session"] = float64(ms.NumGC-gc0) / n
	rep.metrics["runtime.gc_pause_ms_per_session"] = float64(ms.PauseTotalNs-pause0) / 1e6 / n
	rep.metrics["trace.session_p50_s"] = median(traced)
	rep.metrics["trace.overhead_s"] = median(traced) - median(sessions)
	rep.notes["untraced_sessions"] = len(sessions)
	rep.notes["traced_sessions"] = len(traced)
	return rep, nil
}

// closedEndToEnd fills the end-to-end metrics of a closed-loop run from
// its set-up times and its untraced sessions' wall times (s), measured
// seconds and heap figures (MiB). The closed-loop client's request is a
// whole session: the API calls inside one are too unlike for their
// pooled percentiles to mean anything.
func closedEndToEnd(rep *report, setups, sessions []float64, elapsed, alloc, peak float64) {
	rep.metrics["setup_s"] = median(setups)
	rep.metrics["session_p50_s"] = median(sessions)
	tv, tp, beyond := tail(sessions)
	rep.metrics["session_tail_s"] = tv
	rep.notes["session_tail"] = fmt.Sprintf("p%.1f of %d sessions (%d beyond)", tp, len(sessions), beyond)
	rep.metrics["sessions_per_s"] = float64(len(sessions)) / elapsed
	rep.metrics["alloc_mib_per_session"] = alloc / float64(rep.attempted)
	rep.metrics["peak_heap_mib"] = peak
	rep.metrics["req_p50_ms"] = 1e3 * median(sessions)
	rep.metrics["req_p99_ms"] = 1e3 * p99OrTail(sessions)
	rep.metrics["max_rps"] = float64(len(sessions)) / elapsed
	rep.notes["setup_s_reps"] = setups
}

// callMedians formats the median latency of each API call position of the
// untraced sessions (calls holds them session by session).
func callMedians(calls [][]float64) string {
	var out []string
	for i, name := range callNames {
		var xs []float64
		for _, c := range calls {
			if i < len(c) {
				xs = append(xs, c[i])
			}
		}
		if len(xs) > 0 {
			out = append(out, fmt.Sprintf("%s %.3g", name, 1e3*median(xs)))
		}
	}
	return strings.Join(out, ", ")
}

// closedLayerCounters fills the per-layer counters the traced sessions
// collected (medians over sessions) and the capacity and schedule shapes
// of every output.
func closedLayerCounters(rep *report, traced []sessionResult, outs []sessionOutput, links int) {
	if len(traced) == 0 {
		return
	}
	col := func(f func(layerSample) float64) float64 {
		xs := make([]float64, len(traced))
		for i, r := range traced {
			xs[i] = f(r.layers)
		}
		return median(xs)
	}
	rep.metrics["core.sampled_triplets"] = col(func(s layerSample) float64 { return s.triplets })
	rep.metrics["scenario.pair_ns"] = col(func(s layerSample) float64 { return s.pairNs })
	rep.metrics["tier.index_candidates"] = col(func(s layerSample) float64 { return float64(s.tier.IndexCandidates) })
	rep.metrics["tier.indexed_rows"] = col(func(s layerSample) float64 { return float64(s.tier.IndexedRows) })
	rep.metrics["tier.index_exhausted"] = col(func(s layerSample) float64 { return float64(s.tier.IndexExhausted) })
	rep.metrics["tier.bytes"] = col(func(s layerSample) float64 { return float64(s.tier.TotalBytes()) })
	rep.metrics["remote.bytes_out"] = col(func(s layerSample) float64 { return s.bytesOut })
	rep.metrics["remote.bytes_in"] = col(func(s layerSample) float64 { return s.bytesIn })
	rep.metrics["remote.retries"] = col(func(s layerSample) float64 { return s.retries })
	var ratios, slots []float64
	for _, out := range outs {
		ratios = append(ratios, float64(len(out.Capacity))/float64(links))
		slots = append(slots, float64(len(out.Slots)))
	}
	rep.metrics["capacity.chosen_ratio"] = median(ratios)
	rep.metrics["schedule.slots"] = median(slots)
}

// regenerateDigests recomputes the expected digest of every pool session
// of every closed-loop workload through the untraced Engine path.
func regenerateDigests(path string) error {
	ctx := context.Background()
	t := make(digestTable)
	rig, err := startServe(0, false, nil)
	if err != nil {
		return err
	}
	defer rig.stop()
	batches, err := churnBatches(servedPool)
	if err != nil {
		return err
	}
	t["serve-session"] = make(map[string]string)
	for _, seed := range servedPool {
		out, err := rig.servedSession(servedConfig(seed), batches[seed])
		if err != nil {
			return fmt.Errorf("serve-session seed %d: %w", seed, err)
		}
		t["serve-session"][formatSeed(seed)] = out.digest()
	}
	for _, w := range []*closedWorkload{exactDense, urbanCity, remoteTiered} {
		var rig *remoteRig
		if w.remote {
			var err error
			if rig, err = startRemote(remoteWorkers); err != nil {
				return err
			}
		}
		t[w.name] = make(map[string]string)
		for _, seed := range w.pool {
			out, _, err := w.runSession(ctx, w.cfg(seed, false), rig)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, seed, err)
			}
			t[w.name][formatSeed(seed)] = out.digest()
		}
		if rig != nil {
			rig.stop()
		}
	}
	return writeDigests(path, t)
}
