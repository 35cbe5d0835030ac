package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i) // descending, so tail must sort
		}
		return out
	}
	for _, tc := range []struct {
		n          int
		want, pct  float64
		wantBeyond int
	}{
		{n: 30, want: 20, pct: 100 * 20.0 / 30, wantBeyond: 10},
		{n: 20, want: 10, pct: 50, wantBeyond: 10},
		{n: 1000, want: 990, pct: 99, wantBeyond: 10},
		// Under twenty samples no percentile above the median has ten
		// beyond it: the maximum is reported instead.
		{n: 19, want: 19, pct: 100, wantBeyond: 0},
		{n: 1, want: 1, pct: 100, wantBeyond: 0},
	} {
		v, pct, beyond := tail(xs(tc.n))
		if v != tc.want || math.Abs(pct-tc.pct) > 1e-9 || beyond != tc.wantBeyond {
			t.Errorf("tail(n=%d) = (%v, p%v, %d beyond), want (%v, p%v, %d)", tc.n, v, pct, beyond, tc.want, tc.pct, tc.wantBeyond)
		}
		if tc.wantBeyond > 0 {
			above := 0
			for _, x := range xs(tc.n) {
				if x > v {
					above++
				}
			}
			if above != tc.wantBeyond {
				t.Errorf("n=%d: %d samples beyond the tail value, want %d", tc.n, above, tc.wantBeyond)
			}
		}
	}
}

func TestP99FallsBackToTailBelowAThousand(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := p99OrTail(xs); got != 989 {
		t.Errorf("999 samples: %v, want the 11th largest (989)", got)
	}
	xs = append(xs, 1000)
	if got := p99OrTail(xs); got != 990 {
		t.Errorf("1000 samples: %v, want the p99 (990)", got)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for q, want := range map[float64]float64{0.2: 1, 0.5: 3, 0.99: 5, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if !slices.Equal(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("quantile reordered its input")
	}
}

// A stalled request must charge its stall to every request queued behind
// it: latency runs from the due time, not from when the request was sent.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		stall = 300 * time.Millisecond
		gap   = 10 * time.Millisecond
		n     = 20
	)
	var arrivals []arrival
	for i := 0; i < n; i++ {
		arrivals = append(arrivals, arrival{At: time.Duration(i) * gap, Queue: 0, Op: i})
		// An unrelated queue keeps its own pace.
		arrivals = append(arrivals, arrival{At: time.Duration(i)*gap + gap/2, Queue: 1, Op: -1})
	}
	start := time.Now()
	samples := openLoop(start, arrivals, 2, start.Add(time.Minute), func(a arrival) bool {
		if a.Op == 0 {
			time.Sleep(stall)
		}
		return true
	})
	for i, s := range samples {
		a := arrivals[i]
		if !s.OK || s.Dropped {
			t.Fatalf("arrival %d: ok=%v dropped=%v", i, s.OK, s.Dropped)
		}
		if a.Queue == 1 {
			if s.latency() > stall/3 {
				t.Errorf("unrelated queue request at %v took %v", a.At, s.latency())
			}
			continue
		}
		// Request k on the stalled queue was due at k·gap and could only
		// start once the stall ended at ≥ stall.
		if min := stall - a.At; s.latency() < min {
			t.Errorf("queued request %d: latency %v < %v left of the stall", a.Op, s.latency(), min)
		}
		if a.Op > 0 && s.Done.Sub(s.Sent) > stall/3 {
			t.Errorf("request %d: service %v, want near zero (the wait is queueing)", a.Op, s.Done.Sub(s.Sent))
		}
	}
}

func TestOpenLoopDropsAfterAbandon(t *testing.T) {
	arrivals := []arrival{{At: 0}, {At: time.Millisecond}, {At: 2 * time.Millisecond}}
	start := time.Now()
	samples := openLoop(start, arrivals, 1, start.Add(20*time.Millisecond), func(a arrival) bool {
		time.Sleep(50 * time.Millisecond)
		return true
	})
	if samples[0].Dropped || !samples[1].Dropped || !samples[2].Dropped {
		t.Fatalf("dropped = %v %v %v, want false true true", samples[0].Dropped, samples[1].Dropped, samples[2].Dropped)
	}
}

func TestPlanIsAFunctionOfSeedAndRate(t *testing.T) {
	const pool = 6
	a := dealPlan(7, 200, 3*time.Second, pool)
	b := dealPlan(7, 200, 3*time.Second, pool)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed and rate gave different plans")
	}
	if reflect.DeepEqual(a, dealPlan(8, 200, 3*time.Second, pool)) {
		t.Fatal("different seeds gave the same plan")
	}
	if n := len(a); n < 500 || n > 700 {
		t.Fatalf("%d arrivals at 200/s over 3s", n)
	}
	deck := 0
	for _, c := range opDeck {
		deck += c
	}
	counts := make([]int, nOps)
	for i, x := range a {
		if i > 0 && x.At < a[i-1].At {
			t.Fatal("arrivals out of order")
		}
		if (x.Op == opLifecycle) != (x.Queue == pool) || x.Queue < 0 || x.Queue > pool {
			t.Fatalf("arrival %d: op %d on queue %d", i, x.Op, x.Queue)
		}
		if i < len(a)/deck*deck {
			counts[x.Op]++
		}
	}
	for op, c := range opDeck {
		if want := c * (len(a) / deck); counts[op] != want {
			t.Errorf("op %s: %d arrivals in whole decks, want %d", opNames[op], counts[op], want)
		}
	}
}

func TestSessionOrderIsASeededPermutation(t *testing.T) {
	for _, w := range []*closedLoop{exactDense.loop(), urbanCity.loop(), remoteTiered.loop(), serveSession} {
		o := seedOrder(w.pool, 3)
		if !slices.Equal(o, seedOrder(w.pool, 3)) {
			t.Errorf("%s: same seed gave different orders", w.name)
		}
		sorted := slices.Clone(o)
		slices.Sort(sorted)
		if !slices.Equal(sorted, w.pool) {
			t.Errorf("%s: order %v is not a permutation of the pool %v", w.name, o, w.pool)
		}
		digests, err := loadDigests()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range w.pool {
			if _, ok := digests[w.name][formatSeed(s)]; !ok {
				t.Errorf("%s: no expected digest for pool seed %d", w.name, s)
			}
		}
	}
}

func TestDigestIsBitExact(t *testing.T) {
	out := sessionOutput{Zeta: 2.5, Phi: 1.25, Capacity: []int{0, 3}, Slots: [][]int{{0, 3}, {1}, {2}}}
	// Pinned: a change here invalidates every stored digest.
	const want = "3929c0d3dec22ea76026d7d099d16230"
	if got := out.digest(); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
	for name, mod := range map[string]func(*sessionOutput){
		"zeta ulp":  func(o *sessionOutput) { o.Zeta = math.Nextafter(o.Zeta, 3) },
		"phi ulp":   func(o *sessionOutput) { o.Phi = math.Nextafter(o.Phi, 0) },
		"capacity":  func(o *sessionOutput) { o.Capacity = []int{0, 2} },
		"slot move": func(o *sessionOutput) { o.Slots = [][]int{{0}, {3, 1}, {2}} },
		"split":     func(o *sessionOutput) { o.Slots = [][]int{{0, 3}, {1, 2}} },
	} {
		o := out
		o.Capacity = slices.Clone(out.Capacity)
		mod(&o)
		if o.digest() == want {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}

// A real session, run twice, digests the same.
func TestSessionDigestIsStable(t *testing.T) {
	ctx := context.Background()
	cfg := exactDense.cfg(warmSeed, true)
	a, _, err := exactDense.runSession(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := exactDense.runSession(ctx, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.digest() != b.digest() {
		t.Fatalf("digests differ across identical sessions: %s vs %s", a.digest(), b.digest())
	}
	// The traced path reproduces the Engine path's output.
	c, _, err := exactDense.runTracedSession(ctx, cfg, nil, newTracer(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.digest() != a.digest() {
		t.Fatalf("traced digest %s, untraced %s", c.digest(), a.digest())
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "session", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "core.zeta", Start: 0, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "sinr.affectance", Start: 50 * ms, End: 90 * ms}, // overlaps zeta
		{ID: 4, Parent: 2, Name: "core.inner", Start: 10 * ms, End: 20 * ms},
	}
	tree := newSpanTree(spans)
	if got := tree.self(spans[0]); got != 10*ms {
		t.Errorf("root self = %v, want 10ms", got)
	}
	if got := tree.coverage(spans[0]); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("root coverage = %v, want 0.9", got)
	}
	by := tree.selfByLayer()
	if by["core"] != 60*ms || by["sinr"] != 40*ms || by["root"] != 10*ms {
		t.Errorf("self by layer = %v", by)
	}
}

// BENCHMARK.json and the benchmark's own catalog name the same workloads
// and metrics with the same units.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one the benchmark runs (%v)", w.Name, workloadNames())
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), catalog %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
