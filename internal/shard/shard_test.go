package shard_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/shard"
	"decaynet/internal/sinr"
)

// randMatrix builds a deterministic asymmetric dense space.
func randMatrix(t *testing.T, n int, seed uint64) *core.Matrix {
	t.Helper()
	src := rng.New(seed)
	m, err := core.FromFunc(n, func(i, j int) float64 { return src.Range(0.5, 50) })
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// symMatrix builds a deterministic exactly symmetric dense space.
func symMatrix(t *testing.T, n int, seed uint64) *core.Matrix {
	t.Helper()
	return core.Symmetrized(randMatrix(t, n, seed))
}

func TestSplit(t *testing.T) {
	for _, tc := range []struct{ n, k int }{
		{0, 1}, {1, 1}, {7, 3}, {8, 3}, {9, 3}, {16, 1}, {5, 8}, {100, 7},
	} {
		ranges := shard.Split(tc.n, tc.k)
		if len(ranges) != tc.k {
			t.Fatalf("Split(%d,%d): %d ranges", tc.n, tc.k, len(ranges))
		}
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r.Lo != prev || r.Hi < r.Lo {
				t.Fatalf("Split(%d,%d): non-contiguous ranges %v", tc.n, tc.k, ranges)
			}
			covered += r.Len()
			prev = r.Hi
		}
		if covered != tc.n || prev != tc.n {
			t.Fatalf("Split(%d,%d) covers %d rows: %v", tc.n, tc.k, covered, ranges)
		}
	}
	if got := shard.Split(10, 0); len(got) != 1 || got[0] != (shard.Range{Lo: 0, Hi: 10}) {
		t.Fatalf("Split clamp: %v", got)
	}
}

// TestShardedScansMatchCore: the coordinator's merged ζ/ϕ equal the
// unsharded kernels bit for bit, for asymmetric and exactly symmetric
// spaces across shard counts (including K > n).
func TestShardedScansMatchCore(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{3, 5, 24, 64} {
		for _, sym := range []bool{false, true} {
			var m *core.Matrix
			if sym {
				m = symMatrix(t, n, uint64(n))
			} else {
				m = randMatrix(t, n, uint64(n))
			}
			wantZ := core.ZetaTol(m, 1e-12)
			wantV := core.Varphi(m)
			for _, k := range []int{1, 2, 3, 8, n + 3} {
				c, err := shard.New(m, 1e-12, k)
				if err != nil {
					t.Fatal(err)
				}
				z, err := c.Zeta(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if z != wantZ {
					t.Fatalf("n=%d sym=%v k=%d: sharded zeta %v, core %v", n, sym, k, z, wantZ)
				}
				v, err := c.Varphi(ctx)
				if err != nil {
					t.Fatal(err)
				}
				if v != wantV {
					t.Fatalf("n=%d sym=%v k=%d: sharded varphi %v, core %v", n, sym, k, v, wantV)
				}
			}
		}
	}
}

// TestShardedTrackerMatchesPool: a tracker seeded through the shards
// tracks the same values as the pool-built tracker, across a mutation
// sequence repaired through the shards, and both match from-scratch scans
// of the mutated matrix. The sequence covers random row rewrites, a
// row-and-column rewrite (rowsOnly=false), and the flatten-to-uniform
// walk of core's TestTrackerHandlesDecrease, which drains the candidate
// band and forces the coordinator's full-rescan fallback.
func TestShardedTrackerMatchesPool(t *testing.T) {
	ctx := context.Background()
	n := 48
	fresh := map[core.Param]func(m *core.Matrix) float64{
		core.ParamZeta:   func(m *core.Matrix) float64 { return core.ZetaTol(m, 1e-12) },
		core.ParamVarphi: func(m *core.Matrix) float64 { return core.Varphi(m) },
	}
	for _, p := range []core.Param{core.ParamZeta, core.ParamVarphi} {
		for _, k := range []int{1, 3} {
			t.Run(fmt.Sprintf("%v/K=%d", p, k), func(t *testing.T) {
				mShard := randMatrix(t, n, 7)
				mPool := mShard.Clone()
				c, err := shard.New(mShard, 1e-12, k)
				if err != nil {
					t.Fatal(err)
				}
				ts, err := c.Tracker(ctx, p)
				if err != nil {
					t.Fatal(err)
				}
				tp, err := core.NewTracker(ctx, p, mPool, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				if ts.Value() != tp.Value() {
					t.Fatalf("seeded trackers diverge: %v vs %v", ts.Value(), tp.Value())
				}
				// step applies one mutation to both matrices and requires the
				// sharded repair, the pool repair and a fresh scan to agree.
				step := func(name string, dirty []int, rowsOnly bool, mutate func(m *core.Matrix)) {
					t.Helper()
					mutate(mShard)
					mutate(mPool)
					got, err := c.Repair(ctx, ts, dirty, rowsOnly)
					if err != nil {
						t.Fatal(err)
					}
					if want := tp.Repair(dirty, rowsOnly); got != want {
						t.Fatalf("%s: sharded repair %v, pool %v", name, got, want)
					}
					if want := fresh[p](mShard); got != want {
						t.Fatalf("%s: sharded repair %v, fresh scan %v", name, got, want)
					}
				}
				setRow := func(r int, row []float64) func(m *core.Matrix) {
					return func(m *core.Matrix) {
						if err := m.SetRow(r, row); err != nil {
							t.Fatal(err)
						}
					}
				}
				src := rng.New(99)
				for i := 0; i < 6; i++ {
					r := int(src.Uint64() % uint64(n))
					row := make([]float64, n)
					for j := range row {
						if j != r {
							row[j] = src.Range(0.5, 50)
						}
					}
					step(fmt.Sprintf("row step %d", i), []int{r}, true, setRow(r, row))
				}
				// A node move: row and column of one node rewritten.
				node := 5
				row, col := make([]float64, n), make([]float64, n)
				for j := range row {
					if j != node {
						row[j], col[j] = src.Range(0.5, 50), src.Range(0.5, 50)
					}
				}
				step("row+column", []int{node}, false, func(m *core.Matrix) {
					setRow(node, row)(m)
					for i, v := range col {
						if i != node {
							if err := m.Set(i, node, v); err != nil {
								t.Fatal(err)
							}
						}
					}
				})
				// Flatten every row towards the uniform space: the value
				// falls to its floor, draining the band on the way.
				for r := 0; r < n; r++ {
					flat := make([]float64, n)
					for j := range flat {
						if j != r {
							flat[j] = 1
						}
					}
					step(fmt.Sprintf("flatten row %d", r), []int{r}, true, setRow(r, flat))
				}
				if ts.Value() != p.Floor() {
					t.Fatalf("uniform space tracks %v, want the floor %v", ts.Value(), p.Floor())
				}
			})
		}
	}
}

// TestShardedAffectanceMatchesDense: blockwise assembly equals the batched
// build bit for bit.
func TestShardedAffectanceMatchesDense(t *testing.T) {
	ctx := context.Background()
	n := 40
	m := randMatrix(t, n, 13)
	links := make([]sinr.Link, 0, n/2)
	for i := 0; i+1 < n; i += 2 {
		links = append(links, sinr.Link{Sender: i, Receiver: i + 1})
	}
	sys, err := sinr.NewSystem(m, links, sinr.WithNoise(0.01), sinr.WithZeta(2))
	if err != nil {
		t.Fatal(err)
	}
	p := sinr.UniformPower(sys, 1)
	want := sinr.ComputeAffectances(sys, p)
	for _, k := range []int{1, 2, 5, 32} {
		c, err := shard.New(m, 1e-12, k)
		if err != nil {
			t.Fatal(err)
		}
		got, err := sinr.ComputeAffectancesSharded(ctx, sys, p, c)
		if err != nil {
			t.Fatal(err)
		}
		if got.N() != want.N() {
			t.Fatalf("k=%d: size %d vs %d", k, got.N(), want.N())
		}
		for w := 0; w < want.N(); w++ {
			for v := 0; v < want.N(); v++ {
				if got.Raw(w, v) != want.Raw(w, v) {
					t.Fatalf("k=%d: affectance (%d,%d) %v, want %v", k, w, v, got.Raw(w, v), want.Raw(w, v))
				}
			}
		}
	}
}

// TestShardedCancellation: a pre-cancelled context returns immediately
// from every coordinator op, and a mid-scan cancellation returns promptly
// from all workers.
func TestShardedCancellation(t *testing.T) {
	m := randMatrix(t, 300, 5)
	c, err := shard.New(m, 1e-12, 4)
	if err != nil {
		t.Fatal(err)
	}
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Zeta(pre); err != context.Canceled {
		t.Fatalf("pre-cancelled Zeta err = %v", err)
	}
	if _, err := c.Varphi(pre); err != context.Canceled {
		t.Fatalf("pre-cancelled Varphi err = %v", err)
	}
	if _, err := c.Tracker(pre, core.ParamZeta); err != context.Canceled {
		t.Fatalf("pre-cancelled Tracker err = %v", err)
	}

	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err = c.Zeta(ctx)
	elapsed := time.Since(start)
	if err != context.Canceled && err != context.DeadlineExceeded {
		// The scan may legitimately finish before the cancel fires on a
		// fast machine; only a hang or a wrong error is a failure.
		if err != nil {
			t.Fatalf("mid-scan Zeta err = %v", err)
		}
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancelled sharded Zeta took %v", elapsed)
	}
}

// TestGridCoordinator: the replica-free work grid fans ranges out and
// propagates the first error.
func TestGridCoordinator(t *testing.T) {
	c := shard.NewGrid(100, 4)
	if c.Shards() != 4 {
		t.Fatalf("Shards() = %d", c.Shards())
	}
	seen := make([]bool, 100)
	err := c.EachRange(context.Background(), 100, func(ctx context.Context, s int, r shard.Range) error {
		for i := r.Lo; i < r.Hi; i++ {
			seen[i] = true // disjoint ranges: no two shards write the same cell
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("row %d never dispatched", i)
		}
	}
	// An erroring shard cancels the others' contexts.
	errBoom := context.DeadlineExceeded
	err = c.EachRange(context.Background(), 100, func(ctx context.Context, s int, r shard.Range) error {
		if s == 2 {
			return errBoom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if err != errBoom {
		t.Fatalf("EachRange err = %v, want first error", err)
	}
}
