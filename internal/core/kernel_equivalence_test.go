package core_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/scenario"
)

// namedMatrix is one space of the kernel equivalence table.
type namedMatrix struct {
	name string
	m    *core.Matrix
}

// kernelSpaces returns, for each scenario at n nodes, an exactly symmetric
// dense space and an asymmetric copy of it with one row rescaled.
func kernelSpaces(t *testing.T, n int) []namedMatrix {
	t.Helper()
	var out []namedMatrix
	for _, name := range []string{"urban", "office", "warehouse", "random", "theorem3"} {
		cfg := scenario.Config{Nodes: n, Links: n / 2, Seed: 5}
		if name == "theorem3" {
			cfg.Nodes = n / 2 // two nodes per graph vertex
		}
		inst, err := scenario.Build(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := inst.Space.N(); got != n {
			t.Fatalf("%s: built %d nodes, want %d", name, got, n)
		}
		sym := core.Symmetrized(inst.Space)
		if !core.KnownSymmetric(sym) {
			t.Fatalf("%s: symmetrized space does not certify symmetry", name)
		}
		asym := sym.Clone()
		r := n / 3
		row := make([]float64, n)
		asym.Row(r, row)
		for j := range row {
			row[j] *= 1.75
		}
		if err := asym.SetRow(r, row); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if core.KnownSymmetric(asym) {
			t.Fatalf("%s: rescaled copy still symmetric", name)
		}
		out = append(out, namedMatrix{name + "/sym", sym}, namedMatrix{name + "/asym", asym})
	}
	return out
}

// mergedRanges max-merges a range scan over a parts-way row partition.
func mergedRanges(t *testing.T, n, parts int, floor float64, scan func(xlo, xhi int) (float64, error)) float64 {
	t.Helper()
	best := floor
	for i := 0; i < parts; i++ {
		v, err := scan(i*n/parts, (i+1)*n/parts)
		if err != nil {
			t.Fatal(err)
		}
		best = math.Max(best, v)
	}
	return best
}

// TestMaxKernelRoutesBitIdentical pins every exact ζ/ϕ max-scan route to
// the unsharded scan bit for bit, on scenario spaces large enough for the
// 64-wide tiles (n=320 is not a multiple of 64): the shard-sized dense
// ranges merged over several row partitions, a streamed scan paging
// through a 7-row × 2-tile cache, and the trackers' full rescans on the
// asymmetric copies.
func TestMaxKernelRoutesBitIdentical(t *testing.T) {
	ctx := context.Background()
	for _, n := range []int{256, 320} {
		for _, tc := range kernelSpaces(t, n) {
			m := tc.m
			t.Run(fmt.Sprintf("%s/n=%d", tc.name, n), func(t *testing.T) {
				sym := core.KnownSymmetric(m)
				check := func(route string, got, want float64) {
					t.Helper()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Errorf("%s = %v (%x), unsharded scan %v (%x)", route, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}

				zeta := core.ZetaTol(m, 1e-12)
				varphi := core.Varphi(m)
				zs := core.NewZetaScanState(m, 1e-12)
				vs := core.NewVarphiScanState(m)
				for _, parts := range []int{1, 2, 3, 7} {
					check(fmt.Sprintf("ζ MaxRange over %d ranges", parts), mergedRanges(t, n, parts, core.DefaultZetaFloor,
						func(xlo, xhi int) (float64, error) { return zs.MaxRange(ctx, xlo, xhi, sym) }), zeta)
					check(fmt.Sprintf("ϕ MaxRange over %d ranges", parts), mergedRanges(t, n, parts, core.VarphiFloor,
						func(xlo, xhi int) (float64, error) { return vs.MaxRange(ctx, xlo, xhi, sym) }), varphi)
				}

				ss, err := core.NewStreamScan(ctx, m, 1e-12, 7, 2)
				if err != nil {
					t.Fatal(err)
				}
				got, err := ss.MaxRange(ctx, core.ParamZeta, 0, n, sym)
				if err != nil {
					t.Fatal(err)
				}
				check("streamed ζ", got, zeta)
				if got, err = ss.MaxRange(ctx, core.ParamVarphi, 0, n, sym); err != nil {
					t.Fatal(err)
				}
				check("streamed ϕ", got, varphi)

				if sym {
					return
				}
				zt, err := core.NewTracker(ctx, core.ParamZeta, m, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				check("ζ tracker", zt.Value(), zeta)
				vt, err := core.NewTracker(ctx, core.ParamVarphi, m, 1e-12)
				if err != nil {
					t.Fatal(err)
				}
				check("ϕ tracker", vt.Value(), varphi)
			})
		}
	}
}
