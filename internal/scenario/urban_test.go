package scenario

import (
	"math"
	"testing"

	"decaynet/internal/core"
)

// smallCity builds a small "urban" instance: 300 nodes around 40 links, so
// bystanders, corner penalties and shadowing all occur.
func smallCity(t *testing.T) (*Instance, *urbanSpace) {
	t.Helper()
	inst, err := Build("urban", Config{Links: 40, Nodes: 300, Seed: 5, Side: 600})
	if err != nil {
		t.Fatal(err)
	}
	u, ok := inst.Space.(*urbanSpace)
	if !ok {
		t.Fatalf("urban space is %T", inst.Space)
	}
	return inst, u
}

// TestUrbanOracleContract checks the contracts the lazy urban oracle
// certifies and the tiered build relies on: Row bitwise equal to F per
// column, bitwise symmetry, and DecayLowerBound below every pair's decay.
func TestUrbanOracleContract(t *testing.T) {
	inst, u := smallCity(t)
	n := u.N()
	row := make([]float64, n)
	for i := 0; i < n; i++ {
		u.Row(i, row)
		for j := 0; j < n; j++ {
			f := u.F(i, j)
			if math.Float64bits(row[j]) != math.Float64bits(f) {
				t.Fatalf("Row(%d)[%d] = %v, F = %v", i, j, row[j], f)
			}
			if i == j {
				if f != 0 {
					t.Fatalf("F(%d,%d) = %v, want 0", i, i, f)
				}
				continue
			}
			if !(f > 0) || math.IsInf(f, 0) {
				t.Fatalf("F(%d,%d) = %v is not positive finite", i, j, f)
			}
			if b := u.F(j, i); math.Float64bits(b) != math.Float64bits(f) {
				t.Fatalf("F(%d,%d) = %v but F(%d,%d) = %v", i, j, f, j, i, b)
			}
			if lb := u.DecayLowerBound(inst.Points[i].Dist(inst.Points[j])); lb > f {
				t.Fatalf("DecayLowerBound = %v above F(%d,%d) = %v", lb, i, j, f)
			}
		}
	}
	if !core.KnownSymmetric(u) {
		t.Fatal("urban space does not certify symmetry")
	}
}

// TestUrbanOracleAllocFree pins the per-decay cost of the lazy oracle: an
// F call, shadowing draw included, allocates nothing.
func TestUrbanOracleAllocFree(t *testing.T) {
	_, u := smallCity(t)
	sink := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		sink += u.F(3, 201)
	})
	if allocs != 0 {
		t.Fatalf("urban F allocates %v times per call, want 0", allocs)
	}
	_ = sink
}
