package core

import (
	"context"
	"testing"

	"decaynet/internal/rng"
)

// streamTestMatrix builds a random positive dense matrix, symmetric or not.
func streamTestMatrix(t *testing.T, n int, seed uint64, symmetric bool) *Matrix {
	t.Helper()
	src := rng.New(seed)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if symmetric && j < i {
				rows[i][j] = rows[j][i]
				continue
			}
			rows[i][j] = src.Range(0.5, 50)
		}
	}
	m, err := NewMatrix(rows)
	if err != nil {
		t.Fatalf("NewMatrix: %v", err)
	}
	if m.Symmetric() != symmetric {
		t.Fatalf("Symmetric() = %v, want %v", m.Symmetric(), symmetric)
	}
	return m
}

// TestRowPagerServesTransformedRows checks the pager returns the transformed
// row contents, bounds its residency, and counts tile faults.
func TestRowPagerServesTransformedRows(t *testing.T) {
	m := streamTestMatrix(t, 20, 1, false)
	n := m.N()
	double := func(row []float64) {
		for j := range row {
			row[j] *= 2
		}
	}
	p := NewRowPager(m, 4, 2, double)
	want := make([]float64, n)
	for _, i := range []int{0, 3, 19, 7, 0, 12, 5, 19} {
		got := p.Row(i)
		m.Row(i, want)
		for j := range want {
			w := 2 * want[j]
			if got[j] != w {
				t.Fatalf("Row(%d)[%d] = %v, want %v", i, j, got[j], w)
			}
		}
	}
	if hb := p.HeldBytes(); hb != int64(2*4*n*8) {
		t.Fatalf("HeldBytes = %d, want %d", hb, 2*4*n*8)
	}
	if p.Loads() < 2 || p.Loads() > 8 {
		t.Fatalf("Loads = %d, want a handful of tile faults", p.Loads())
	}
}

// TestRowPagerLRURevisit checks that revisiting a resident tile is free and
// that eviction picks the least-recently-used tile.
func TestRowPagerLRURevisit(t *testing.T) {
	m := streamTestMatrix(t, 12, 2, false)
	p := NewRowPager(m, 4, 2, nil)
	p.Row(0) // tile 0
	p.Row(4) // tile 1
	p.Row(1) // tile 0 again: no fault
	if p.Loads() != 2 {
		t.Fatalf("Loads after resident revisit = %d, want 2", p.Loads())
	}
	p.Row(8) // tile 2 evicts tile 1 (LRU)
	p.Row(2) // tile 0 still resident
	if p.Loads() != 3 {
		t.Fatalf("Loads after eviction = %d, want 3", p.Loads())
	}
	p.Row(5) // tile 1 was evicted: faults again
	if p.Loads() != 4 {
		t.Fatalf("Loads after re-fault = %d, want 4", p.Loads())
	}
}

// TestStreamScanMatchesDenseRanges is the bit-identity property the sharded
// out-of-core path rests on: for every range partition, the streamed
// MaxRange (ζ and ϕ) equals the dense ZetaScanState /
// VarphiScanState ranges exactly, and their max-merge equals the unsharded
// full scans.
func TestStreamScanMatchesDenseRanges(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		n    int
		sym  bool
	}{
		{"sym-24", 24, true},
		{"asym-24", 24, false},
		{"sym-65", 65, true},
		{"asym-65", 65, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := streamTestMatrix(t, tc.n, uint64(tc.n)+7, tc.sym)
			// Tiny tiles force plenty of paging traffic across the scan.
			ss, err := NewStreamScan(ctx, m, 1e-12, 7, 2)
			if err != nil {
				t.Fatalf("NewStreamScan: %v", err)
			}
			zs := NewZetaScanState(m, 1e-12)
			vs := NewVarphiScanState(m)
			ranges := [][2]int{{0, tc.n}, {0, tc.n / 3}, {tc.n / 3, tc.n - 1}, {tc.n - 1, tc.n}}
			for _, r := range ranges {
				wantZ, err := zs.MaxRange(ctx, r[0], r[1], tc.sym)
				if err != nil {
					t.Fatalf("dense zeta MaxRange: %v", err)
				}
				gotZ, err := ss.MaxRange(ctx, ParamZeta, r[0], r[1], tc.sym)
				if err != nil {
					t.Fatalf("streamed zeta MaxRange: %v", err)
				}
				if gotZ != wantZ {
					t.Fatalf("zeta MaxRange[%d,%d) = %v, dense %v", r[0], r[1], gotZ, wantZ)
				}
				wantV, err := vs.MaxRange(ctx, r[0], r[1], tc.sym)
				if err != nil {
					t.Fatalf("dense varphi MaxRange: %v", err)
				}
				gotV, err := ss.MaxRange(ctx, ParamVarphi, r[0], r[1], tc.sym)
				if err != nil {
					t.Fatalf("streamed varphi MaxRange: %v", err)
				}
				if gotV != wantV {
					t.Fatalf("varphi MaxRange[%d,%d) = %v, dense %v", r[0], r[1], gotV, wantV)
				}
			}
			// Max-merge over a 3-way partition reproduces the full scans.
			cuts := []int{0, tc.n / 3, 2 * tc.n / 3, tc.n}
			zMerged, vMerged := DefaultZetaFloor, VarphiFloor
			for i := 0; i+1 < len(cuts); i++ {
				z, err := ss.MaxRange(ctx, ParamZeta, cuts[i], cuts[i+1], tc.sym)
				if err != nil {
					t.Fatalf("zeta MaxRange: %v", err)
				}
				if z > zMerged {
					zMerged = z
				}
				v, err := ss.MaxRange(ctx, ParamVarphi, cuts[i], cuts[i+1], tc.sym)
				if err != nil {
					t.Fatalf("varphi MaxRange: %v", err)
				}
				if v > vMerged {
					vMerged = v
				}
			}
			if want := ZetaTol(m, 1e-12); zMerged != want {
				t.Fatalf("merged streamed ζ = %v, full scan %v", zMerged, want)
			}
			if want := Varphi(m); vMerged != want {
				t.Fatalf("merged streamed ϕ = %v, full scan %v", vMerged, want)
			}
		})
	}
}

// TestStreamScanDegenerate covers the n < 3 floor and empty ranges.
func TestStreamScanDegenerate(t *testing.T) {
	ctx := context.Background()
	two, _ := NewMatrix([][]float64{{0, 5}, {9, 0}})
	ss, err := NewStreamScan(ctx, two, 1e-12, 0, 0)
	if err != nil {
		t.Fatalf("NewStreamScan: %v", err)
	}
	if z, err := ss.MaxRange(ctx, ParamZeta, 0, 2, false); err != nil || z != DefaultZetaFloor {
		t.Fatalf("ζ on n=2 = %v, %v; want floor", z, err)
	}
	if v, err := ss.MaxRange(ctx, ParamVarphi, 0, 2, false); err != nil || v != VarphiFloor {
		t.Fatalf("ϕ on n=2 = %v, %v; want floor", v, err)
	}
	m := streamTestMatrix(t, 8, 3, false)
	ss, err = NewStreamScan(ctx, m, 1e-12, 0, 0)
	if err != nil {
		t.Fatalf("NewStreamScan: %v", err)
	}
	if z, err := ss.MaxRange(ctx, ParamZeta, 5, 5, false); err != nil || z != DefaultZetaFloor {
		t.Fatalf("ζ on empty range = %v, %v; want floor", z, err)
	}
}

// TestStreamScanCancellation checks cooperative cancellation of both the
// extrema pass and the range scans.
func TestStreamScanCancellation(t *testing.T) {
	m := streamTestMatrix(t, 32, 4, false)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := NewStreamScan(cancelled, m, 1e-12, 0, 0); err != context.Canceled {
		t.Fatalf("cancelled NewStreamScan err = %v", err)
	}
	ss, err := NewStreamScan(context.Background(), m, 1e-12, 0, 0)
	if err != nil {
		t.Fatalf("NewStreamScan: %v", err)
	}
	if _, err := ss.MaxRange(cancelled, ParamZeta, 0, 32, false); err != context.Canceled {
		t.Fatalf("cancelled zeta MaxRange err = %v", err)
	}
	if _, err := ss.MaxRange(cancelled, ParamVarphi, 0, 32, false); err != context.Canceled {
		t.Fatalf("cancelled varphi MaxRange err = %v", err)
	}
}
