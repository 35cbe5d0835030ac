package core

import (
	"context"
	"math"
)

// Partial-reduction forms of the triplet kernels. A ScanState — a
// ZetaScanState or a VarphiScanState — is the replica a shard worker
// scans: the (log-)decay matrix plus the pruning extrema, with serial
// row-range methods — MaxRange, CollectRange, RepairRange — whose union
// over a partition of [0, n) reproduces exactly what the pool-parallel
// kernels compute. Every triplet value comes from the same deterministic
// per-triplet functions (zetaTriplet, the ϕ ratio), so merging per-shard
// maxima with max and concatenating per-shard bands is bit-identical to
// the unsharded scans: the reduction is associative and no partial result
// depends on schedule.
//
// The incremental Tracker is built on the same states, which is what lets
// a sharding coordinator seed the global tracker from per-shard band
// maxima and route repairs back through the shards (see internal/shard).

// BandTriplet is one candidate of a ζ/ϕ candidate band: the triplet's
// value and coordinates. It is a plain wire-format value so shard workers
// can ship collected bands back to their coordinator.
type BandTriplet struct {
	Val float64 `json:"val"`
	X   int32   `json:"x"`
	Y   int32   `json:"y"`
	Z   int32   `json:"z"`
}

// maxBand returns the largest candidate value, or floor for an empty set.
func maxBand(set []BandTriplet, floor float64) float64 {
	v := floor
	for i := range set {
		if set[i].Val > v {
			v = set[i].Val
		}
	}
	return v
}

// DirtyMask builds the dirty-node membership mask the repair scans
// consume; entries outside [0, n) are ignored.
func DirtyMask(n int, dirty []int) []bool {
	mask := make([]bool, n)
	for _, r := range dirty {
		if r >= 0 && r < n {
			mask[r] = true
		}
	}
	return mask
}

// dropDirtyBand removes candidates incident to a dirty node, in place.
func dropDirtyBand(set []BandTriplet, mask []bool) []BandTriplet {
	out := set[:0]
	for _, c := range set {
		if !mask[c.X] && !mask[c.Y] && !mask[c.Z] {
			out = append(out, c)
		}
	}
	return out
}

// rangeScan is the driver of the row-range collection phases: row appends
// one first index's triplets, and ctx is polled between rows.
func rangeScan(ctx context.Context, n, xlo, xhi int, row func(out []BandTriplet, x int) []BandTriplet) ([]BandTriplet, error) {
	var out []BandTriplet
	if n < 3 {
		return out, ctx.Err()
	}
	for x := xlo; x < xhi; x++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out = row(out, x)
	}
	return out, nil
}

// ScanState is one parameter's dense scan replica: the row-range phases a
// shard worker serves, the patch a mutation applies and the pool-parallel
// full maximum a Tracker rescans with. ZetaScanState and VarphiScanState
// implement it; NewScanState builds the one a Param names. Between
// patches a state is immutable and safe for concurrent range scans.
type ScanState interface {
	// Param returns the parameter the state scans.
	Param() Param
	// N returns the number of nodes scanned.
	N() int
	// PatchRows refreshes the state after the underlying matrix mutated on
	// the rows (and, unless rowsOnly, columns) of the dirty nodes. Callers
	// serialize it against range scans (the session layer holds its write
	// lock across repairs).
	PatchRows(dirty []int, rowsOnly bool)
	// MaxRange returns the exact maximum over the ordered triplets whose
	// first index lies in [xlo, xhi) — the shard-sized partial reduction
	// whose max-merge over a row partition equals the full scan. The scan
	// is serial (one shard = one goroutine) but runs the same cache-blocked
	// kernel as the one-shot scans, one tile at a time, and polls ctx per
	// row. sym certifies exact decay symmetry and halves the triplet set
	// exactly as the one-shot scans do.
	MaxRange(ctx context.Context, xlo, xhi int, sym bool) (float64, error)
	// FullMax is the exact maximum over every triplet on the shared pool —
	// the one-shot kernel minus the symmetric halving (trackers serve
	// mutated, generally asymmetric sessions).
	FullMax(ctx context.Context) (float64, error)
	// CollectRange returns every triplet with first index in [xlo, xhi)
	// whose value exceeds floor — the shard-sized band-collection phase.
	// Concatenating the ranges of a partition yields exactly the candidate
	// set a full collection pass produces (order aside, which no consumer
	// depends on). ctx is polled per row.
	CollectRange(ctx context.Context, xlo, xhi int, floor float64) ([]BandTriplet, error)
	// RepairRange re-scans the dirty-incident triplets with first index in
	// [xlo, xhi) after PatchRows, returning those above floor — the
	// shard-sized repair phase. mask is the dirty-node membership mask
	// (len n).
	RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, floor float64) ([]BandTriplet, error)
}

// scanState is what the two dense scan states share: the row-major matrix
// their kernels read — ln f for ζ, f itself for ϕ — with its off-diagonal
// row and column extrema. The underlying Matrix is read at construction
// and on PatchRows.
type scanState struct {
	p   Param
	m   *Matrix
	n   int
	tol float64

	vals                   []float64 // ln f (ζ, a private copy) or f (ϕ, the matrix's own)
	rowMax, rowMin, colMin []float64 // off-diagonal extrema of vals
}

// setVals installs the kernel matrix and derives its extrema (parallel,
// O(n²)).
func (s *scanState) setVals(vals []float64) {
	s.vals = vals
	s.rowMax, s.rowMin = rowExtrema(vals, s.n)
	s.colMin = colMinima(vals, s.n)
}

// Param returns the parameter the state scans.
func (s *scanState) Param() Param { return s.p }

// N returns the number of nodes scanned.
func (s *scanState) N() int { return s.n }

// MaxRange implements ScanState.
func (s *scanState) MaxRange(ctx context.Context, xlo, xhi int, sym bool) (float64, error) {
	if s.n < 3 || xlo >= xhi {
		return s.p.Floor(), ctx.Err()
	}
	return s.maxScan(sym).serial(ctx, xlo, xhi, params[s.p].tile)
}

// FullMax implements ScanState.
func (s *scanState) FullMax(ctx context.Context) (float64, error) {
	if s.n < 3 {
		return s.p.Floor(), ctx.Err()
	}
	return s.maxScan(false).parallel(ctx, params[s.p].tile)
}

// maxScan starts a max scan over the state's kernel matrix.
func (s *scanState) maxScan(sym bool) *maxScan {
	return newMaxScan(denseRows(s.vals, s.n), s.rowMax, s.rowMin, sym, s.tol, s.p.Floor())
}

// refreshExtrema re-derives the extrema after vals changed on the dirty
// rows (and, unless rowsOnly, columns): a row-only mutation leaves the
// clean rows' extrema provably unchanged.
func (s *scanState) refreshExtrema(dirty []int, rowsOnly bool) {
	if rowsOnly {
		for _, r := range dirty {
			s.refreshRow(r)
		}
	} else {
		s.rowMax, s.rowMin = rowExtrema(s.vals, s.n)
	}
	refreshColMinima(s.colMin, s.vals, s.n, dirty)
}

// refreshRow re-derives one row's extrema after its entries changed.
func (s *scanState) refreshRow(x int) {
	n := s.n
	row := s.vals[x*n : (x+1)*n]
	mx, mn := math.Inf(-1), math.Inf(1)
	for j, v := range row {
		if j == x {
			continue
		}
		if v > mx {
			mx = v
		}
		if v < mn {
			mn = v
		}
	}
	s.rowMax[x], s.rowMin[x] = mx, mn
}

// ZetaScanState is the ζ scan replica: the log-decay matrix of a dense
// space plus its pruning extrema.
type ZetaScanState struct{ scanState }

// NewZetaScanState materializes the log matrix and pruning extrema of m
// (parallel, O(n²)) for range scanning at bisection tolerance tol.
func NewZetaScanState(m *Matrix, tol float64) *ZetaScanState {
	s := &ZetaScanState{scanState{p: ParamZeta, m: m, n: m.N(), tol: tol}}
	if s.n >= 3 {
		s.setVals(logMatrix(m))
	}
	return s
}

// PatchRows implements ScanState: dirty log rows are recomputed
// wholesale, dirty column entries per clean row, and the affected extrema
// re-derived.
func (s *ZetaScanState) PatchRows(dirty []int, rowsOnly bool) {
	if s.n < 3 || len(dirty) == 0 {
		return
	}
	n := s.n
	mask := DirtyMask(n, dirty)
	for x := 0; x < n; x++ {
		row := s.m.row(x)
		out := s.vals[x*n : (x+1)*n]
		if mask[x] {
			for j, v := range row {
				out[j] = math.Log(v)
			}
			continue
		}
		if rowsOnly {
			continue
		}
		for _, r := range dirty {
			out[r] = math.Log(row[r])
		}
	}
	s.refreshExtrema(dirty, rowsOnly)
}

// CollectRange implements ScanState.
func (s *ZetaScanState) CollectRange(ctx context.Context, xlo, xhi int, floor float64) ([]BandTriplet, error) {
	return rangeScan(ctx, s.n, xlo, xhi, func(out []BandTriplet, x int) []BandTriplet {
		return s.collectRow(out, x, floor)
	})
}

// RepairRange implements ScanState.
func (s *ZetaScanState) RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, floor float64) ([]BandTriplet, error) {
	zList := make([]int32, 0, s.n)
	return rangeScan(ctx, s.n, xlo, xhi, func(out []BandTriplet, x int) []BandTriplet {
		out, zList = s.repairRow(out, x, dirty, mask, floor, zList)
		return out
	})
}

// collectRow appends row x's triplets above floor: every (x, ·, z) pair.
func (s *ZetaScanState) collectRow(local []BandTriplet, x int, floor float64) []BandTriplet {
	invT, amgm := 1/floor, 2*math.Ln2*floor
	rowX := s.vals[x*s.n : (x+1)*s.n]
	for z := 0; z < s.n; z++ {
		if z != x {
			local = s.collectPair(local, rowX, x, z, invT, amgm)
		}
	}
	return local
}

// repairRow collects row x's dirty-incident triplets above the floor —
// RepairRange's inner body. zList is scratch for the shortlist of viable z,
// returned for reuse.
func (s *ZetaScanState) repairRow(local []BandTriplet, x int, dirty []int, mask []bool, floor float64, zList []int32) ([]BandTriplet, []int32) {
	if mask[x] {
		// Every triplet of a dirty row changed: scan all pairs.
		return s.collectRow(local, x, floor), zList
	}
	n := s.n
	rowX := s.vals[x*n : (x+1)*n]
	invT, amgm := 1/floor, 2*math.Ln2*floor
	for _, z := range dirty {
		if z != x {
			local = s.collectPair(local, rowX, x, z, invT, amgm)
		}
	}
	// The (x, y ∈ M, z ∉ M) slice. The AM-GM necessary condition
	// b + c + amgm < 2a with c ≥ colMin[y] bounds b from above, so one
	// pass over the row shortlists the viable z — typically a small
	// fraction of n — before the per-y loops run.
	aMax := math.Inf(-1)
	cMinD := math.Inf(1)
	live := 0
	for _, y := range dirty {
		if y == x {
			continue
		}
		a := rowX[y]
		if s.rowMin[x]+s.colMin[y]+amgm >= 2*a {
			continue // pair (x, y) cannot reach the floor
		}
		live++
		if a > aMax {
			aMax = a
		}
		if s.colMin[y] < cMinD {
			cMinD = s.colMin[y]
		}
	}
	if live == 0 {
		return local, zList
	}
	bLim := 2*aMax - amgm - cMinD
	zList = zList[:0]
	for z := 0; z < n; z++ {
		if z != x && !mask[z] && rowX[z] < bLim {
			zList = append(zList, int32(z)) // dirty z covered above
		}
	}
	for _, y := range dirty {
		if y == x {
			continue
		}
		a := rowX[y]
		if s.rowMin[x]+s.colMin[y]+amgm >= 2*a {
			continue
		}
		bLimY := 2*a - amgm - s.colMin[y]
		for _, z32 := range zList {
			z := int(z32)
			if z == y {
				continue
			}
			b := rowX[z]
			if b >= bLimY || a <= b {
				continue
			}
			c := s.vals[z*n+y]
			if a <= c || b+c+amgm >= 2*a {
				continue
			}
			if math.Exp((b-a)*invT)+math.Exp((c-a)*invT) >= 1 {
				continue
			}
			if zt := zetaTriplet(a, b, c, s.tol); zt > 1/invT {
				local = append(local, BandTriplet{zt, int32(x), int32(y), int32(z)})
			}
		}
	}
	return local, zList
}

// collectPair scans the (x, ·, z) pair — all y against fixed x, z —
// appending every triplet above the floor 1/invT. The whole-pair prune
// discharges the pair without entering the loop whenever even its
// strongest triplet (largest a, smallest c) stays within the floor;
// surviving pairs stop early on the a-only AM-GM necessary condition.
func (s *ZetaScanState) collectPair(local []BandTriplet, rowX []float64, x, z int, invT, amgm float64) []BandTriplet {
	maxX := s.rowMax[x]
	b := rowX[z]
	if b+s.rowMin[z]+amgm >= 2*maxX {
		return local
	}
	if math.Exp((b-maxX)*invT)+math.Exp((s.rowMin[z]-maxX)*invT) >= 1 {
		return local
	}
	n := s.n
	rowZ := s.vals[z*n : (z+1)*n]
	tau := 1 / invT
	aMin := (b + s.rowMin[z] + amgm) / 2
	for y := 0; y < n; y++ {
		a := rowX[y]
		if a <= aMin {
			continue
		}
		if y == x || y == z {
			continue
		}
		c := rowZ[y]
		if a <= c || b+c+amgm >= 2*a {
			continue
		}
		if math.Exp((b-a)*invT)+math.Exp((c-a)*invT) >= 1 {
			continue
		}
		if zt := zetaTriplet(a, b, c, s.tol); zt > tau {
			local = append(local, BandTriplet{zt, int32(x), int32(y), int32(z)})
		}
	}
	return local
}

// VarphiScanState is the ϕ scan replica: the dense matrix itself (read
// live, no private copy) plus its decay extrema.
type VarphiScanState struct{ scanState }

// NewVarphiScanState derives the pruning extrema of m for ϕ range scans.
func NewVarphiScanState(m *Matrix) *VarphiScanState {
	s := &VarphiScanState{scanState{p: ParamVarphi, m: m, n: m.N()}}
	if s.n >= 3 {
		s.setVals(m.f)
	}
	return s
}

// PatchRows implements ScanState. The matrix is read live, so only the
// derived bounds need repair.
func (s *VarphiScanState) PatchRows(dirty []int, rowsOnly bool) {
	if s.n < 3 || len(dirty) == 0 {
		return
	}
	s.refreshExtrema(dirty, rowsOnly)
}

// CollectRange implements ScanState.
func (s *VarphiScanState) CollectRange(ctx context.Context, xlo, xhi int, floor float64) ([]BandTriplet, error) {
	return rangeScan(ctx, s.n, xlo, xhi, func(out []BandTriplet, x int) []BandTriplet {
		return s.collectRow(out, x, floor)
	})
}

// RepairRange implements ScanState.
func (s *VarphiScanState) RepairRange(ctx context.Context, xlo, xhi int, dirty []int, mask []bool, floor float64) ([]BandTriplet, error) {
	return rangeScan(ctx, s.n, xlo, xhi, func(out []BandTriplet, x int) []BandTriplet {
		return s.repairRow(out, x, dirty, mask, floor)
	})
}

// collectRow appends row x's ratios above tau: every (x, y, ·) pair.
func (s *VarphiScanState) collectRow(local []BandTriplet, x int, tau float64) []BandTriplet {
	rowX := s.m.row(x)
	for y := 0; y < s.n; y++ {
		if y != x {
			local = s.collectPair(local, rowX, x, y, tau)
		}
	}
	return local
}

// repairRow collects row x's dirty-incident ϕ triplets above the floor —
// RepairRange's inner body.
func (s *VarphiScanState) repairRow(local []BandTriplet, x int, dirty []int, mask []bool, tau float64) []BandTriplet {
	if mask[x] {
		return s.collectRow(local, x, tau)
	}
	n := s.n
	rowX := s.m.row(x)
	for _, y := range dirty {
		if y != x {
			local = s.collectPair(local, rowX, x, y, tau)
		}
	}
	for _, z := range dirty {
		if z == x {
			continue
		}
		fxz := rowX[z]
		// Whole-pair prune for fixed (x, z): the largest possible ratio
		// pairs fxz with the smallest f(x,y) and f(y,z).
		if fxz <= tau*(s.rowMin[x]+s.colMin[z]) {
			continue
		}
		for y := 0; y < n; y++ {
			if y == x || y == z || mask[y] {
				continue // dirty y already covered above
			}
			if r := fxz / (rowX[y] + s.m.f[y*n+z]); r > tau {
				local = append(local, BandTriplet{r, int32(x), int32(y), int32(z)})
			}
		}
	}
	return local
}

// collectPair scans the (x, y, ·) pair — all z against fixed x, y —
// appending every ratio above the floor to local.
func (s *VarphiScanState) collectPair(local []BandTriplet, rowX []float64, x, y int, tau float64) []BandTriplet {
	fxy := rowX[y]
	// Whole-pair prune: even the largest numerator over the smallest
	// denominator cannot reach the floor.
	if s.rowMax[x] <= tau*(fxy+s.rowMin[y]) {
		return local
	}
	n := s.n
	rowY := s.m.row(y)
	for z := 0; z < n; z++ {
		if z == x || z == y {
			continue
		}
		if r := rowX[z] / (fxy + rowY[z]); r > tau {
			local = append(local, BandTriplet{r, int32(x), int32(y), int32(z)})
		}
	}
	return local
}
