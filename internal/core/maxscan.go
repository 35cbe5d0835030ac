package core

import (
	"context"
	"math"
	"sync/atomic"

	"decaynet/internal/par"
)

// The one ζ and the one ϕ maximum-scan kernel. Every exact max scan —
// the pool-parallel ZetaTolCtx / VarphiCtx, the trackers' full rescans,
// the shard-sized ZetaScanState / VarphiScanState ranges and the streamed
// StreamScan ranges — runs zetaTile / varphiTile: the parallel scans
// dispatch the n×n tile grid on the shared pool, the serial scans walk one
// x-row band across the second-index tiles. The scans differ only in
// where rows come from (a dense matrix or a RowPager), whether the scan
// is symmetry-halved, and the row range. The prunes skip only triplets
// that cannot raise the running maximum, and every surviving triplet's
// value comes from the same zetaTriplet call or ϕ ratio, so every route
// computes the same maximum bit for bit.

// scanRows is the row source of a max scan: a dense row-major n×n matrix,
// or a RowPager streaming rows on demand. A dense source is read-only and
// safe to share across tile goroutines; a paged source belongs to one
// goroutine.
type scanRows struct {
	n     int
	flat  []float64 // dense row-major matrix; nil when paged
	pager *RowPager
	pin   []float64 // pinned copy of the current x-row (paged only)
}

// denseRows is the row source over a materialized n×n row-major matrix.
func denseRows(flat []float64, n int) scanRows {
	return scanRows{n: n, flat: flat}
}

// pagedRows is the row source over a private pager.
func pagedRows(p *RowPager, n int) scanRows {
	return scanRows{n: n, pager: p, pin: make([]float64, n)}
}

// xRow returns row x for a whole tile row. A paged row is copied into the
// pin buffer, since faulting the second-index rows may evict x's tile.
// The kernels fetch second-index rows inline (a slice of flat, or
// pager.Row valid until the next fetch): a call per surviving pair is
// measurable on the dense hot path.
func (r *scanRows) xRow(x int) []float64 {
	if r.pager == nil {
		return r.flat[x*r.n : (x+1)*r.n]
	}
	copy(r.pin, r.pager.Row(x))
	return r.pin
}

// maxScan is one exact ζ or ϕ maximum scan: the row source, its per-row
// off-diagonal extrema (of ln f for ζ, of f for ϕ), the symmetry flag,
// the ζ bisection tolerance and the running maximum shared by every tile.
type maxScan struct {
	rows           scanRows
	rowMax, rowMin []float64
	sym            bool // exact symmetry certified: scan only y > x (ζ) / z > x (ϕ)
	tol            float64
	best           uint64Max
}

// tileKernel is the signature of zetaTile and varphiTile as method
// expressions, the form parallel and serial take.
type tileKernel func(s *maxScan, ctx context.Context, xlo, xhi, lo, hi int)

// newMaxScan starts a scan at the parameter's universal floor.
func newMaxScan(rows scanRows, rowMax, rowMin []float64, sym bool, tol, floor float64) *maxScan {
	s := &maxScan{rows: rows, rowMax: rowMax, rowMin: rowMin, sym: sym, tol: tol}
	s.best.store(floor)
	return s
}

// parallel runs kernel over the whole n×n tile grid on the shared pool.
// The row source must be dense.
func (s *maxScan) parallel(ctx context.Context, kernel tileKernel) (float64, error) {
	n := s.rows.n
	err := par.ForTilesCtx(ctx, n, tripletTile(n), func(xlo, xhi, lo, hi int) {
		kernel(s, ctx, xlo, xhi, lo, hi)
	})
	if err != nil {
		return 0, err
	}
	return s.best.load(), nil
}

// serial runs kernel over first indices [xlo, xhi) on the calling
// goroutine, one second-index tile at a time — the shard-sized partial
// reduction whose max-merge over a row partition equals the full scan.
func (s *maxScan) serial(ctx context.Context, xlo, xhi int, kernel tileKernel) (float64, error) {
	n := s.rows.n
	tile := tripletTile(n)
	if tile <= 0 {
		tile = n
	}
	for lo := 0; lo < n; lo += tile {
		kernel(s, ctx, xlo, xhi, lo, min(lo+tile, n))
		if err := ctx.Err(); err != nil {
			return 0, err
		}
	}
	return s.best.load(), nil
}

// zetaTile raises the running maximum to the largest triplet ζ with
// x ∈ [xlo, xhi), z ∈ [zlo, zhi) and any third node y (y > x when sym),
// on logs a = ln f(x,y), b = ln f(x,z), c = ln f(z,y). At the current
// best ζ (t = 1/ζ) a triplet cannot raise the maximum when
// g = e^((b−a)t) + e^((c−a)t) ≥ 1, and the chain below discharges such
// triplets as cheaply as it can, falling through to the bisection in
// zetaTriplet only for the survivors:
//
//  1. whole pair (x,z), AM-GM: g ≥ 2·e^((b+c−2a)t/2), so with the
//     strongest triplet the pair can field (a = max ln f(x,·),
//     c = min ln f(z,·)), b + c + 2ζ·ln 2 ≥ 2a settles every y;
//  2. whole pair, exact: the same strongest triplet satisfies g ≥ 1;
//  3. per y, a ≤ aMin = (b + min c + 2ζ·ln 2)/2: AM-GM with the row's
//     smallest c, the only test before the triplet's c is loaded;
//  4. per triplet, a ≤ c (the right side dominates at every ζ) or AM-GM
//     on the actual c;
//  5. per triplet, exact: g ≥ 1.
//
// ctx is polled between x-rows; a cancelled tile returns early with a
// partial maximum the caller discards.
func (s *maxScan) zetaTile(ctx context.Context, xlo, xhi, zlo, zhi int) {
	n, flat := s.rows.n, s.rows.flat
	rowMin, tol := s.rowMin, s.tol
	local := s.best.load()
	invT := 1 / local
	amgm := 2 * math.Ln2 * local
	for x := xlo; x < xhi; x++ {
		if ctx.Err() != nil {
			return
		}
		if g := s.best.load(); g > local {
			local = g // adopt other tiles' progress for pruning
			invT = 1 / local
			amgm = 2 * math.Ln2 * local
		}
		rowX := s.rows.xRow(x)
		maxX := s.rowMax[x]
		yStart := 0
		if s.sym {
			yStart = x + 1 // (x,y) and (y,x) triplets coincide
		}
		for z := zlo; z < zhi; z++ {
			if z == x {
				continue
			}
			b := rowX[z]
			cMin := rowMin[z]
			if b+cMin+amgm >= 2*maxX {
				continue
			}
			if math.Exp((b-maxX)*invT)+math.Exp((cMin-maxX)*invT) >= 1 {
				continue
			}
			var rowZ []float64
			if flat != nil {
				rowZ = flat[z*n : (z+1)*n]
			} else {
				rowZ = s.rows.pager.Row(z)
			}
			aMin := (b + cMin + amgm) / 2
			for y := yStart; y < n; y++ {
				if y == x || y == z {
					continue
				}
				a := rowX[y]
				if a <= aMin {
					continue
				}
				c := rowZ[y]
				if a <= c || b+c+amgm >= 2*a {
					continue
				}
				if math.Exp((b-a)*invT)+math.Exp((c-a)*invT) >= 1 {
					continue
				}
				if zt := zetaTriplet(a, b, c, tol); zt > local {
					local = zt
					invT = 1 / local
					amgm = 2 * math.Ln2 * local
					aMin = (b + cMin + amgm) / 2
					s.best.storeMax(zt)
				}
			}
		}
	}
	s.best.storeMax(local)
}

// varphiTile raises the running maximum to the largest ratio
// f(x,z) / (f(x,y) + f(y,z)) with x ∈ [xlo, xhi), y ∈ [ylo, yhi) and any z
// (z > x when sym). A whole (x,y) pair is discharged when even the largest
// numerator over the smallest denominator cannot beat the running
// maximum. ctx is polled between x-rows, as in zetaTile.
func (s *maxScan) varphiTile(ctx context.Context, xlo, xhi, ylo, yhi int) {
	n, flat := s.rows.n, s.rows.flat
	rowMin := s.rowMin
	local := s.best.load()
	for x := xlo; x < xhi; x++ {
		if ctx.Err() != nil {
			return
		}
		if g := s.best.load(); g > local {
			local = g
		}
		rowX := s.rows.xRow(x)
		maxX := s.rowMax[x]
		zStart := 0
		if s.sym {
			zStart = x + 1 // (x,·,z) and (z,·,x) ratios coincide
		}
		for y := ylo; y < yhi; y++ {
			if y == x {
				continue
			}
			fxy := rowX[y]
			if maxX <= local*(fxy+rowMin[y]) {
				continue
			}
			var rowY []float64
			if flat != nil {
				rowY = flat[y*n : (y+1)*n]
			} else {
				rowY = s.rows.pager.Row(y)
			}
			for z := zStart; z < n; z++ {
				if z == x || z == y {
					continue
				}
				if r := rowX[z] / (fxy + rowY[z]); r > local {
					local = r
					s.best.storeMax(r)
				}
			}
		}
	}
	s.best.storeMax(local)
}

// uint64Max is a small atomic float64 running maximum (the shared-progress
// cell of the tiled scans).
type uint64Max struct{ bits atomic.Uint64 }

func (u *uint64Max) store(v float64)    { u.bits.Store(math.Float64bits(v)) }
func (u *uint64Max) load() float64      { return math.Float64frombits(u.bits.Load()) }
func (u *uint64Max) storeMax(v float64) { storeMax(&u.bits, v) }

// storeMax raises the float64 packed in bits to v if v is larger.
func storeMax(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}
