// Package shard is the row-range sharding runtime behind the scaled
// metricity/affectance paths: a Coordinator partitions the row index space
// of a dense decay space into K contiguous row-range shards and dispatches
// each shard's tile-grid work unit (the par.ForTiles granule: the shard's
// row band of the (x,z) tile grid) to a Worker over a message-shaped
// boundary, then merges the partial results — per-shard ζ/ϕ maxima and
// band collections into global tracker state, per-shard affectance row
// blocks into the dense matrix, per-shard repair collections into the
// incremental session repairs.
//
// Every reduction the coordinator performs is associative and
// schedule-independent — maxima merge with max, bands concatenate in shard
// order, row blocks are disjoint — and every per-triplet value is computed
// by the same deterministic kernels as the unsharded scans
// (core.ScanState), so the sharded results are
// bit-identical to the single-machine ones. That property is what lets
// decaynet.WithShards route a live session through the coordinator
// transparently and is enforced by the equivalence property tests.
//
// The Worker interface is message-shaped: every method takes and returns
// plain wire-format structs (json-tagged values, no shared pointers), so a
// cross-machine transport only needs to marshal them. The in-process
// implementation runs each worker's scan serially on the calling
// goroutine — the coordinator's fan-out is the parallelism, one goroutine
// per shard — against a shared Replica; a remote deployment would give
// each worker its own replica and ship Mutation batches to keep them
// current (the ROADMAP's replicated-session item).
package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"decaynet/internal/core"
)

// Range is a half-open row range [Lo, Hi) — the unit of work ownership.
type Range struct {
	Lo int `json:"lo"`
	Hi int `json:"hi"`
}

// Len returns the number of rows in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// Split partitions [0, n) into k contiguous near-equal ranges (the first
// n mod k ranges get the extra row). k is clamped to at least 1; ranges
// beyond n come out empty, so every shard index stays addressable.
func Split(n, k int) []Range {
	if k < 1 {
		k = 1
	}
	out := make([]Range, k)
	base, extra := 0, 0
	if n > 0 {
		base, extra = n/k, n%k
	}
	lo := 0
	for i := range out {
		hi := lo + base
		if i < extra {
			hi++
		}
		out[i] = Range{Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// ScanJob asks a worker for the exact maximum of Param over the triplets
// whose first index lies in its row range. Sym certifies exact decay
// symmetry, allowing the halved scan.
type ScanJob struct {
	Param core.Param `json:"param"`
	Rows  Range      `json:"rows"`
	Sym   bool       `json:"sym"`
}

// MaxResult is a shard's partial maximum.
type MaxResult struct {
	Max float64 `json:"max"`
}

// BandJob asks a worker for every triplet in its row range whose Param
// value exceeds Floor — the band-collection phase seeding the global
// trackers.
type BandJob struct {
	Param core.Param `json:"param"`
	Rows  Range      `json:"rows"`
	Floor float64    `json:"floor"`
}

// RepairJob asks a worker to re-scan the dirty-incident triplets of its
// row range after a mutation, collecting those whose Param value exceeds
// Floor. RowsOnly mirrors the tracker contract (only dirty rows changed,
// not columns).
type RepairJob struct {
	Param    core.Param `json:"param"`
	Rows     Range      `json:"rows"`
	Dirty    []int      `json:"dirty"`
	RowsOnly bool       `json:"rows_only"`
	Floor    float64    `json:"floor"`
}

// BandResult is a shard's collected band.
type BandResult struct {
	Band []core.BandTriplet `json:"band"`
}

// AffectanceJob asks a worker for the affectance-matrix row block of the
// links in Links: row w holds a_w(v) = Factor[v] · Power[w] / f(Send[w],
// Recv[v]) for all v, evaluated against the worker's replica of the decay
// space. The per-link vectors are precomputed by the coordinator's caller
// so every shard consumes identical inputs.
type AffectanceJob struct {
	Links  Range     `json:"links"`
	Factor []float64 `json:"factor"`
	Power  []float64 `json:"power"`
	Recv   []int     `json:"recv"`
	Send   []int     `json:"send"`
}

// AffectanceBlock is a shard's affectance row block: rows [Lo, Lo+len/n)
// of the dense matrix, row-major.
type AffectanceBlock struct {
	Lo   int       `json:"lo"`
	Rows []float64 `json:"rows"`
}

// Validate checks the job against a replica of n nodes: a known
// parameter and rows within [0, n). Every job decoded from the network
// passes its Validate before a kernel indexes with it.
func (j ScanJob) Validate(n int) error { return validScan(j.Param, j.Rows, n) }

// Validate checks the job against a replica of n nodes (see ScanJob).
func (j BandJob) Validate(n int) error { return validScan(j.Param, j.Rows, n) }

// Validate checks the job against a replica of n nodes: ScanJob's checks
// plus every dirty node in [0, n).
func (j RepairJob) Validate(n int) error {
	if err := validScan(j.Param, j.Rows, n); err != nil {
		return err
	}
	return ValidNodes("dirty", j.Dirty, n)
}

// Validate checks the job against a replica of n nodes: the four per-link
// vectors have one entry per link, Links lies within them, and every
// sender and receiver is a node in [0, n).
func (j AffectanceJob) Validate(n int) error {
	links := len(j.Factor)
	if len(j.Power) != links || len(j.Recv) != links || len(j.Send) != links {
		return fmt.Errorf("shard: affectance vectors of %d/%d/%d/%d entries", links, len(j.Power), len(j.Recv), len(j.Send))
	}
	if err := j.Links.within(links); err != nil {
		return err
	}
	if err := ValidNodes("send", j.Send, n); err != nil {
		return err
	}
	return ValidNodes("recv", j.Recv, n)
}

// validScan checks a scan job's parameter and row range.
func validScan(p core.Param, rows Range, n int) error {
	if !p.Valid() {
		return fmt.Errorf("shard: unknown parameter %v", p)
	}
	return rows.within(n)
}

// within checks 0 ≤ Lo ≤ Hi ≤ n.
func (r Range) within(n int) error {
	if r.Lo < 0 || r.Lo > r.Hi || r.Hi > n {
		return fmt.Errorf("shard: range [%d,%d) outside [0,%d)", r.Lo, r.Hi, n)
	}
	return nil
}

// ValidNodes checks that every entry of nodes (named what) lies in [0, n).
func ValidNodes(what string, nodes []int, n int) error {
	for _, v := range nodes {
		if v < 0 || v >= n {
			return fmt.Errorf("shard: %s node %d outside [0,%d)", what, v, n)
		}
	}
	return nil
}

// Worker is the serializable shard boundary: each method is one
// request/response exchange over plain wire-format values. In-process
// workers scan a shared Replica serially; a future transport marshals the
// same structs to remote workers holding their own replicas. All methods
// poll ctx per row and return ctx.Err() promptly when cancelled.
type Worker interface {
	Max(ctx context.Context, job ScanJob) (MaxResult, error)
	Band(ctx context.Context, job BandJob) (BandResult, error)
	Repair(ctx context.Context, job RepairJob) (BandResult, error)
	AffectanceRows(ctx context.Context, job AffectanceJob) (AffectanceBlock, error)
}

// ErrStreamed is returned for phases a streamed (row-paged, non-dense)
// replica cannot serve: band collection, trackers and repairs all assume a
// mutable dense matrix, and streamed sessions are immutable by contract.
var ErrStreamed = errors.New("shard: operation not supported on a streamed replica (streamed sessions are immutable)")

// Replica is the session state a worker scans: the dense decay matrix plus
// lazily built scan replicas (log matrix, pruning extrema). In-process,
// one Replica is shared by every worker and patched in place by the
// session's repairs (under the session write lock); cross-machine, each
// worker would hold its own and apply shipped mutation batches.
//
// A streamed replica (NewStreamedReplica) holds no dense matrix at all:
// instead of an n² log matrix it carries a core.StreamScan — O(n) pruning
// extrema over a core.RowSpace — and its workers page rows through bounded
// tile caches during range scans. Max scans and affectance blocks work
// identically (and bit-identically); trackers and repairs return
// ErrStreamed.
type Replica struct {
	mu     sync.Mutex
	m      *core.Matrix // nil for streamed replicas
	tol    float64
	states [core.NumParams]core.ScanState // dense scan states, built on first use

	rows core.RowSpace    // streamed replicas: the row source
	ss   *core.StreamScan // streamed replicas: extrema + paging geometry
}

// NewReplica wraps a dense space for scanning at ζ bisection tolerance tol.
func NewReplica(m *core.Matrix, tol float64) *Replica {
	return &Replica{m: m, tol: tol}
}

// NewStreamedReplica wraps a row-streamed space for scanning at ζ bisection
// tolerance tol without ever materializing it densely: construction streams
// every row once to derive the O(n) pruning extrema (cancellable via ctx),
// and each range scan holds at most maxTiles·tileRows rows (non-positive
// values select the core.DefaultStream* geometry). The replica is immutable:
// scans may run concurrently, but Patch/Invalidate have nothing to refresh
// and the tracker/repair phases report ErrStreamed.
func NewStreamedReplica(ctx context.Context, rs core.RowSpace, tol float64, tileRows, maxTiles int) (*Replica, error) {
	if rs == nil {
		return nil, errors.New("shard: nil row space")
	}
	ss, err := core.NewStreamScan(ctx, rs, tol, tileRows, maxTiles)
	if err != nil {
		return nil, err
	}
	return &Replica{tol: tol, rows: rs, ss: ss}, nil
}

// NewStreamedReplicaFrom rebuilds a streamed replica from previously
// derived scan extrema instead of streaming every row — the O(n) path a
// remote worker takes when the coordinator ships a tiered snapshot with
// the extrema attached (streamed sessions are immutable, so the extrema
// stay valid for the replica's lifetime). Scans over the result are
// bit-identical to scans over a NewStreamedReplica of the same space.
func NewStreamedReplicaFrom(rs core.RowSpace, tol float64, tileRows, maxTiles int, ex core.StreamExtrema) (*Replica, error) {
	if rs == nil {
		return nil, errors.New("shard: nil row space")
	}
	ss, err := core.NewStreamScanFrom(rs, tol, tileRows, maxTiles, ex)
	if err != nil {
		return nil, err
	}
	return &Replica{tol: tol, rows: rs, ss: ss}, nil
}

// Streamed reports whether this replica pages rows instead of holding a
// dense matrix.
func (r *Replica) Streamed() bool { return r.m == nil && r.rows != nil }

// Tol returns the ζ bisection tolerance the replica scans at.
func (r *Replica) Tol() float64 { return r.tol }

// StreamSource returns a streamed replica's row source (nil for dense
// replicas) — the space a transport snapshots for remote replication.
func (r *Replica) StreamSource() core.RowSpace { return r.rows }

// StreamExtrema returns a streamed replica's scan extrema and paging
// geometry for transport (see core.StreamScan.Extrema). ok is false for
// dense replicas.
func (r *Replica) StreamExtrema() (ex core.StreamExtrema, tileRows, maxTiles int, ok bool) {
	if r.ss == nil {
		return core.StreamExtrema{}, 0, 0, false
	}
	tileRows, maxTiles = r.ss.Geometry()
	return r.ss.Extrema(), tileRows, maxTiles, true
}

// N returns the node count regardless of replica kind.
func (r *Replica) N() int {
	if r.m != nil {
		return r.m.N()
	}
	return r.rows.N()
}

// space returns the decay space the replica holds: the dense matrix, or
// the streamed row source.
func (r *Replica) space() core.Space {
	if r.m != nil {
		return r.m
	}
	return r.rows
}

// symmetric reports whether the replica's space certifies exact symmetry
// (the halved triplet scans rely on it).
func (r *Replica) symmetric() bool {
	if r.m != nil {
		return r.m.Symmetric()
	}
	return core.KnownSymmetric(r.rows)
}

// State returns the replica's scan state for p. A dense replica builds
// it on first use. A streamed replica answers MaxRange by paging rows and
// ErrStreamed for the collection and repair phases.
func (r *Replica) State(p core.Param) core.ScanState {
	if r.ss != nil {
		return streamedState{ss: r.ss, p: p}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.states[p] == nil {
		r.states[p] = core.NewScanState(p, r.m, r.tol)
	}
	return r.states[p]
}

// Invalidate drops p's scan state (the matrix mutated without an
// incremental repair); the next scan rebuilds it.
func (r *Replica) Invalidate(p core.Param) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.states[p] = nil
}

// M returns the dense space the replica scans. Mutating it without a
// matching Patch leaves the scan states stale — the session layer owns
// that discipline.
func (r *Replica) M() *core.Matrix { return r.m }

// Patch refreshes whichever scan states have been built after the
// underlying matrix mutated on the dirty rows (and, unless rowsOnly,
// columns) — the replica-side half of a session repair. A remote worker
// applies a shipped mutation batch to its matrix and then calls Patch, so
// its subsequent range scans see exactly the state an in-process repair
// would. Callers serialize Patch against range scans.
func (r *Replica) Patch(dirty []int, rowsOnly bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, st := range r.states {
		if st != nil {
			st.PatchRows(dirty, rowsOnly)
		}
	}
}

// streamedState is the ScanState of a streamed replica: row-paged maxima,
// nothing to patch, and ErrStreamed for the phases that need a dense
// matrix.
type streamedState struct {
	ss *core.StreamScan
	p  core.Param
}

func (s streamedState) Param() core.Param     { return s.p }
func (s streamedState) N() int                { return s.ss.N() }
func (s streamedState) PatchRows([]int, bool) {}

func (s streamedState) MaxRange(ctx context.Context, xlo, xhi int, sym bool) (float64, error) {
	return s.ss.MaxRange(ctx, s.p, xlo, xhi, sym)
}

func (s streamedState) FullMax(context.Context) (float64, error) { return 0, ErrStreamed }

func (s streamedState) CollectRange(context.Context, int, int, float64) ([]core.BandTriplet, error) {
	return nil, ErrStreamed
}

func (s streamedState) RepairRange(context.Context, int, int, []int, []bool, float64) ([]core.BandTriplet, error) {
	return nil, ErrStreamed
}

// localWorker is the in-process Worker: serial scans over the shared
// replica. Its parallelism budget is exactly one goroutine — the
// coordinator's fan-out supplies the concurrency — so K shards scale to K
// cores without oversubscribing the pool the unsharded kernels use.
type localWorker struct {
	rep *Replica
}

func (w *localWorker) Max(ctx context.Context, job ScanJob) (MaxResult, error) {
	max, err := w.rep.State(job.Param).MaxRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Sym)
	return MaxResult{Max: max}, err
}

func (w *localWorker) Band(ctx context.Context, job BandJob) (BandResult, error) {
	band, err := w.rep.State(job.Param).CollectRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Floor)
	return BandResult{Band: band}, err
}

func (w *localWorker) Repair(ctx context.Context, job RepairJob) (BandResult, error) {
	mask := core.DirtyMask(w.rep.N(), job.Dirty)
	band, err := w.rep.State(job.Param).RepairRange(ctx, job.Rows.Lo, job.Rows.Hi, job.Dirty, mask, job.Floor)
	return BandResult{Band: band}, err
}

func (w *localWorker) AffectanceRows(ctx context.Context, job AffectanceJob) (AffectanceBlock, error) {
	nLinks := len(job.Factor)
	lo, hi := job.Links.Lo, job.Links.Hi
	blk := AffectanceBlock{Lo: lo, Rows: make([]float64, (hi-lo)*nLinks)}
	src := w.rep.space()
	for l := lo; l < hi; l++ {
		if err := ctx.Err(); err != nil {
			return AffectanceBlock{}, err
		}
		out := blk.Rows[(l-lo)*nLinks : (l-lo+1)*nLinks]
		sl, pw := job.Send[l], job.Power[l]
		for v, rv := range job.Recv {
			if v == l {
				out[v] = 0
				continue
			}
			out[v] = job.Factor[v] * pw / src.F(sl, rv)
		}
	}
	return blk, nil
}

// NewLocalWorker wraps a replica as an in-process Worker: serial scans on
// the calling goroutine, exactly the workers New builds. Exported so
// transports can serve their replicas through the same code path (the
// remote worker daemon) and so fault-tolerant pools can fall back to
// coordinator-local computation when every remote worker is dead.
func NewLocalWorker(rep *Replica) Worker { return &localWorker{rep: rep} }

// Coordinator owns a row-range partition of a decay space and the shard
// workers serving it. It is safe for concurrent use by readers; mutations
// to the underlying space must be serialized externally (the public
// Engine holds its session write lock across repairs), matching the
// session contract of every other cached product.
type Coordinator struct {
	n      int
	ranges []Range
	work   []Worker
	rep    *Replica // nil for work-grid coordinators (NewGrid)
}

// New builds a coordinator over the dense space m with k in-process
// workers sharing one replica, at ζ bisection tolerance tol.
func New(m *core.Matrix, tol float64, k int) (*Coordinator, error) {
	if m == nil {
		return nil, errors.New("shard: nil matrix")
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: %d shards", k)
	}
	return newLocal(NewReplica(m, tol), k), nil
}

// newLocal builds a coordinator with k in-process workers sharing rep.
func newLocal(rep *Replica, k int) *Coordinator {
	c := &Coordinator{n: rep.N(), ranges: Split(rep.N(), k), rep: rep}
	for i := 0; i < k; i++ {
		c.work = append(c.work, &localWorker{rep: rep})
	}
	return c
}

// NewStreamed builds a coordinator over a row-streamed space with k
// in-process workers sharing one streamed replica — the out-of-core shard
// path. ζ/ϕ maxima and affectance blocks work bit-identically to New over
// the materialized space while each worker's row working set stays at
// maxTiles·tileRows rows (non-positive values select the core defaults);
// trackers and repairs return ErrStreamed. Construction streams every row
// once for the pruning extrema and is cancellable via ctx.
func NewStreamed(ctx context.Context, rs core.RowSpace, tol float64, k, tileRows, maxTiles int) (*Coordinator, error) {
	if k < 1 {
		return nil, fmt.Errorf("shard: %d shards", k)
	}
	rep, err := NewStreamedReplica(ctx, rs, tol, tileRows, maxTiles)
	if err != nil {
		return nil, err
	}
	return newLocal(rep, k), nil
}

// NewWithWorkers builds a coordinator over an explicit worker set — one
// row-range shard per worker — sharing the given replica for the
// coordinator-side state (tracker scan states, symmetry checks, local
// fallback). The workers may be any Worker implementation: in-process
// scanners, remote transport clients, or fault-tolerant wrappers that
// reassign a dead worker's row range to survivors. Because every worker
// computes with the same deterministic kernels over (replicas of) the same
// space, and the coordinator merges partials by row range rather than
// arrival order, results stay bit-identical to the unsharded scans no
// matter which worker actually served each range.
func NewWithWorkers(rep *Replica, workers []Worker) (*Coordinator, error) {
	if rep == nil {
		return nil, errors.New("shard: nil replica")
	}
	if len(workers) == 0 {
		return nil, errors.New("shard: no workers")
	}
	n := rep.N()
	return &Coordinator{n: n, ranges: Split(n, len(workers)), work: append([]Worker(nil), workers...), rep: rep}, nil
}

// NewGrid builds a work-dispatch coordinator over [0, n) with no replica:
// only the EachRange fan-out is available (the per-tx-row trace
// aggregation uses it).
func NewGrid(n, k int) *Coordinator {
	if k < 1 {
		k = 1
	}
	c := &Coordinator{n: n, ranges: Split(n, k)}
	for i := 0; i < k; i++ {
		c.work = append(c.work, nil)
	}
	return c
}

// Shards returns the number of shards K.
func (c *Coordinator) Shards() int { return len(c.ranges) }

// Ranges returns the row-range partition.
func (c *Coordinator) Ranges() []Range { return append([]Range(nil), c.ranges...) }

// Replica returns the shared in-process replica (nil for NewGrid
// coordinators).
func (c *Coordinator) Replica() *Replica { return c.rep }

// EachRange partitions [0, n) into the coordinator's K shards and runs
// body(shard, range) concurrently, one goroutine per shard — the generic
// fan-out every sharded phase is built on. n may differ from the
// coordinator's row count (the affectance build partitions links, the
// trace aggregation readings' tx rows). The first error cancels the
// remaining shards' contexts and is returned; bodies poll ctx per row, so
// cancellation propagates to every worker well within a row's scan time.
func (c *Coordinator) EachRange(ctx context.Context, n int, body func(ctx context.Context, shard int, r Range) error) error {
	ranges := c.ranges
	if n != c.n {
		ranges = Split(n, len(c.work))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	for i, r := range ranges {
		if r.Len() == 0 {
			continue
		}
		wg.Add(1)
		go func(i int, r Range) {
			defer wg.Done()
			if err := body(ctx, i, r); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
			}
		}(i, r)
	}
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}
	return ctx.Err()
}

// maxPhase fans a ScanJob for p over the shards and merges the partial
// maxima.
func (c *Coordinator) maxPhase(ctx context.Context, p core.Param, sym bool) (float64, error) {
	maxes := make([]float64, len(c.work))
	err := c.EachRange(ctx, c.n, func(ctx context.Context, i int, r Range) error {
		res, err := c.work[i].Max(ctx, ScanJob{Param: p, Rows: r, Sym: sym})
		maxes[i] = res.Max
		return err
	})
	if err != nil {
		return 0, err
	}
	best := p.Floor()
	for _, m := range maxes {
		if m > best {
			best = m
		}
	}
	return best, nil
}

// collectPhase fans one band-collecting job per shard — call builds the
// job for a shard's row range and runs it — and concatenates the collected
// bands in shard order (deterministic; no consumer depends on order).
func (c *Coordinator) collectPhase(ctx context.Context, call func(ctx context.Context, w Worker, r Range) (BandResult, error)) ([]core.BandTriplet, error) {
	parts := make([][]core.BandTriplet, len(c.work))
	err := c.EachRange(ctx, c.n, func(ctx context.Context, i int, r Range) error {
		res, err := call(ctx, c.work[i], r)
		parts[i] = res.Band
		return err
	})
	if err != nil {
		return nil, err
	}
	var band []core.BandTriplet
	for _, p := range parts {
		band = append(band, p...)
	}
	return band, nil
}

// fullScan is the two-phase scan that seeds a tracker: a max phase fixes
// the exact maximum of p, and a band phase collects every triplet above
// its band floor.
func (c *Coordinator) fullScan(ctx context.Context, p core.Param) (float64, []core.BandTriplet, error) {
	max, err := c.maxPhase(ctx, p, false)
	if err != nil || max <= p.Floor() {
		return max, nil, err
	}
	floor := p.BandFloor(max)
	band, err := c.collectPhase(ctx, func(ctx context.Context, w Worker, r Range) (BandResult, error) {
		return w.Band(ctx, BandJob{Param: p, Rows: r, Floor: floor})
	})
	return max, band, err
}

// Max runs the sharded exact scan of p: per-shard row-range maxima merged
// with max — bit-identical to core.MaxCtx. Symmetric spaces scan the
// halved triplet set, exactly as the unsharded kernels do.
func (c *Coordinator) Max(ctx context.Context, p core.Param) (float64, error) {
	return c.maxPhase(ctx, p, c.rep.symmetric())
}

// Zeta runs the sharded exact metricity scan (Max of ζ).
func (c *Coordinator) Zeta(ctx context.Context) (float64, error) { return c.Max(ctx, core.ParamZeta) }

// Varphi runs the sharded exact ϕ scan (Max of ϕ).
func (c *Coordinator) Varphi(ctx context.Context) (float64, error) {
	return c.Max(ctx, core.ParamVarphi)
}

// Tracker builds the incremental tracker of p through the shards: the
// two-phase full scan's merged band seeds the global tracker, which then
// shares its scan replica with the workers, so repairs route back through
// them.
func (c *Coordinator) Tracker(ctx context.Context, p core.Param) (*core.Tracker, error) {
	if c.rep.Streamed() {
		return nil, ErrStreamed
	}
	st := c.rep.State(p)
	max, band, err := c.fullScan(ctx, p)
	if err != nil {
		return nil, err
	}
	return core.NewTrackerFrom(st, max, band), nil
}

// Repair routes a session repair of t through the shards: the tracker
// patches the shared replica and drops dirty candidates, every worker
// re-scans the dirty-incident triplets of its row range (dirty rows map
// to their owning shards' full-row rescans), and the merged band restores
// the tracked value. A drained band falls back to the full sharded
// two-phase rescan. Bit-identical to core.Tracker.Repair.
func (c *Coordinator) Repair(ctx context.Context, t *core.Tracker, dirty []int, rowsOnly bool) (float64, error) {
	if c.rep.Streamed() {
		return 0, ErrStreamed
	}
	p := t.Param()
	t.PatchAndDrop(dirty, rowsOnly)
	floor := t.Floor()
	band, err := c.collectPhase(ctx, func(ctx context.Context, w Worker, r Range) (BandResult, error) {
		return w.Repair(ctx, RepairJob{Param: p, Rows: r, Dirty: dirty, RowsOnly: rowsOnly, Floor: floor})
	})
	if err != nil {
		return 0, err
	}
	if v, needRescan := t.AbsorbRepair(band); !needRescan {
		return v, nil
	}
	max, full, err := c.fullScan(ctx, p)
	if err != nil {
		return 0, err
	}
	t.Reseed(max, full)
	return max, nil
}

// AffectanceBlocks fans an affectance build over the shards — the link
// rows partition into K blocks, each computed against the workers'
// replicas from the shared per-link vectors — and calls sink with each
// shard's block as it completes (sink must be safe for concurrent calls;
// writing disjoint row blocks of one dense buffer is).
func (c *Coordinator) AffectanceBlocks(ctx context.Context, nLinks int, factor, power []float64, recv, send []int, sink func(AffectanceBlock)) error {
	return c.EachRange(ctx, nLinks, func(ctx context.Context, i int, r Range) error {
		blk, err := c.work[i].AffectanceRows(ctx, AffectanceJob{
			Links: r, Factor: factor, Power: power, Recv: recv, Send: send,
		})
		if err != nil {
			return err
		}
		sink(blk)
		return nil
	})
}
