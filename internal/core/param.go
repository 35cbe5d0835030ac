package core

import (
	"context"
	"fmt"

	"decaynet/internal/rng"
)

// Param names one of the two triplet parameters the scans maximize: the
// metricity ζ (Def 2.2) or the variant ϕ (Sec 4.2). Both are maxima over
// the ordered triplets of a decay space, so every scan, tracker, shard
// phase and wire job is written once and parameterized by a Param; the
// params table below is where a Param resolves to its floor, kernel and
// scan state. The zero value is ζ. A Param marshals as its name ("zeta",
// "varphi"), and decoding any other name fails.
type Param uint8

const (
	ParamZeta Param = iota
	ParamVarphi

	// NumParams is the number of triplet parameters, for per-Param slots.
	NumParams = 2
)

// paramSpec is one row of the params table.
type paramSpec struct {
	name    string
	floor   float64    // universal lower bound, attained on uniform spaces
	log     bool       // the kernel reads ln f (ζ) rather than f (ϕ)
	tile    tileKernel // the max-scan kernel
	exact   func(ctx context.Context, d Space, tol float64) (float64, error)
	state   func(m *Matrix, tol float64) ScanState
	sampled sampledScanFunc // the batched sampled scan
}

var params = [NumParams]paramSpec{
	ParamZeta: {
		name: "zeta", floor: DefaultZetaFloor, log: true, tile: (*maxScan).zetaTile,
		exact:   ZetaTolCtx,
		state:   func(m *Matrix, tol float64) ScanState { return NewZetaScanState(m, tol) },
		sampled: zetaSampledScan,
	},
	ParamVarphi: {
		name: "varphi", floor: VarphiFloor, tile: (*maxScan).varphiTile,
		exact:   func(ctx context.Context, d Space, _ float64) (float64, error) { return VarphiCtx(ctx, d) },
		state:   func(m *Matrix, _ float64) ScanState { return NewVarphiScanState(m) },
		sampled: varphiSampledScan,
	},
}

// VarphiFloor is ϕ's universal lower bound (attained on uniform spaces) —
// the ϕ analogue of DefaultZetaFloor.
const VarphiFloor = 0.5

// Valid reports whether p names a parameter.
func (p Param) Valid() bool { return p < NumParams }

// String returns the parameter's wire name.
func (p Param) String() string {
	if !p.Valid() {
		return fmt.Sprintf("Param(%d)", uint8(p))
	}
	return params[p].name
}

// MarshalText implements encoding.TextMarshaler. An invalid Param
// marshals as its String, which UnmarshalText rejects.
func (p Param) MarshalText() ([]byte, error) { return []byte(p.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler, rejecting unknown
// names.
func (p *Param) UnmarshalText(text []byte) error {
	for q := range params {
		if params[q].name == string(text) {
			*p = Param(q)
			return nil
		}
	}
	return fmt.Errorf("core: unknown parameter %q", text)
}

// Floor returns the parameter's universal lower bound: every scan starts
// there and reports it for spaces with fewer than three nodes.
func (p Param) Floor() float64 { return params[p].floor }

// BandFloor returns the candidate-band floor a tracker retains for a
// full-scan maximum max — a margin below it, never below the universal
// floor. A sharded band-collection phase collects above it so that
// NewTrackerFrom seeds a complete set.
func (p Param) BandFloor(max float64) float64 {
	f := max - candMargin*max
	if f < params[p].floor {
		return params[p].floor
	}
	return f
}

// MaxCtx runs the one-shot exact scan of p over d (ZetaTolCtx at
// bisection tolerance tol, or VarphiCtx).
func MaxCtx(ctx context.Context, p Param, d Space, tol float64) (float64, error) {
	return params[p].exact(ctx, d, tol)
}

// NewScanState builds p's dense scan replica over m (a ZetaScanState at
// bisection tolerance tol, or a VarphiScanState).
func NewScanState(p Param, m *Matrix, tol float64) ScanState {
	return params[p].state(m, tol)
}

// SampledCtx draws p's sampled estimate from `samples` triplets (see
// ZetaSampledEstimateCtx) or, when eps > 0, iterates it from that budget
// until its half-width is at most eps (see ZetaSampledTarget).
func SampledCtx(ctx context.Context, p Param, d Space, samples int, eps float64, src *rng.Source) (SampledEstimate, error) {
	if eps > 0 {
		return sampledTarget(ctx, d, samples, eps, src, params[p].sampled)
	}
	return sampledEstimate(ctx, d, samples, src, params[p].sampled)
}
