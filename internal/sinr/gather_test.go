package sinr_test

import (
	"context"
	"math"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/rng"
	"decaynet/internal/scenario"
	"decaynet/internal/shard"
	"decaynet/internal/sinr"
	"decaynet/internal/tier"
)

// fOnly hides every optional contract of a space, leaving only N and F:
// the builders must not need RowSpace to produce the same matrix.
type fOnly struct{ d core.Space }

func (s fOnly) N() int             { return s.d.N() }
func (s fOnly) F(i, j int) float64 { return s.d.F(i, j) }

// fullRowAffectances is the reference the receiver-column builders must
// match bit for bit: one full core.Rows row per sender, read at the link
// receivers. It also returns the per-link factor c_v·f_vv/P_v.
func fullRowAffectances(s *sinr.System, p sinr.Power) (ref, factor []float64) {
	n := s.Len()
	rows := core.Rows(s.Space())
	buf := make([]float64, rows.N())
	factor = make([]float64, n)
	for v := range factor {
		factor[v] = sinr.NoiseFactor(s, p, v) * s.Decay(v) / p[v]
	}
	ref = make([]float64, n*n)
	for w := 0; w < n; w++ {
		rows.Row(s.Link(w).Sender, buf)
		for v := 0; v < n; v++ {
			if v != w {
				ref[w*n+v] = factor[v] * p[w] / buf[s.Link(v).Receiver]
			}
		}
	}
	return ref, factor
}

// TestAffectanceGatherMatchesFullRows pins the three affectance builders —
// ComputeAffectancesCtx, both halves of PatchAffectances, and a local shard
// worker's AffectanceRows block — to the full-row reference on spaces with
// many more nodes than links, across every space family a session holds.
func TestAffectanceGatherMatchesFullRows(t *testing.T) {
	const nodes, nLinks = 1200, 48
	inst, err := scenario.Build("urban", scenario.Config{Links: nLinks, Nodes: nodes, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	urban := inst.Space
	model, err := tier.Build(urban, tier.Options{Config: tier.Config{K: 16, Tail: tier.TailModel}, Points: inst.Points})
	if err != nil {
		t.Fatal(err)
	}
	f32, err := tier.Build(urban, tier.Options{Config: tier.Config{K: 16, Tail: tier.TailFloat32}})
	if err != nil {
		t.Fatal(err)
	}
	geo, err := core.NewGeometricSpace(inst.Points, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A sender-dependent gain makes the matrix asymmetric, so reading
	// f(r_v, s_w) instead of f(s_w, r_v) cannot pass.
	skewed, err := core.FromFunc(nodes, func(i, j int) float64 {
		return urban.F(i, j) * (1 + float64(i%7)/8)
	})
	if err != nil {
		t.Fatal(err)
	}
	spaces := []struct {
		name  string
		space core.Space
	}{
		{"urban", urban},
		{"tier-model", model},
		{"tier-float32", f32},
		{"geometric", geo},
		{"matrix", skewed},
		{"f-only", fOnly{skewed}},
	}

	// The paired links plus one reversed link, so some sender is another
	// link's receiver (a zero decay, an infinite affectance).
	links := append(scenario.PairedLinks(nLinks), sinr.Link{Sender: 1, Receiver: 0})
	src := rng.New(17)
	p := make(sinr.Power, len(links))
	q := make(sinr.Power, len(links))
	for v := range p {
		p[v] = src.Range(0.5, 4)
		q[v] = src.Range(0.5, 4)
	}
	all := make([]int, len(links))
	for v := range all {
		all[v] = v
	}

	for _, tc := range spaces {
		t.Run(tc.name, func(t *testing.T) {
			s, err := sinr.NewSystem(tc.space, links, sinr.WithNoise(1e-9))
			if err != nil {
				t.Fatal(err)
			}
			n := s.Len()
			ref, factor := fullRowAffectances(s, p)
			same := func(what string, got func(w, v int) float64) {
				t.Helper()
				for w := 0; w < n; w++ {
					for v := 0; v < n; v++ {
						if g := got(w, v); math.Float64bits(g) != math.Float64bits(ref[w*n+v]) {
							t.Fatalf("%s: a_%d(%d) = %v, full-row reference %v", what, w, v, g, ref[w*n+v])
						}
					}
				}
			}

			a, err := sinr.ComputeAffectancesCtx(context.Background(), s, p)
			if err != nil {
				t.Fatal(err)
			}
			same("ComputeAffectancesCtx", a.Raw)

			// Patching every link of a matrix built for another power
			// vector recomputes every row and every column.
			stale := sinr.ComputeAffectances(s, q)
			same("PatchAffectances", sinr.PatchAffectances(s, p, stale, all).Raw)

			rep := replicaOf(t, tc.space)
			recv := make([]int, n)
			send := make([]int, n)
			for v := 0; v < n; v++ {
				recv[v], send[v] = s.Link(v).Receiver, s.Link(v).Sender
			}
			lo, hi := 5, n-3
			blk, err := shard.NewLocalWorker(rep).AffectanceRows(context.Background(), shard.AffectanceJob{
				Links: shard.Range{Lo: lo, Hi: hi}, Factor: factor, Power: p, Recv: recv, Send: send,
			})
			if err != nil {
				t.Fatal(err)
			}
			if blk.Lo != lo || len(blk.Rows) != (hi-lo)*n {
				t.Fatalf("block [%d, +%d), want [%d, +%d)", blk.Lo, len(blk.Rows), lo, (hi-lo)*n)
			}
			same("AffectanceRows", func(w, v int) float64 {
				if w < lo || w >= hi {
					return ref[w*n+v]
				}
				return blk.Rows[(w-lo)*n+v]
			})
		})
	}
}

// replicaOf wraps a space the way sessions do: a dense replica for a
// matrix, a streamed one for any other row space, and a materialized one
// for a space without the row contract.
func replicaOf(t *testing.T, d core.Space) *shard.Replica {
	t.Helper()
	rows := core.Rows(d)
	if m, ok := rows.(*core.Matrix); ok {
		return shard.NewReplica(m, 1e-9)
	}
	rep, err := shard.NewStreamedReplica(context.Background(), rows, 1e-9, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}
