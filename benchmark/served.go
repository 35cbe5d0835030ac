package main

import (
	"context"
	"fmt"
	"slices"

	"decaynet"
	"decaynet/internal/scenario"
	"decaynet/internal/server"
)

// The serve-session workload: one client, closed loop, drives whole
// sessions through decaynet.NewServer over HTTP. A unit of work creates a
// tracked "churn" session, reads ζ, ϕ, capacity and a schedule, applies
// servedBatches ChurnStream batches (each followed by ζ, ϕ and capacity
// reads), runs a short simulation, reads the final schedule and deletes
// the session. It exercises the wire, Engine.Update with incremental
// tracker repair, and Simulate with steady session-scale timings.
const (
	servedLinks   = 128
	servedBatches = 8
	// servedRetune is the churn stream's row re-measurement rate: a retune
	// voids the analytic ζ, so ζ repairs run as well as ϕ's.
	servedRetune = 0.5
)

// servedPool is the fixed list of churn scenario seeds with stored digests.
var servedPool = seedRange(1, 8)

func servedConfig(seed uint64) server.ScenarioParams {
	return server.ScenarioParams{Links: servedLinks, Seed: seed, Params: map[string]float64{"retune": servedRetune}}
}

// servedSpec is the short simulation every served session runs.
const servedSpec = `{"horizon":0.05,"seed":7,"classes":[{"arrival":{"dist":"poisson","rate":400}}]}`

// servedSession runs one served session on slot 0 and returns its final
// outputs. batches is the session's churn stream.
func (r *serveRig) servedSession(cfg server.ScenarioParams, batches []scenario.Mutation) (sessionOutput, error) {
	var out sessionOutput
	r.creating.Store(0)
	var info server.SessionInfo
	if err := r.do("POST", "/v1/sessions", server.CreateRequest{Scenario: "churn", Config: cfg, Tracking: true}, &info, 0); err != nil {
		return out, err
	}
	path := "/v1/sessions/" + info.ID
	var (
		z   struct{ Zeta float64 }
		ph  struct{ Phi float64 }
		c   struct{ Links []int }
		sch struct{ Slots [][]int }
	)
	reads := func() error {
		for _, rd := range []struct {
			q   string
			out any
		}{{"/zeta", &z}, {"/phi", &ph}, {"/capacity?power=linear", &c}} {
			if err := r.do("GET", path+rd.q, nil, rd.out, 0); err != nil {
				return err
			}
		}
		return nil
	}
	err := reads()
	if err == nil {
		err = r.do("GET", path+"/schedule?power=linear", nil, &sch, 0)
	}
	for i := 0; err == nil && i < len(batches); i++ {
		if err = r.do("POST", path+"/mutations", wireMutation(batches[i]), nil, 0); err == nil {
			err = reads()
		}
	}
	if err == nil {
		err = r.do("POST", path+"/simulate", rawJSON(servedSpec), nil, 0)
	}
	if err == nil {
		err = r.do("GET", path+"/schedule?power=linear", nil, &sch, 0)
	}
	if derr := r.do("DELETE", path, nil, nil, 0); err == nil {
		err = derr
	}
	out = sessionOutput{Zeta: z.Zeta, Phi: ph.Phi, Capacity: c.Links, Slots: sch.Slots}
	return out, err
}

type rawJSON string

func (j rawJSON) MarshalJSON() ([]byte, error) { return []byte(j), nil }

// churnBatches prepares every pool seed's stream (benchmark input, made
// before any timing).
func churnBatches(pool []uint64) (map[uint64][]scenario.Mutation, error) {
	out := make(map[uint64][]scenario.Mutation)
	for _, s := range pool {
		b, err := decaynet.ChurnStream(servedConfig(s).ScenarioConfig(), servedBatches)
		if err != nil {
			return nil, err
		}
		out[s] = b
	}
	return out, nil
}

// serveSession is the serve-session workload for the closed-loop runner.
// Its set-up starts the server and runs one warm-up session (seed
// warmSeed, outside the pool); the measured sessions use the last set-up's
// server.
var serveSession = func() *closedLoop {
	var (
		rig     *serveRig
		batches map[uint64][]scenario.Mutation
	)
	return &closedLoop{
		name: "serve-session",
		pool: servedPool,
		setUp: func(_ context.Context, o runOpts) (func(), error) {
			if batches == nil {
				var err error
				if batches, err = churnBatches(append(slices.Clone(servedPool), warmSeed)); err != nil {
					return nil, err
				}
			}
			r, err := startServe(o.seed, o.trace, nil)
			if err != nil {
				return nil, err
			}
			if _, err := r.servedSession(servedConfig(warmSeed), batches[warmSeed]); err != nil {
				r.stop()
				return nil, fmt.Errorf("warm-up session: %w", err)
			}
			rig = r
			return r.stop, nil
		},
		session: func(_ context.Context, seed uint64, tr *tracer, sid int) (sessionResult, error) {
			if tr != nil {
				root := tr.begin("session", 0, sid)
				rig.slots[0].cur.Store(int64(root))
				rig.slots[0].session.Store(int64(sid))
				rig.setTracer(tr)
				defer func() {
					rig.setTracer(nil)
					tr.end(root)
				}()
			}
			out, err := rig.servedSession(servedConfig(seed), batches[seed])
			return sessionResult{out: out}, err
		},
		layers: func(rep *report, spans []span, _ []sessionResult, outs []sessionOutput) {
			st := &serveStats{}
			for _, out := range outs {
				st.chosen = append(st.chosen, float64(len(out.Capacity))/float64(servedLinks))
				st.slots = append(st.slots, float64(len(out.Slots)))
			}
			serveLayerMetrics(rep, spans, nil, st)
			// The last set-up's warm-up session is part of the average.
			rep.metrics["server.bytes_per_req"] = float64(rig.rx.Load()+rig.tx.Load()) / float64(rig.httpReq.Load())
		},
	}
}()
