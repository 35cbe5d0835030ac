package main

import (
	"context"
	"time"

	"decaynet"
	"decaynet/internal/scenario"
	"decaynet/internal/server"
	"decaynet/internal/sim"
	"decaynet/internal/sinr"
)

func (r *serveRig) setTracer(tr *tracer) { r.tr.Store(tr) }
func (r *serveRig) tracer() *tracer      { return r.tr.Load() }

// buildTracedSession builds the same Engine the decaynet server builds for the
// benchmark's create requests, inside a decaynet.new_engine span, and
// wraps it in the timing decorator.
func (r *serveRig) buildTracedSession(ctx context.Context, req *server.CreateRequest) (server.Session, error) {
	s := r.slots[r.creating.Load()]
	opts := []decaynet.EngineOption{decaynet.UsingScenario(req.Scenario, req.Config.ScenarioConfig())}
	if req.Tracking {
		opts = append(opts, decaynet.WithMutationTracking())
	}
	ts := &timedSession{rig: r, slot: s}
	var err error
	ts.span("decaynet.new_engine", func() { ts.Engine, err = decaynet.NewEngine(opts...) })
	if err != nil {
		return nil, err
	}
	return ts, nil
}

// timedSession is the server.Session decorator of traced runs: every call
// that does work is a span under the queue's in-flight server.request, so
// a request's server self time is its span minus the session calls.
type timedSession struct {
	*decaynet.Engine
	rig  *serveRig
	slot *slot
}

func (t *timedSession) span(name string, fn func()) {
	tr := t.rig.tracer()
	if tr == nil {
		fn()
		return
	}
	id := tr.begin(name, int(t.slot.cur.Load()), int(t.slot.session.Load()))
	fn()
	tr.end(id)
}

func (t *timedSession) Update(m scenario.Mutation) (err error) {
	t.span("decaynet.update", func() { err = t.Engine.Update(m) })
	return
}

func (t *timedSession) ZetaCtx(ctx context.Context) (z float64, err error) {
	t.span("core.zeta", func() { z, err = t.Engine.ZetaCtx(ctx) })
	return
}

func (t *timedSession) PhiCtx(ctx context.Context) (v float64, err error) {
	t.span("core.phi", func() { v, err = t.Engine.PhiCtx(ctx) })
	return
}

func (t *timedSession) AffectancesCtx(ctx context.Context, p sinr.Power) (a *sinr.Affectances, err error) {
	t.span("sinr.affectance", func() { a, err = t.Engine.AffectancesCtx(ctx, p) })
	return
}

func (t *timedSession) CapacityCtx(ctx context.Context, p sinr.Power, links []int) (set []int, err error) {
	t.span("capacity.algorithm1", func() { set, err = t.Engine.CapacityCtx(ctx, p, links) })
	return
}

func (t *timedSession) ScheduleCtx(ctx context.Context, p sinr.Power, links []int) (slots [][]int, err error) {
	t.span("schedule.by_capacity", func() { slots, err = t.Engine.ScheduleCtx(ctx, p, links) })
	return
}

func (t *timedSession) Simulate(ctx context.Context, cfg sim.Config) (res *sim.Result, err error) {
	t.span("sim.run", func() { res, err = t.Engine.Simulate(ctx, cfg) })
	return
}

// tracedExec wraps exec in a request root span from the arrival's due
// time, with its queue wait as a loadgen.queue child.
func (r *serveRig) tracedExec(start time.Time, st *serveStats) func(a arrival) bool {
	return func(a arrival) bool {
		tr := r.tracer()
		sent := time.Now()
		sid := int(r.requestIDs.Add(1))
		root := tr.beginAt("request", 0, sid, start.Add(a.At))
		tr.add("loadgen.queue", root, sid, start.Add(a.At), sent)
		s := r.slots[a.Queue]
		s.session.Store(int64(sid))
		s.cur.Store(int64(root))
		ok := r.exec(a, st)
		s.cur.Store(0)
		tr.end(root)
		return ok
	}
}

// serveLayerMetrics fills the served workloads' per-layer metrics: the
// decorator's update and simulation spans, the server's self time per
// HTTP request, the load generator's lag and queueing in the traced
// open-loop phase ph (nil for a closed loop), and the capacity and
// schedule shapes st collected.
func serveLayerMetrics(rep *report, spans []span, ph *phase, st *serveStats) {
	ms := func(xs []float64) []float64 {
		for i := range xs {
			xs[i] *= 1e3
		}
		return xs
	}
	if upd := ms(durations(spans, "decaynet.update")); len(upd) > 0 {
		rep.metrics["decaynet.update_p50_ms"] = median(upd)
		rep.metrics["decaynet.update_p99_ms"] = quantile(upd, 0.99)
		rep.metrics["decaynet.updates"] = float64(len(upd))
	}
	if runs := ms(durations(spans, "sim.run")); len(runs) > 0 {
		rep.metrics["sim.run_p50_ms"] = median(runs)
		rep.metrics["sim.runs"] = float64(len(runs))
	}
	tree := newSpanTree(spans)
	var self []float64
	for _, s := range spans {
		if s.Name == "server.request" {
			self = append(self, tree.self(s).Seconds()*1e3)
		}
	}
	if len(self) > 0 {
		rep.metrics["server.self_p50_ms"] = median(self)
		rep.metrics["server.self_p99_ms"] = quantile(self, 0.99)
	}
	var lag, queue []float64
	if ph != nil {
		for _, s := range ph.samples {
			if !s.Dropped {
				lag = append(lag, s.Lag.Seconds()*1e3)
				queue = append(queue, s.Sent.Sub(s.Due).Seconds()*1e3)
			}
		}
	}
	if len(lag) > 0 {
		rep.metrics["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
		rep.metrics["loadgen.queue_p99_ms"] = quantile(queue, 0.99)
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.chosen) > 0 {
		rep.metrics["capacity.chosen_ratio"] = median(st.chosen)
	}
	if len(st.slots) > 0 {
		rep.metrics["schedule.slots"] = median(st.slots)
	}
}
