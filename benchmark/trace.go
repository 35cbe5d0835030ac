package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call. Parent is 0 for a root span; Session groups the spans of one
// unit of work (a closed-loop session or one served request).
type span struct {
	ID      int           `json:"id"`
	Parent  int           `json:"parent"`
	Session int           `json:"session"`
	Name    string        `json:"name"`
	Start   time.Duration `json:"start_ns"`
	End     time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// layer is the span name up to its first dot ("core.zeta" → "core").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps every span in memory; write dumps them at the end of a run.
// Span times are offsets from the tracer's origin.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span starting now and returns its id.
func (t *tracer) begin(name string, parent, session int) int {
	return t.beginAt(name, parent, session, time.Now())
}

// beginAt opens a span that started at start (an open-loop request's
// span starts at its due time, before anything ran).
func (t *tracer) beginAt(name string, parent, session int, start time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Session: session, Name: name, Start: start.Sub(t.origin)})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records an already-timed span (start and end as wall-clock times).
func (t *tracer) add(name string, parent, session int, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Session: session, Name: name,
		Start: start.Sub(t.origin), End: end.Sub(t.origin)})
}

// do runs fn inside a span.
func (t *tracer) do(name string, parent, session int, fn func() error) error {
	id := t.begin(name, parent, session)
	err := fn()
	t.end(id)
	return err
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(ivs [][2]time.Duration, lo, hi time.Duration) time.Duration {
	clipped := make([][2]time.Duration, 0, len(ivs))
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]time.Duration{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, iv := range clipped {
		switch {
		case !open:
			curA, curB, open = iv[0], iv[1], true
		case iv[0] <= curB:
			curB = max(curB, iv[1])
		default:
			total += curB - curA
			curA, curB = iv[0], iv[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanTree indexes spans by parent.
type spanTree struct {
	spans    []span
	children map[int][]int // parent id → indices into spans
}

func newSpanTree(spans []span) *spanTree {
	t := &spanTree{spans: spans, children: make(map[int][]int)}
	for i, s := range spans {
		t.children[s.Parent] = append(t.children[s.Parent], i)
	}
	return t
}

func (t *spanTree) childIntervals(id int) [][2]time.Duration {
	var ivs [][2]time.Duration
	for _, ci := range t.children[id] {
		ivs = append(ivs, [2]time.Duration{t.spans[ci].Start, t.spans[ci].End})
	}
	return ivs
}

// self is a span's duration minus the part of it its children cover.
func (t *spanTree) self(s span) time.Duration {
	return s.dur() - covered(t.childIntervals(s.ID), s.Start, s.End)
}

// coverage is the share of a span's interval its children cover.
func (t *spanTree) coverage(s span) float64 {
	if s.dur() <= 0 {
		return 1
	}
	return float64(covered(t.childIntervals(s.ID), s.Start, s.End)) / float64(s.dur())
}

// selfByLayer sums self time per layer over every non-root span; root
// spans (the session or request envelope) are reported as layer "root".
func (t *spanTree) selfByLayer() map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		l := s.layer()
		if s.Parent == 0 {
			l = "root"
		}
		out[l] += t.self(s)
	}
	return out
}

// durations collects the durations of every span with the given name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// roots returns the root spans.
func roots(spans []span) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == 0 {
			out = append(out, s)
		}
	}
	return out
}
