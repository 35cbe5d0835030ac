package remote

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"decaynet/internal/core"
	"decaynet/internal/shard"
)

// hostileJobs are requests that index outside an n=12 replica or name no
// parameter. Before the worker checked jobs against its replica, the
// first three each panicked and killed the worker process.
var hostileJobs = []struct {
	name, method, job string
}{
	{"scan rows past n", methodMax, `{"param":"zeta","rows":{"lo":0,"hi":40}}`},
	{"affectance sender past n", methodAffRows, affJSON(affJob{
		Links: shard.Range{Lo: 0, Hi: 1}, Factor: Floats{1}, Power: Floats{1}, Recv: []int{0}, Send: []int{99},
	})},
	{"mutate dirty past n", methodMutate, `{"base_version":0,"version":1,"dirty":[99],"rows_only":true}`},
	{"scan negative rows", methodMax, `{"param":"varphi","rows":{"lo":-1,"hi":3}}`},
	{"scan inverted rows", methodMax, `{"param":"zeta","rows":{"lo":5,"hi":3}}`},
	{"scan unknown param", methodMax, `{"param":"phi","rows":{"lo":0,"hi":12}}`},
	{"scan numeric param", methodMax, `{"param":1,"rows":{"lo":0,"hi":12}}`},
	{"band rows past n", methodBand, `{"param":"varphi","rows":{"lo":3,"hi":13},"floor":1}`},
	{"band unknown param", methodBand, `{"param":"eta","rows":{"lo":0,"hi":12},"floor":1}`},
	{"repair dirty past n", methodRepair, `{"param":"zeta","rows":{"lo":0,"hi":12},"dirty":[99],"floor":1}`},
	{"repair negative dirty", methodRepair, `{"param":"varphi","rows":{"lo":0,"hi":12},"dirty":[-1],"floor":1}`},
	{"repair rows past n", methodRepair, `{"param":"zeta","rows":{"lo":0,"hi":99},"dirty":[1],"floor":1}`},
	{"affectance receiver past n", methodAffRows, affJSON(affJob{
		Links: shard.Range{Lo: 0, Hi: 1}, Factor: Floats{1}, Power: Floats{1}, Recv: []int{12}, Send: []int{0},
	})},
	{"affectance unequal vectors", methodAffRows, affJSON(affJob{
		Links: shard.Range{Lo: 0, Hi: 1}, Factor: Floats{1, 1}, Power: Floats{1}, Recv: []int{0, 1}, Send: []int{0, 1},
	})},
	{"affectance links past vectors", methodAffRows, affJSON(affJob{
		Links: shard.Range{Lo: 0, Hi: 3}, Factor: Floats{1}, Power: Floats{1}, Recv: []int{0}, Send: []int{1},
	})},
	{"mutate negative dirty", methodMutate, `{"base_version":0,"version":1,"dirty":[-3],"rows_only":false}`},
}

func affJSON(j affJob) string {
	raw, err := json.Marshal(j)
	if err != nil {
		panic(err)
	}
	return string(raw)
}

// TestWorkerRejectsHostileJobs sends each hostile job over one connection
// to a synced n=12 replica, expects bad_request for every one, and then
// requires the same connection to serve valid scans bit-identical to a
// local worker — the replica neither crashed nor moved.
func TestWorkerRejectsHostileJobs(t *testing.T) {
	addr := startServer(t)
	var ver atomic.Uint64
	c, err := Dial(addr, DialOptions{Version: ver.Load})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	m := testSpace(t, 12)
	if err := c.Sync(ctx, SyncJob{N: 12, Tol: 1e-12, Flat: flatten(m)}); err != nil {
		t.Fatal(err)
	}
	// Build both scan states, so a mutation would patch them.
	all := shard.Range{Lo: 0, Hi: 12}
	for _, p := range []core.Param{core.ParamZeta, core.ParamVarphi} {
		if _, err := c.Max(ctx, shard.ScanJob{Param: p, Rows: all}); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range hostileJobs {
		err := c.call(ctx, tc.method, ver.Load(), json.RawMessage(tc.job), nil)
		var re *Error
		if !errors.As(err, &re) || re.Kind != KindBadRequest {
			t.Errorf("%s: err = %v, want %s", tc.name, err, KindBadRequest)
		}
	}
	if pr, err := c.Ping(ctx); err != nil || pr.Version != 0 {
		t.Fatalf("ping after hostile jobs = %+v, %v; want version 0", pr, err)
	}
	local := shard.NewLocalWorker(shard.NewReplica(m.Clone(), 1e-12))
	for _, p := range []core.Param{core.ParamZeta, core.ParamVarphi} {
		job := shard.ScanJob{Param: p, Rows: all}
		got, err := c.Max(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		want, err := local.Max(ctx, job)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got.Max) != math.Float64bits(want.Max) {
			t.Fatalf("%v: remote Max %v after hostile jobs, local %v", p, got.Max, want.Max)
		}
	}
}

// syncedConn returns a worker session holding a synced n=12 replica whose
// ζ and ϕ scan states are built.
func syncedConn(tb testing.TB, m *core.Matrix) *serverConn {
	sc := &serverConn{opts: &ServerOptions{}, inflight: make(map[uint64]context.CancelFunc)}
	if _, err := sc.handleSync(&SyncJob{N: m.N(), Tol: 1e-12, Flat: flatten(m)}); err != nil {
		tb.Fatal(err)
	}
	for _, p := range []core.Param{core.ParamZeta, core.ParamVarphi} {
		if _, err := sc.work.Max(context.Background(), shard.ScanJob{Param: p, Rows: shard.Range{Lo: 0, Hi: m.N()}}); err != nil {
			tb.Fatal(err)
		}
	}
	return sc
}

// FuzzWorkerDispatch feeds arbitrary (method, job) pairs to the worker's
// dispatch over a synced n=12 replica: any answer is fine, a panic is not.
func FuzzWorkerDispatch(f *testing.F) {
	m := testSpace(f, 12)
	valid := []struct{ method, job string }{
		{methodSync, string(mustJSON(f, SyncJob{N: 12, Tol: 1e-12, Flat: flatten(m)}))},
		{methodMutate, string(mustJSON(f, MutateJob{BaseVersion: 0, Version: 1, Rows: []RowEdit{{Index: 2, Vals: flatten(m)[24:36]}}, Dirty: []int{2}, RowsOnly: true}))},
		{methodPing, `{}`},
		{methodMax, `{"param":"zeta","rows":{"lo":0,"hi":12},"sym":false}`},
		{methodBand, `{"param":"varphi","rows":{"lo":2,"hi":9},"floor":0.6}`},
		{methodRepair, `{"param":"zeta","rows":{"lo":0,"hi":12},"dirty":[3,7],"rows_only":true,"floor":1.2}`},
		{methodAffRows, affJSON(affJob{
			Links: shard.Range{Lo: 0, Hi: 2}, Factor: Floats{1, 2}, Power: Floats{1, 1}, Recv: []int{1, 3}, Send: []int{0, 2},
		})},
	}
	for _, s := range valid {
		f.Add(s.method, []byte(s.job))
	}
	for _, h := range hostileJobs[:3] {
		f.Add(h.method, []byte(h.job))
	}
	f.Fuzz(func(t *testing.T, method string, job []byte) {
		sc := syncedConn(t, m)
		sc.dispatch(context.Background(), &request{Method: method, Version: sc.version, Job: job})
	})
}

func mustJSON(tb testing.TB, v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}
