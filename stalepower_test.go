package decaynet_test

import (
	"reflect"
	"testing"

	"decaynet"
)

// TestStalePowerAfterAddLinks: a power vector built before an AddLinks
// answers for the links it covers, exactly as a fresh vector restricted
// to those links does; the added links stay silent.
func TestStalePowerAfterAddLinks(t *testing.T) {
	eng, err := decaynet.NewEngine(
		decaynet.UsingScenario("random", decaynet.ScenarioConfig{Nodes: 32, Seed: 5}),
		decaynet.Noise(0.01),
	)
	if err != nil {
		t.Fatal(err)
	}
	stale := eng.UniformPower(1)
	covered := eng.AllLinks()
	if err := eng.AddLinks(decaynet.Link{Sender: 0, Receiver: 1}, decaynet.Link{Sender: 2, Receiver: 3}); err != nil {
		t.Fatal(err)
	}
	fresh := eng.UniformPower(1)
	if len(fresh) != len(stale)+2 {
		t.Fatalf("fresh vector has %d entries, stale %d", len(fresh), len(stale))
	}

	want, err := eng.Schedule(fresh, covered)
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Schedule(stale, nil)
	if err != nil {
		t.Fatalf("stale schedule: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stale schedule %v, fresh over covered links %v", got, want)
	}
	if err := eng.ValidateSchedule(stale, nil, got); err != nil {
		t.Fatalf("stale schedule does not validate: %v", err)
	}
	if c, w := eng.Capacity(stale, nil), eng.Capacity(fresh, covered); !reflect.DeepEqual(c, w) {
		t.Fatalf("stale capacity %v, fresh over covered links %v", c, w)
	}
	if f, w := eng.FirstFitCapacity(stale, nil), eng.FirstFitCapacity(fresh, covered); !reflect.DeepEqual(f, w) {
		t.Fatalf("stale first-fit %v, fresh over covered links %v", f, w)
	}

	// A link the stale vector has no entry for cannot be asked about.
	added := len(stale)
	if _, err := eng.Schedule(stale, []int{0, added}); err == nil {
		t.Fatal("schedule of an uncovered link accepted")
	}
	if _, err := eng.CapacityCtx(t.Context(), stale, []int{added}); err == nil {
		t.Fatal("capacity of an uncovered link accepted")
	}
	if eng.Feasible(stale, []int{added}) {
		t.Fatal("uncovered link reported feasible")
	}
	if !eng.Feasible(stale, nil) {
		t.Fatal("the empty set is feasible under any vector")
	}

	// A vector longer than the link set is still rejected.
	if _, err := eng.Schedule(append(fresh, 1), nil); err == nil {
		t.Fatal("over-long power vector accepted")
	}
}
