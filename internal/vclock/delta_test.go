package vclock_test

import (
	"math/rand"
	"testing"

	"mixedclock/internal/vclock"
)

func TestVectorApply(t *testing.T) {
	v := vclock.Vector{1, 2}
	v = v.Apply([]vclock.Delta{{Index: 0, Value: 3}, {Index: 4, Value: 1}})
	if !v.Equal(vclock.Vector{3, 2, 0, 0, 1}) {
		t.Fatalf("Apply = %v", v)
	}
	// Later entries override earlier ones (join raise then tick).
	v = vclock.Vector(nil).Apply([]vclock.Delta{{Index: 1, Value: 5}, {Index: 1, Value: 6}})
	if !v.Equal(vclock.Vector{0, 6}) {
		t.Fatalf("last-wins Apply = %v", v)
	}
	if got := (vclock.Vector{7}).Apply(nil); !got.Equal(vclock.Vector{7}) {
		t.Fatalf("empty Apply = %v", got)
	}
}

func TestVectorTickDelta(t *testing.T) {
	var v vclock.Vector
	var ds []vclock.Delta
	v, ds = v.TickDelta(2, ds)
	v, ds = v.TickDelta(2, ds)
	v, ds = v.TickDelta(0, ds)
	want := []vclock.Delta{{Index: 2, Value: 1}, {Index: 2, Value: 2}, {Index: 0, Value: 1}}
	if len(ds) != len(want) {
		t.Fatalf("deltas = %v", ds)
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("delta %d = %v, want %v", i, ds[i], want[i])
		}
	}
	if !v.Equal(vclock.Vector{1, 0, 2}) {
		t.Fatalf("vector after ticks = %v", v)
	}
}

func TestVectorJoinDeltaReportsOnlyRaises(t *testing.T) {
	a := vclock.Vector{3, 0, 1}
	b := vclock.Vector{1, 2, 1, 4}
	a, ds := a.JoinDelta(b, nil)
	if !a.Equal(vclock.Vector{3, 2, 1, 4}) {
		t.Fatalf("join result = %v", a)
	}
	want := []vclock.Delta{{Index: 1, Value: 2}, {Index: 3, Value: 4}}
	if len(ds) != len(want) {
		t.Fatalf("deltas = %v, want %v", ds, want)
	}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("delta %d = %v, want %v", i, ds[i], want[i])
		}
	}
	// A dominated join changes nothing and reports nothing.
	if _, ds := a.JoinDelta(b, ds[:0]); len(ds) != 0 {
		t.Fatalf("dominated join reported %v", ds)
	}
	if !b.Equal(vclock.Vector{1, 2, 1, 4}) {
		t.Fatalf("JoinDelta modified its argument: %v", b)
	}
}

func TestVectorApplyMatchesCapture(t *testing.T) {
	a := vclock.Vector{2, 0, 5}
	b := vclock.Vector{1, 7, 5, 1}
	pre := a.Clone()
	var ds []vclock.Delta
	a, ds = a.JoinDelta(b, ds)
	a, ds = a.TickDelta(0, ds)
	if got := pre.Apply(ds); !got.Equal(a) {
		t.Fatalf("Apply %v != live %v", got, a)
	}
}

// TestDeltaCaptureRandomized drives random join/tick sequences through a
// capturing vector and a shadow that only sees the captured deltas; the two
// must stay identical. This is the contract the track record buffers and the
// delta-encoded trace log both rest on: predecessor.Apply(deltas) is the
// successor, exactly.
func TestDeltaCaptureRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const width, peers, steps = 12, 4, 200
		var live, shadow vclock.Vector
		peerClocks := make([]vclock.Vector, peers)
		for i := range peerClocks {
			v := make(vclock.Vector, width)
			for j := range v {
				v[j] = uint64(rng.Intn(6))
			}
			peerClocks[i] = v
		}
		var ds []vclock.Delta
		for s := 0; s < steps; s++ {
			ds = ds[:0]
			if rng.Intn(2) == 0 {
				live, ds = live.JoinDelta(peerClocks[rng.Intn(peers)], ds)
			} else {
				live, ds = live.TickDelta(rng.Intn(width), ds)
			}
			shadow = shadow.Apply(ds)
			if !shadow.Equal(live) {
				t.Fatalf("seed %d step %d: shadow %v, live %v", seed, s, shadow, live)
			}
			// Peers advance too so joins keep finding new values.
			p := rng.Intn(peers)
			peerClocks[p] = peerClocks[p].MergeInPlace(live).Tick(rng.Intn(width))
		}
	}
}
