package vclock

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrderingString(t *testing.T) {
	tests := []struct {
		o    Ordering
		want string
	}{
		{Equal, "equal"},
		{Before, "before"},
		{After, "after"},
		{Concurrent, "concurrent"},
		{Ordering(0), "Ordering(0)"},
		{Ordering(99), "Ordering(99)"},
	}
	for _, tt := range tests {
		if got := tt.o.String(); got != tt.want {
			t.Errorf("Ordering(%d).String() = %q, want %q", int(tt.o), got, tt.want)
		}
	}
}

func TestCompare(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want Ordering
	}{
		{"both nil", nil, nil, Equal},
		{"nil vs zeros", nil, Vector{0, 0}, Equal},
		{"zeros vs nil", Vector{0, 0, 0}, nil, Equal},
		{"identical", Vector{1, 2, 3}, Vector{1, 2, 3}, Equal},
		{"trailing zeros equal", Vector{2, 1}, Vector{2, 1, 0}, Equal},
		{"before simple", Vector{1, 2}, Vector{1, 3}, Before},
		{"after simple", Vector{4, 2}, Vector{1, 2}, After},
		{"before via growth", Vector{2, 1}, Vector{2, 1, 4}, Before},
		{"after via growth", Vector{2, 1, 4}, Vector{2, 1}, After},
		{"concurrent", Vector{1, 0}, Vector{0, 1}, Concurrent},
		{"concurrent mixed lengths", Vector{1, 0, 5}, Vector{2, 0}, Concurrent},
		{"nil before", nil, Vector{0, 1}, Before},
		{"after nil", Vector{0, 0, 7}, nil, After},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.v.Compare(tt.w); got != tt.want {
				t.Errorf("%v.Compare(%v) = %v, want %v", tt.v, tt.w, got, tt.want)
			}
		})
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	// v.Compare(w) and w.Compare(v) must be consistent mirrors.
	mirror := map[Ordering]Ordering{
		Equal:      Equal,
		Before:     After,
		After:      Before,
		Concurrent: Concurrent,
	}
	f := func(a, b []uint8) bool {
		v := fromBytes(a)
		w := fromBytes(b)
		return w.Compare(v) == mirror[v.Compare(w)]
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestLessConcurrentEqualAgree(t *testing.T) {
	f := func(a, b []uint8) bool {
		v, w := fromBytes(a), fromBytes(b)
		ord := v.Compare(w)
		if v.Less(w) != (ord == Before) {
			return false
		}
		if v.Concurrent(w) != (ord == Concurrent) {
			return false
		}
		return v.Equal(w) == (ord == Equal)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestMergeProperties(t *testing.T) {
	t.Run("commutative", func(t *testing.T) {
		f := func(a, b []uint8) bool {
			v, w := fromBytes(a), fromBytes(b)
			return v.Merge(w).Equal(w.Merge(v))
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Error(err)
		}
	})
	t.Run("associative", func(t *testing.T) {
		f := func(a, b, c []uint8) bool {
			u, v, w := fromBytes(a), fromBytes(b), fromBytes(c)
			return u.Merge(v).Merge(w).Equal(u.Merge(v.Merge(w)))
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Error(err)
		}
	})
	t.Run("idempotent", func(t *testing.T) {
		f := func(a []uint8) bool {
			v := fromBytes(a)
			return v.Merge(v).Equal(v)
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Error(err)
		}
	})
	t.Run("upper bound", func(t *testing.T) {
		f := func(a, b []uint8) bool {
			v, w := fromBytes(a), fromBytes(b)
			m := v.Merge(w)
			cv, cw := v.Compare(m), w.Compare(m)
			return (cv == Before || cv == Equal) && (cw == Before || cw == Equal)
		}
		if err := quick.Check(f, quickCfg()); err != nil {
			t.Error(err)
		}
	})
}

func TestMergeDoesNotAlias(t *testing.T) {
	v := Vector{1, 2}
	w := Vector{3, 0}
	m := v.Merge(w)
	m[0] = 99
	if v[0] != 1 || w[0] != 3 {
		t.Errorf("Merge aliased its inputs: v=%v w=%v", v, w)
	}
}

func TestMergeInPlace(t *testing.T) {
	tests := []struct {
		name string
		v, w Vector
		want Vector
	}{
		{"grow", Vector{1}, Vector{0, 5}, Vector{1, 5}},
		{"no grow", Vector{4, 4}, Vector{2, 9}, Vector{4, 9}},
		{"nil receiver", nil, Vector{3}, Vector{3}},
		{"nil arg", Vector{3}, nil, Vector{3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.v.MergeInPlace(tt.w)
			if !got.Equal(tt.want) {
				t.Errorf("MergeInPlace = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestMergeInPlaceMatchesMerge(t *testing.T) {
	f := func(a, b []uint8) bool {
		v, w := fromBytes(a), fromBytes(b)
		return v.Clone().MergeInPlace(w).Equal(v.Merge(w))
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestTickSetAtGrow(t *testing.T) {
	var v Vector
	v = v.Tick(2)
	if want := (Vector{0, 0, 1}); !v.Equal(want) {
		t.Fatalf("after Tick(2): %v, want %v", v, want)
	}
	v = v.Tick(2)
	if v.At(2) != 2 {
		t.Fatalf("At(2) = %d, want 2", v.At(2))
	}
	v = v.Set(0, 7)
	if v.At(0) != 7 {
		t.Fatalf("At(0) = %d, want 7", v.At(0))
	}
	if v.At(-1) != 0 || v.At(100) != 0 {
		t.Fatal("At out of range should be 0")
	}
	if got := v.Grow(2); len(got) != 3 {
		t.Fatalf("Grow must never shrink: len=%d", len(got))
	}
}

// TestFlatClockOps drives one vector, the flat clock representation,
// through the in-place sequence a thread or object clock sees: ticks that
// grow it, a join, comparisons against the joined peer, and a clone that
// must not alias it.
func TestFlatClockOps(t *testing.T) {
	v := New(2).Tick(0).Tick(3)
	if !v.Equal(Vector{1, 0, 0, 1}) || len(v) != 4 {
		t.Fatalf("after ticks: %v", v)
	}
	g := Vector{0, 5}
	v = v.MergeInPlace(g)
	if !v.Equal(Vector{1, 5, 0, 1}) {
		t.Fatalf("after MergeInPlace: %v", v)
	}
	if v.Compare(g) != After || !g.Less(v) || g.Concurrent(v) {
		t.Fatalf("Compare/Less/Concurrent of %v against %v disagree", v, g)
	}
	c := v.Clone()
	v = v.Tick(0)
	if c.At(0) != 1 || v.At(0) != 2 {
		t.Fatal("Clone shares storage with the original")
	}
}

// TestFlatClockGrowAndBinary checks that a vector grown from nil ticks in
// place and that the zeros Grow adds never reach the encoding.
func TestFlatClockGrowAndBinary(t *testing.T) {
	var v Vector
	v = v.Grow(3)
	if len(v) != 3 {
		t.Fatalf("len after Grow(3) = %d", len(v))
	}
	v = v.Tick(1)
	want := Vector{0, 1, 0}.AppendBinary(nil)
	if got := v.AppendBinary(nil); string(got) != string(want) {
		t.Fatalf("AppendBinary %x, want %x", got, want)
	}
	if got := v.Grow(6).AppendBinary(nil); string(got) != string(want) {
		t.Fatalf("trailing zeros leaked into the encoding: %x, want %x", got, want)
	}
}

func TestGrowPreservesPrefix(t *testing.T) {
	v := Vector{5, 6}
	g := v.Grow(5)
	if len(g) != 5 || g[0] != 5 || g[1] != 6 || g[2] != 0 || g[4] != 0 {
		t.Fatalf("Grow(5) = %v", g)
	}
}

func TestGrowWithinCapacityZeroes(t *testing.T) {
	// A vector shrunk by reslicing may have stale values in capacity; Grow
	// reuses capacity, so the harnesses that rely on Grow must only ever
	// grow. This test documents the contract: growing a freshly allocated
	// vector yields zeros.
	v := make(Vector, 1, 8)
	v[0] = 3
	g := v.Grow(4)
	for i := 1; i < 4; i++ {
		if g[i] != 0 {
			t.Fatalf("component %d = %d, want 0", i, g[i])
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[1] = 99
	if v[1] != 2 {
		t.Errorf("Clone shares storage: v=%v", v)
	}
	if got := Vector(nil).Clone(); got != nil {
		t.Errorf("nil.Clone() = %v, want nil", got)
	}
}

func TestSum(t *testing.T) {
	tests := []struct {
		v    Vector
		want uint64
	}{
		{nil, 0},
		{Vector{0}, 0},
		{Vector{1, 2, 3}, 6},
	}
	for _, tt := range tests {
		if got := tt.v.Sum(); got != tt.want {
			t.Errorf("%v.Sum() = %d, want %d", tt.v, got, tt.want)
		}
	}
}

func TestSumMonotoneUnderTickAndMerge(t *testing.T) {
	f := func(a, b []uint8, idx uint8) bool {
		v, w := fromBytes(a), fromBytes(b)
		m := v.Merge(w).Tick(int(idx % 16))
		return m.Sum() > v.Sum() || m.Sum() > w.Sum() || (v.Sum() == 0 && w.Sum() == 0 && m.Sum() == 1)
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

func TestString(t *testing.T) {
	tests := []struct {
		v    Vector
		want string
	}{
		{nil, "[]"},
		{Vector{7}, "[7]"},
		{Vector{1, 0, 12}, "[1 0 12]"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestNew(t *testing.T) {
	v := New(4)
	if len(v) != 4 {
		t.Fatalf("New(4) has len %d", len(v))
	}
	for i, x := range v {
		if x != 0 {
			t.Fatalf("New(4)[%d] = %d, want 0", i, x)
		}
	}
}

// fromBytes converts a random byte slice into a small vector, keeping
// component values tiny so comparisons exercise all orderings often.
func fromBytes(bs []uint8) Vector {
	if len(bs) > 12 {
		bs = bs[:12]
	}
	v := make(Vector, len(bs))
	for i, b := range bs {
		v[i] = uint64(b % 4)
	}
	return v
}

func quickCfg() *quick.Config {
	return &quick.Config{
		MaxCount: 300,
		Rand:     rand.New(rand.NewSource(42)),
	}
}
