package vclock

import (
	"math/rand"
	"testing"
)

// compareReference is Compare as first written: one loop over the longer
// length, reading both sides through At. The kernel in Compare must agree
// with it on every input.
func compareReference(v, w Vector) Ordering {
	n := len(v)
	if len(w) > n {
		n = len(w)
	}
	var less, greater bool
	for i := 0; i < n; i++ {
		a, b := v.At(i), w.At(i)
		switch {
		case a < b:
			less = true
		case a > b:
			greater = true
		}
		if less && greater {
			return Concurrent
		}
	}
	switch {
	case less:
		return Before
	case greater:
		return After
	default:
		return Equal
	}
}

// TestCompareMatchesReference checks Compare against the reference on a
// table of mixed-length cases (zero tails, nonzero tails, nil) and on
// random vectors of random, often unequal, lengths.
func TestCompareMatchesReference(t *testing.T) {
	table := []struct{ v, w Vector }{
		{nil, nil},
		{nil, Vector{0, 0}},
		{nil, Vector{0, 1}},
		{Vector{1}, nil},
		{Vector{2, 1}, Vector{2, 1, 0, 0}},
		{Vector{2, 1}, Vector{2, 1, 4}},
		{Vector{2, 1, 4}, Vector{2, 1}},
		{Vector{3, 1}, Vector{2, 1, 4}},
		{Vector{1, 1}, Vector{2, 1, 0, 0, 7}},
		{Vector{1, 2, 0, 0, 0}, Vector{1, 1}},
		{Vector{1, 0, 0, 5}, Vector{2, 0}},
	}
	for _, tt := range table {
		if got, want := tt.v.Compare(tt.w), compareReference(tt.v, tt.w); got != want {
			t.Errorf("%v.Compare(%v) = %v, reference %v", tt.v, tt.w, got, want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	vec := func() Vector {
		v := make(Vector, rng.Intn(8))
		for i := range v {
			v[i] = uint64(rng.Intn(3))
		}
		return v
	}
	for i := 0; i < 20000; i++ {
		v, w := vec(), vec()
		if got, want := v.Compare(w), compareReference(v, w); got != want {
			t.Fatalf("%v.Compare(%v) = %v, reference %v", v, w, got, want)
		}
	}
}

// FuzzVectorCompare checks Compare against the reference on arbitrary
// mixed-length vectors: each input byte is one component, and split cuts
// the bytes into v and w.
func FuzzVectorCompare(f *testing.F) {
	f.Add([]byte{2, 1, 2, 1, 4}, uint8(2))
	f.Add([]byte{1, 0, 0, 5, 2, 0}, uint8(4))
	f.Add([]byte{0, 0, 0}, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, split uint8) {
		k := int(split) % (len(data) + 1)
		v, w := make(Vector, k), make(Vector, len(data)-k)
		for i, b := range data {
			if i < k {
				v[i] = uint64(b % 4)
			} else {
				w[i-k] = uint64(b % 4)
			}
		}
		if got, want := v.Compare(w), compareReference(v, w); got != want {
			t.Fatalf("%v.Compare(%v) = %v, reference %v", v, w, got, want)
		}
	})
}

var benchOrdering Ordering

// BenchmarkCompare times Compare on stamps at width 153, the online
// clock's width on the benchmark's paper graph, against the reference:
// an ordered pair (every component scanned), a concurrent pair (the first
// components disagree), and an ordered pair of unequal lengths.
func BenchmarkCompare(b *testing.B) {
	const width = 153
	rng := rand.New(rand.NewSource(2))
	lo, hi := New(width), New(width)
	for i := range lo {
		lo[i] = uint64(rng.Intn(1000))
		hi[i] = lo[i] + uint64(rng.Intn(2))
	}
	hi[width-1]++
	conc := hi.Clone()
	conc[0] = 0
	lo[0] = 1
	short := lo[:width-10]
	cases := []struct {
		name string
		v, w Vector
	}{
		{"ordered", lo, hi},
		{"concurrent", lo, conc},
		{"ordered-short", short, hi},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchOrdering = c.v.Compare(c.w)
			}
		})
		b.Run(c.name+"/reference", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				benchOrdering = compareReference(c.v, c.w)
			}
		})
	}
}
