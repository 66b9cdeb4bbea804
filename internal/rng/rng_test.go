package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("step %d: streams diverged: %d != %d", i, av, bv)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs out of 100", same)
	}
}

func TestNewStreamIndependence(t *testing.T) {
	// Streams for consecutive ids must differ from each other and from the
	// base stream.
	base := New(7)
	s0 := NewStream(7, 0)
	s1 := NewStream(7, 1)
	eq01, eqB0 := 0, 0
	for i := 0; i < 200; i++ {
		v0, v1, vb := s0.Uint64(), s1.Uint64(), base.Uint64()
		if v0 == v1 {
			eq01++
		}
		if v0 == vb {
			eqB0++
		}
	}
	if eq01 > 0 || eqB0 > 0 {
		t.Fatalf("correlated streams: eq01=%d eqB0=%d", eq01, eqB0)
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared-ish sanity check over 8 buckets.
	s := New(99)
	const buckets = 8
	const samples = 80000
	var counts [buckets]int
	for i := 0; i < samples; i++ {
		counts[s.Uint64n(buckets)]++
	}
	expect := float64(samples) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-expect) > 5*math.Sqrt(expect) {
			t.Fatalf("bucket %d count %d too far from %f", b, c, expect)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestBernoulliExtremes(t *testing.T) {
	s := New(11)
	for i := 0; i < 100; i++ {
		if s.Bernoulli(0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !s.Bernoulli(1) {
			t.Fatal("Bernoulli(1) did not fire")
		}
		if s.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(-0.5) fired")
		}
		if !s.Bernoulli(1.5) {
			t.Fatal("Bernoulli(1.5) did not fire")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	s := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.25) {
			hits++
		}
	}
	mean := float64(hits) / n
	if math.Abs(mean-0.25) > 0.01 {
		t.Fatalf("Bernoulli(0.25) empirical mean %f", mean)
	}
}

func TestCoinPow2(t *testing.T) {
	s := New(17)
	// k=0 always fires.
	for i := 0; i < 50; i++ {
		if !s.CoinPow2(0) {
			t.Fatal("CoinPow2(0) did not fire")
		}
		if !s.CoinPow2(-3) {
			t.Fatal("CoinPow2(-3) did not fire")
		}
	}
	// Empirical rate for k=3 should be near 1/8.
	const n = 80000
	hits := 0
	for i := 0; i < n; i++ {
		if s.CoinPow2(3) {
			hits++
		}
	}
	mean := float64(hits) / n
	if math.Abs(mean-0.125) > 0.01 {
		t.Fatalf("CoinPow2(3) empirical mean %f, want ~0.125", mean)
	}
}

func TestCoinPow2LargeK(t *testing.T) {
	// With k=128 the probability is 2^-128: it must never fire in a short
	// test, and must not loop forever or panic.
	s := New(19)
	for i := 0; i < 1000; i++ {
		if s.CoinPow2(128) {
			t.Fatal("CoinPow2(128) fired (astronomically unlikely); implementation bug")
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(23)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) len %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid element %d", n, v)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	s := New(29)
	xs := []int{5, 5, 1, 2, 3, 9, 9, 9}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	s.Shuffle(xs)
	sum2 := 0
	for _, v := range xs {
		sum2 += v
	}
	if sum != sum2 || len(xs) != 8 {
		t.Fatalf("Shuffle changed contents: %v", xs)
	}
}

func TestSampleProperties(t *testing.T) {
	s := New(31)
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%50) + 1
		k := int(kRaw) % (n + 1)
		out := s.Sample(n, k)
		if len(out) != k {
			return false
		}
		seen := make(map[int]bool, k)
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSamplePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(3,4) did not panic")
		}
	}()
	New(1).Sample(3, 4)
}

func TestGeometricMean(t *testing.T) {
	s := New(37)
	const n = 50000
	total := 0
	for i := 0; i < n; i++ {
		total += s.Geometric(0.5)
	}
	mean := float64(total) / n
	// Mean of geometric(number of failures) with p=.5 is (1-p)/p = 1.
	if math.Abs(mean-1.0) > 0.05 {
		t.Fatalf("Geometric(0.5) empirical mean %f, want ~1", mean)
	}
	if s.Geometric(1.0) != 0 {
		t.Fatal("Geometric(1) != 0")
	}
}

func TestStateRoundTrip(t *testing.T) {
	a := New(101)
	for i := 0; i < 10; i++ {
		a.Uint64()
	}
	st := a.State()
	b := NewFromState(st)
	for i := 0; i < 100; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("restored stream diverged at %d", i)
		}
	}
}

func TestNewFromZeroState(t *testing.T) {
	s := NewFromState([4]uint64{})
	// Must not emit all zeros forever.
	var acc uint64
	for i := 0; i < 16; i++ {
		acc |= s.Uint64()
	}
	if acc == 0 {
		t.Fatal("zero-state source stuck at zero")
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkCoinPow2(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.CoinPow2(10)
	}
}

// TestStreamMatchesNewStream pins that the by-value Stream and NewStream
// are the same substream.
func TestStreamMatchesNewStream(t *testing.T) {
	for _, c := range []struct{ seed, id uint64 }{{0, 0}, {7, 1}, {1 << 63, 12345}} {
		byVal, byPtr := Stream(c.seed, c.id), NewStream(c.seed, c.id)
		for i := 0; i < 8; i++ {
			if a, b := byVal.Uint64(), byPtr.Uint64(); a != b {
				t.Fatalf("seed %d id %d draw %d: Stream %x, NewStream %x", c.seed, c.id, i, a, b)
			}
		}
	}
}
