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
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical outputs", same)
	}
}

func TestAtSitesDiffer(t *testing.T) {
	seen := make(map[uint64][2]uint64)
	for a := uint64(0); a < 64; a++ {
		for b := uint64(0); b < 64; b++ {
			s := At(7, a, b)
			x := s.Uint64()
			if prev, ok := seen[x]; ok {
				t.Fatalf("sites %v and (%d, %d) drew the same first output", prev, a, b)
			}
			seen[x] = [2]uint64{a, b}
		}
	}
	s1, s2 := At(7, 1, 2), At(8, 1, 2)
	if s1.Uint64() == s2.Uint64() {
		t.Fatal("seeds 7 and 8 drew the same first output at one site")
	}
}

func TestAtDeterministic(t *testing.T) {
	s1, s2 := At(7, 3, 5), At(7, 3, 5)
	for i := 0; i < 100; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatalf("At not deterministic at step %d", i)
		}
	}
}

// TestAtUniform checks that the first draw of consecutive sites, the way
// a run keys its vertices, is uniform.
func TestAtUniform(t *testing.T) {
	const buckets, n = 16, 160000
	var counts [buckets]int
	for v := uint64(0); v < n; v++ {
		s := At(1, 4, v)
		counts[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d holds %d, want about %.0f", i, c, want)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
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

func TestFloat64Range(t *testing.T) {
	s := New(5)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(9)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolEdgeCases(t *testing.T) {
	s := New(11)
	for i := 0; i < 100; i++ {
		if s.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !s.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
		if s.Bool(-0.5) {
			t.Fatal("Bool(-0.5) returned true")
		}
		if !s.Bool(1.5) {
			t.Fatal("Bool(1.5) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate = %v, want ~0.3", frac)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	f := func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnUniformity(t *testing.T) {
	s := New(19)
	const buckets = 10
	const n = 100000
	counts := make([]int, buckets)
	for i := 0; i < n; i++ {
		counts[s.Intn(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want)/want > 0.05 {
			t.Fatalf("bucket %d count %d deviates >5%% from %v", b, c, want)
		}
	}
}

func TestZipfRangeAndSkew(t *testing.T) {
	s := New(23)
	z := NewZipf(s, 1000, 1.2)
	const n = 50000
	counts := make([]int, 1000)
	for i := 0; i < n; i++ {
		v := z.Next()
		if v < 0 || v >= 1000 {
			t.Fatalf("Zipf sample %d out of range", v)
		}
		counts[v]++
	}
	// Rank 0 must dominate rank 100 heavily for alpha=1.2.
	if counts[0] < 5*counts[100] {
		t.Fatalf("Zipf not skewed: counts[0]=%d counts[100]=%d", counts[0], counts[100])
	}
}

func TestZipfPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(_, 0, _) did not panic")
		}
	}()
	NewZipf(New(1), 0, 1.0)
}

func TestShuffleSwapCount(t *testing.T) {
	s := New(31)
	arr := []string{"a", "b", "c", "d", "e"}
	orig := append([]string(nil), arr...)
	s.Shuffle(len(arr), func(i, j int) { arr[i], arr[j] = arr[j], arr[i] })
	// Must still be a permutation of the original.
	seen := map[string]int{}
	for _, v := range arr {
		seen[v]++
	}
	for _, v := range orig {
		if seen[v] != 1 {
			t.Fatalf("shuffle lost element %q", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Float64()
	}
}
