package stats

import (
	"math"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

func TestTermCounterRates(t *testing.T) {
	c := NewTermCounter()
	c.Observe([]string{"a", "b"})
	c.Observe([]string{"a"})
	c.Observe([]string{"c"})
	c.Observe([]string{"a", "c"})

	if got := c.Items(); got != 4 {
		t.Fatalf("Items = %d, want 4", got)
	}
	if got := c.Rate("a"); got != 0.75 {
		t.Fatalf("Rate(a) = %v, want 0.75", got)
	}
	if got := c.Rate("b"); got != 0.25 {
		t.Fatalf("Rate(b) = %v, want 0.25", got)
	}
	if got := c.Rate("missing"); got != 0 {
		t.Fatalf("Rate(missing) = %v, want 0", got)
	}
	if got := c.Distinct(); got != 3 {
		t.Fatalf("Distinct = %d, want 3", got)
	}
}

func TestTermCounterEmptyRate(t *testing.T) {
	c := NewTermCounter()
	if got := c.Rate("x"); got != 0 {
		t.Fatalf("Rate on empty counter = %v, want 0", got)
	}
	if got := c.Entropy(); got != 0 {
		t.Fatalf("Entropy on empty counter = %v, want 0", got)
	}
}

func TestRankedOrderingAndTruncation(t *testing.T) {
	c := NewTermCounter()
	for i := 0; i < 10; i++ {
		c.Observe([]string{"hot"})
	}
	for i := 0; i < 5; i++ {
		c.Observe([]string{"warm"})
	}
	c.Observe([]string{"cold"})

	ranked := c.Ranked(2)
	if len(ranked) != 2 {
		t.Fatalf("Ranked(2) len = %d, want 2", len(ranked))
	}
	if ranked[0].Term != "hot" || ranked[0].Rank != 1 {
		t.Fatalf("top term = %+v, want hot at rank 1", ranked[0])
	}
	if ranked[1].Term != "warm" || ranked[1].Rank != 2 {
		t.Fatalf("second term = %+v, want warm at rank 2", ranked[1])
	}

	all := c.Ranked(0)
	if len(all) != 3 {
		t.Fatalf("Ranked(0) len = %d, want 3", len(all))
	}
}

func TestRankedTieBreakDeterministic(t *testing.T) {
	c := NewTermCounter()
	c.Observe([]string{"b", "a", "c"})
	r1 := c.Ranked(0)
	r2 := c.Ranked(0)
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("Ranked not deterministic under ties")
		}
	}
	if r1[0].Term != "a" {
		t.Fatalf("tie break should be lexicographic, got %q first", r1[0].Term)
	}
}

func TestTopKMass(t *testing.T) {
	c := NewTermCounter()
	c.Observe([]string{"x", "y"})
	c.Observe([]string{"x"})
	got := c.TopKMass(1)
	if got != 1.0 {
		t.Fatalf("TopKMass(1) = %v, want 1.0 (x appears in both items)", got)
	}
	if got := c.TopKMass(10); math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("TopKMass(10) = %v, want 1.5", got)
	}
}

func TestEntropyUniform(t *testing.T) {
	c := NewTermCounter()
	for i := 0; i < 8; i++ {
		c.Observe([]string{"t" + strconv.Itoa(i)})
	}
	if got := c.Entropy(); math.Abs(got-3.0) > 1e-9 {
		t.Fatalf("Entropy of 8 uniform terms = %v, want 3.0", got)
	}
}

func TestEntropySkewedLowerThanUniform(t *testing.T) {
	uniform := NewTermCounter()
	skewed := NewTermCounter()
	for i := 0; i < 100; i++ {
		uniform.Observe([]string{"t" + strconv.Itoa(i)})
		skewed.Observe([]string{"t0"})
	}
	for i := 0; i < 100; i++ {
		skewed.Observe([]string{"t" + strconv.Itoa(i%10)})
	}
	if skewed.Entropy() >= uniform.Entropy() {
		t.Fatalf("skewed entropy %v should be below uniform %v", skewed.Entropy(), uniform.Entropy())
	}
}

func TestReset(t *testing.T) {
	c := NewTermCounter()
	c.Observe([]string{"x"})
	c.Reset()
	if c.Items() != 0 || c.Distinct() != 0 {
		t.Fatal("Reset did not clear counter")
	}
}

func TestConcurrentObserve(t *testing.T) {
	c := NewTermCounter()
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 250
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Observe([]string{"shared", "t" + strconv.Itoa(i%17)})
			}
		}()
	}
	wg.Wait()
	if got := c.Items(); got != workers*perWorker {
		t.Fatalf("Items = %d, want %d", got, workers*perWorker)
	}
	if got := c.Count("shared"); got != workers*perWorker {
		t.Fatalf("Count(shared) = %d, want %d", got, workers*perWorker)
	}
}

func TestOverlap(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"c", "d", "e"}
	if got := Overlap(a, b); got != 0.5 {
		t.Fatalf("Overlap = %v, want 0.5", got)
	}
	if got := Overlap(nil, b); got != 0 {
		t.Fatalf("Overlap(nil, b) = %v, want 0", got)
	}
	if got := Overlap(a, nil); got != 0 {
		t.Fatalf("Overlap(a, nil) = %v, want 0", got)
	}
}

// TestRatesSumProperty: the sum of all term rates equals the mean term-set
// size, for arbitrary streams.
func TestRatesSumProperty(t *testing.T) {
	prop := func(sets [][]byte) bool {
		c := NewTermCounter()
		totalTerms := 0
		for _, raw := range sets {
			seen := make(map[string]struct{})
			var terms []string
			for _, x := range raw {
				term := "t" + strconv.Itoa(int(x%32))
				if _, dup := seen[term]; dup {
					continue
				}
				seen[term] = struct{}{}
				terms = append(terms, term)
			}
			totalTerms += len(terms)
			c.Observe(terms)
		}
		if c.Items() == 0 {
			return true
		}
		var sum float64
		for _, r := range c.Ranked(0) {
			sum += r.Rate
		}
		want := float64(totalTerms) / float64(c.Items())
		return math.Abs(sum-want) < 1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfPMFSumsToOne(t *testing.T) {
	z, err := NewZipf(1000, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for r := 1; r <= z.N(); r++ {
		sum += z.PMF(r)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("PMF sum = %v, want 1", sum)
	}
	if z.CDF(z.N()) != 1 {
		t.Fatalf("CDF(N) = %v, want 1", z.CDF(z.N()))
	}
}

func TestZipfMonotoneDecreasing(t *testing.T) {
	z, err := NewZipf(100, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	for r := 2; r <= 100; r++ {
		if z.PMF(r) > z.PMF(r-1)+1e-15 {
			t.Fatalf("PMF not decreasing at rank %d", r)
		}
	}
}

func TestZipfRejectsBadParams(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Fatal("expected error for n=0")
	}
	if _, err := NewZipf(10, -1); err == nil {
		t.Fatal("expected error for negative s")
	}
	if _, err := NewZipf(10, math.NaN()); err == nil {
		t.Fatal("expected error for NaN s")
	}
}

func TestZipfSampleMatchesPMF(t *testing.T) {
	z, err := NewZipf(50, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	const draws = 200000
	counts := make([]int, z.N()+1)
	for i := 0; i < draws; i++ {
		counts[z.Sample(rng)]++
	}
	for _, rank := range []int{1, 2, 5, 10} {
		got := float64(counts[rank]) / draws
		want := z.PMF(rank)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("rank %d: empirical %v vs pmf %v", rank, got, want)
		}
	}
}

func TestZipfSampleInRangeProperty(t *testing.T) {
	z, err := NewZipf(37, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 100; i++ {
			r := z.Sample(rng)
			if r < 1 || r > 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFitExponentRecoversSlope(t *testing.T) {
	for _, s := range []float64{0.7, 1.0, 1.3} {
		z, err := NewZipf(2000, s)
		if err != nil {
			t.Fatal(err)
		}
		ranked := make([]RankedRate, z.N())
		for r := 1; r <= z.N(); r++ {
			ranked[r-1] = RankedRate{Rank: r, Rate: z.PMF(r)}
		}
		got := FitExponent(ranked)
		if math.Abs(got-s) > 0.05 {
			t.Errorf("FitExponent for s=%v returned %v", s, got)
		}
	}
}

func TestFitExponentDegenerate(t *testing.T) {
	if got := FitExponent(nil); got != 0 {
		t.Fatalf("FitExponent(nil) = %v, want 0", got)
	}
	one := []RankedRate{{Rank: 1, Rate: 0.5}}
	if got := FitExponent(one); got != 0 {
		t.Fatalf("FitExponent(single) = %v, want 0", got)
	}
}
