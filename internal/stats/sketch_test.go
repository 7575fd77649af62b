package stats

import (
	"errors"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

func TestSpaceSavingValidation(t *testing.T) {
	if _, err := NewSpaceSaving(0); !errors.Is(err, ErrBadSketch) {
		t.Fatalf("err = %v", err)
	}
}

func TestSpaceSavingExactWhenUnderCapacity(t *testing.T) {
	s, err := NewSpaceSaving(10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.Observe("t" + strconv.Itoa(i))
		}
	}
	top := s.Top(0)
	if len(top) != 5 {
		t.Fatalf("entries = %d", len(top))
	}
	if top[0].Term != "t4" || top[0].Count != 5 || top[0].Error != 0 {
		t.Fatalf("top = %+v", top[0])
	}
	if s.Total() != 1+2+3+4+5 {
		t.Fatalf("Total = %d", s.Total())
	}
}

func TestSpaceSavingFindsHeavyHittersUnderPressure(t *testing.T) {
	s, err := NewSpaceSaving(50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	// Two genuinely hot terms amid a sea of distinct noise.
	for i := 0; i < 20_000; i++ {
		switch {
		case i%5 == 0:
			s.Observe("hot-a")
		case i%7 == 0:
			s.Observe("hot-b")
		default:
			s.Observe("noise-" + strconv.Itoa(rng.Intn(100_000)))
		}
	}
	top := s.Top(2)
	found := map[string]bool{}
	for _, h := range top {
		found[h.Term] = true
	}
	if !found["hot-a"] || !found["hot-b"] {
		t.Fatalf("top-2 = %+v, want hot-a and hot-b", top)
	}
	// The guaranteed error bound holds.
	if s.ErrorBound() != s.Total()/50 {
		t.Fatalf("ErrorBound = %d", s.ErrorBound())
	}
	for _, h := range top {
		if h.Error > s.ErrorBound() {
			t.Fatalf("entry error %d exceeds bound %d", h.Error, s.ErrorBound())
		}
	}
}

func TestSpaceSavingObserveSetAndReset(t *testing.T) {
	s, err := NewSpaceSaving(8)
	if err != nil {
		t.Fatal(err)
	}
	s.ObserveSet([]string{"a", "b", "a"})
	if s.Total() != 3 {
		t.Fatalf("Total = %d", s.Total())
	}
	s.Reset()
	if s.Total() != 0 || len(s.Top(0)) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestSpaceSavingConcurrent(t *testing.T) {
	s, err := NewSpaceSaving(32)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Observe("shared")
				s.Observe("w" + strconv.Itoa(w))
			}
		}(w)
	}
	wg.Wait()
	if s.Total() != 4000 {
		t.Fatalf("Total = %d", s.Total())
	}
	if top := s.Top(1); top[0].Term != "shared" {
		t.Fatalf("top = %+v", top)
	}
}
