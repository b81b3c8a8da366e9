package faultinject

import (
	"sync"
	"testing"
)

func TestDisabledFiresNone(t *testing.T) {
	Reset()
	if Enabled() {
		t.Fatal("registry should start disarmed")
	}
	for i := 0; i < 100; i++ {
		if k := Fire(CheckSolve); k != None {
			t.Fatalf("disarmed Fire = %v, want none", k)
		}
	}
	if Hits(CheckSolve) != 0 {
		t.Fatal("disarmed Fire must not count hits")
	}
}

func TestScheduleAtHitNumbers(t *testing.T) {
	defer Reset()
	Reset()
	Schedule(CheckSolve, Timeout, 2, 4)
	want := []Kind{None, Timeout, None, Timeout, None}
	for i, w := range want {
		if k := Fire(CheckSolve); k != w {
			t.Fatalf("hit %d = %v, want %v", i+1, k, w)
		}
	}
	if Hits(CheckSolve) != 5 {
		t.Fatalf("hits = %d, want 5", Hits(CheckSolve))
	}
	// Other sites are unaffected.
	if k := Fire(GenerateAEC); k != None {
		t.Fatalf("unscheduled site fired %v", k)
	}
}

func TestScheduleEveryHit(t *testing.T) {
	defer Reset()
	Reset()
	cancel := Schedule(ParallelJob, Panic)
	for i := 0; i < 3; i++ {
		if k := Fire(ParallelJob); k != Panic {
			t.Fatalf("hit %d = %v, want panic", i+1, k)
		}
	}
	cancel()
	if k := Fire(ParallelJob); k != None {
		t.Fatalf("cancelled schedule still fired %v", k)
	}
	if Enabled() {
		t.Fatal("last cancel should disarm the fast path")
	}
}

func TestScheduleSeededDeterministic(t *testing.T) {
	defer Reset()
	record := func() []Kind {
		Reset()
		defer Reset()
		ScheduleSeeded(GenerateAEC, Transient, 42, 3, 10)
		out := make([]Kind, 10)
		for i := range out {
			out[i] = Fire(GenerateAEC)
		}
		return out
	}
	a, b := record(), record()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded schedule not deterministic at hit %d: %v vs %v", i+1, a[i], b[i])
		}
		if a[i] == Transient {
			fired++
		}
	}
	if fired != 3 {
		t.Fatalf("seeded schedule fired %d times, want 3", fired)
	}
}

func TestConcurrentFire(t *testing.T) {
	defer Reset()
	Reset()
	Schedule(CheckSolve, Timeout, 50)
	var wg sync.WaitGroup
	var timeouts int64
	var mu2 sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if Fire(CheckSolve) == Timeout {
					mu2.Lock()
					timeouts++
					mu2.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if Hits(CheckSolve) != 200 {
		t.Fatalf("hits = %d, want 200", Hits(CheckSolve))
	}
	if timeouts != 1 {
		t.Fatalf("scheduled hit fired %d times, want exactly once", timeouts)
	}
}
