package metrics

import (
	"sync"
	"testing"
)

// The plain-value copy of the counters is Registry.Counters; the derived
// figures and the one-line rendering read the fields directly.
func TestServeCountersSnapshot(t *testing.T) {
	var c ServeCounters
	if c.GroupCommitDepth() != 0 || c.String() != "" {
		t.Fatalf("zero counters: depth %v, %q", c.GroupCommitDepth(), c.String())
	}
	r := NewRegistry()
	r.RegisterCounters(&c)
	c.Lookups.Add(10)
	c.StalenessSum.Add(5)
	c.CutDrift.Add(1)
	c.GroupCommits.Add(4)
	c.GroupedEntries.Add(10)
	c.CheckpointsPending.Store(1)

	s := r.Counters()
	if s["Lookups"] != 10 || s["StalenessSum"] != 5 || s["CutDrift"] != 1 ||
		s["GroupCommits"] != 4 || s["GroupedEntries"] != 10 || s["CheckpointsPending"] != 1 || s["BatchesApplied"] != 0 {
		t.Fatalf("snapshot lost counts: %v", s)
	}
	if got := c.GroupCommitDepth(); got != 2.5 {
		t.Fatalf("GroupCommitDepth = %v, want 2.5", got)
	}
	if got, want := c.String(), "Lookups=10 StalenessSum=5 CutDrift=1 GroupCommits=4 GroupedEntries=10 CheckpointsPending=1"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// The counters must tolerate concurrent writers and readers (they back the
// serving layer's hot path); run with -race.
func TestServeCountersConcurrent(t *testing.T) {
	var c ServeCounters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Lookups.Add(1)
				c.StalenessSum.Add(2)
				_ = c.String()
			}
		}()
	}
	wg.Wait()
	if got := c.Lookups.Load(); got != 8000 {
		t.Fatalf("Lookups = %d, want 8000", got)
	}
	if got := c.StalenessSum.Load(); got != 16000 {
		t.Fatalf("StalenessSum = %d, want 16000", got)
	}
}
