package cluster

import (
	"context"
	"sync"
	"testing"
)

func TestEventCountersTallyAndOrder(t *testing.T) {
	var ec EventCounters
	if got := ec.Count(EventAssign); got != 0 {
		t.Fatalf("zero-value Count = %d, want 0", got)
	}
	if types, counts := ec.Counts(); len(types) != 0 || len(counts) != 0 {
		t.Fatalf("zero-value Counts = %v %v, want empty", types, counts)
	}

	for i := 0; i < 3; i++ {
		ec.Record(Event{Type: EventAssign})
	}
	ec.Record(Event{Type: EventResult})
	ec.Record(Event{Type: EventWorkerConnect})
	ec.Record(Event{Type: EventResult})

	if got := ec.Count(EventAssign); got != 3 {
		t.Errorf("Count(assign) = %d, want 3", got)
	}
	if got := ec.Count(EventLeaseExpired); got != 0 {
		t.Errorf("Count(lease_expired) = %d, want 0", got)
	}
	types, counts := ec.Counts()
	wantTypes := []EventType{EventAssign, EventResult, EventWorkerConnect}
	wantCounts := []int64{3, 2, 1}
	if len(types) != len(wantTypes) {
		t.Fatalf("Counts returned %d types, want %d", len(types), len(wantTypes))
	}
	for i := range wantTypes {
		if types[i] != wantTypes[i] || counts[i] != wantCounts[i] {
			t.Errorf("Counts[%d] = (%s, %d), want (%s, %d)",
				i, types[i], counts[i], wantTypes[i], wantCounts[i])
		}
	}
}

func TestEventCountersConcurrentRecord(t *testing.T) {
	var ec EventCounters
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ec.Record(Event{Type: EventAssign})
			}
		}()
	}
	wg.Wait()
	if got := ec.Count(EventAssign); got != workers*per {
		t.Fatalf("Count(assign) = %d after concurrent records, want %d", got, workers*per)
	}
}

// TestEventCountersOnScheduler wires Record into a real scheduler's
// OnEvent hook, the way cmd/serve does, and checks the connect/assign/
// result lifecycle of one task is tallied.
func TestEventCountersOnScheduler(t *testing.T) {
	var ec EventCounters
	lc, err := NewLocalCluster(1, echoHandler, 0)
	if err != nil {
		t.Fatal(err)
	}
	lc.Scheduler.OnEvent = ec.Record
	defer func() {
		if err := lc.Close(); err != nil {
			t.Logf("close: %v", err)
		}
	}()
	if _, err := lc.Scheduler.Submit(context.Background(), []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	// Both events fire on scheduler goroutines after the step they
	// describe — the assign after the write to the worker, the result
	// after it is handed to the submitter — so the answer can reach the
	// submitter first.
	waitFor(t, "the assign and result events", func() bool {
		return ec.Count(EventAssign) >= 1 && ec.Count(EventResult) >= 1
	})
	if got := ec.Count(EventAssign); got != 1 {
		t.Errorf("Count(assign) = %d after one task, want 1", got)
	}
	if got := ec.Count(EventResult); got != 1 {
		t.Errorf("Count(result) = %d after one task, want 1", got)
	}
}
