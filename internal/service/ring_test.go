package service_test

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/service"
)

func TestRingSequenceAndEviction(t *testing.T) {
	r := service.NewRing(4)
	for i := 0; i < 6; i++ {
		e := r.Append(service.Event{Type: "gen"})
		if e.Seq != uint64(i+1) {
			t.Fatalf("append %d got seq %d", i, e.Seq)
		}
	}
	evs := r.Since(0)
	if len(evs) != 4 {
		t.Fatalf("ring of 4 holds %d events", len(evs))
	}
	for i, e := range evs {
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d: seq %d, want %d (oldest two evicted)", i, e.Seq, i+3)
		}
	}
	if got := r.Since(5); len(got) != 1 || got[0].Seq != 6 {
		t.Fatalf("Since(5) = %+v, want single seq-6 event", got)
	}
	if got := r.Since(6); len(got) != 0 {
		t.Fatalf("Since(6) = %+v, want empty", got)
	}
}

func TestRingNextWakesOnAppend(t *testing.T) {
	r := service.NewRing(8)
	done := make(chan []service.Event, 1)
	go func() {
		evs, err := r.Next(context.Background(), 0)
		if err != nil {
			t.Errorf("Next: %v", err)
		}
		done <- evs
	}()
	// Next may or may not be blocked yet; Append's close-and-replace wake
	// guarantees no lost wakeup either way.
	r.Append(service.Event{Type: "created"})
	select {
	case evs := <-done:
		if len(evs) != 1 || evs[0].Type != "created" {
			t.Fatalf("woke with %+v", evs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next never woke after Append")
	}
}

func TestRingNextHonorsContext(t *testing.T) {
	r := service.NewRing(8)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := r.Next(ctx, 0); err == nil {
		t.Fatal("Next on an empty ring must fail when ctx expires")
	}
}

// TestRingNextLosesNoWakeup races Appends against a Next waiting for
// them while another reader keeps the ring's lock busy, so Next often
// waits for the lock between reading the buffer and taking the wake
// channel, and an Append gets in there.  Next takes the channel BEFORE it
// reads the buffer, so that Append still wakes it; a Next that took the
// channel after would sleep through the event to its deadline (about 2 %
// of these rounds on two cores).
func TestRingNextLosesNoWakeup(t *testing.T) {
	const size = 1 << 12
	r := service.NewRing(size)
	for i := 0; i < size; i++ {
		r.Append(service.Event{Type: "fill"})
	}
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() { close(stop); <-stopped }()
	go func() {
		defer close(stopped)
		for {
			select {
			case <-stop:
				return
			default:
				r.Since(math.MaxUint64) // holds the lock for a scan of the full ring
			}
		}
	}()
	for round := 0; round < 300; round++ {
		after := r.Append(service.Event{Type: "x"}).Seq
		got := make(chan error, 1)
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_, err := r.Next(ctx, after)
			got <- err
		}()
		r.Append(service.Event{Type: "x"})
		if err := <-got; err != nil {
			t.Fatalf("round %d: Next(after=%d) slept through the append of seq %d: %v", round, after, after+1, err)
		}
	}
}
