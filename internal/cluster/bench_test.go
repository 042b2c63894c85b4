package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/wire"
)

// BenchmarkTaskRoundTrip measures one submit→assign→result cycle: an
// in-process submit, and the assign and result frames over loopback TCP.
func BenchmarkTaskRoundTrip(b *testing.B) {
	lc, err := NewLocalCluster(1, echoHandler, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer lc.Close()
	payload := json.RawMessage(`{"genome":[1,2,3,4,5,6,7]}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lc.Scheduler.Submit(context.Background(), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThroughputByWorkers measures the sustained task rate as the
// worker pool grows, with concurrent submission.
func BenchmarkThroughputByWorkers(b *testing.B) {
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			lc, err := NewLocalCluster(workers, echoHandler, 0)
			if err != nil {
				b.Fatal(err)
			}
			defer lc.Close()
			payload := json.RawMessage(`{"x":1}`)
			b.ResetTimer()
			var wg sync.WaitGroup
			sem := make(chan struct{}, 2*workers)
			for i := 0; i < b.N; i++ {
				wg.Add(1)
				sem <- struct{}{}
				go func() {
					defer wg.Done()
					defer func() { <-sem }()
					if _, err := lc.Scheduler.Submit(context.Background(), payload); err != nil {
						b.Error(err)
					}
				}()
			}
			wg.Wait()
		})
	}
}

// benchPayload is a campaign-realistic task body: a 512-gene genome,
// the size class a wide hyperparameter search with per-layer knobs and
// an inlined training config ships per evaluation (~6 KiB of JSON).
func benchPayload() json.RawMessage {
	var sb bytes.Buffer
	sb.WriteString(`{"genome":[`)
	for i := 0; i < 512; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%.6f", float64(i)*0.125-4)
	}
	sb.WriteString(`]}`)
	return sb.Bytes()
}

// BenchmarkCodecRoundTrip pins the per-frame cost of the codec in
// isolation: one assign message encoded and decoded through an in-memory
// stream, no scheduler and no sockets.
func BenchmarkCodecRoundTrip(b *testing.B) {
	m := &message{Type: wire.TypeAssign, TaskID: "0123456789abcdef", Payload: benchPayload()}
	var buf bytes.Buffer
	cd := newCodec(&buf, &wireCounters{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := cd.write(m); err != nil {
			b.Fatal(err)
		}
		if _, err := cd.read(); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScheduler measures sustained submit→assign→result throughput with
// a pool of echo workers, over loopback TCP or with the workers behind
// the chaos proxy's extra hop.  ns/op is the wall cost of one task at
// saturation;
// EXPERIMENTS.md ("Connection multiplexing retired") records the figures
// of the last full grid.
func benchScheduler(b *testing.B, workers int, viaProxy bool) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer sched.Close()
	addr := sched.Addr()
	if viaProxy {
		addr = newChaosProxy(b, addr).Addr()
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < workers; i++ {
		w, err := NewWorker(addr, fmt.Sprintf("w%d", i), echoHandler)
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		go func() { _ = w.Run(ctx) }()
	}
	for sched.Stats().Workers < int64(workers) {
		time.Sleep(time.Millisecond)
	}
	payload := benchPayload()
	inflight := 2 * workers
	if inflight > 256 {
		inflight = 256
	}
	sem := make(chan struct{}, inflight)
	var wg sync.WaitGroup
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := sched.Submit(ctx, payload); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
}

// BenchmarkSchedulerThroughput is the headline grid: task throughput by
// worker-pool size over plain loopback.
func BenchmarkSchedulerThroughput(b *testing.B) {
	for _, workers := range []int{1, 10, 100, 500} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchScheduler(b, workers, false)
		})
	}
}

// BenchmarkSchedulerThroughputChaos repeats the mid-size grid points
// with the workers behind the chaos proxy (no faults armed), paying one
// extra TCP hop per direction — closer to a real network path than bare
// loopback.
func BenchmarkSchedulerThroughputChaos(b *testing.B) {
	for _, workers := range []int{10, 100} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchScheduler(b, workers, true)
		})
	}
}
