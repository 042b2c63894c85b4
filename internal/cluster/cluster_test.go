package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/ea"
)

func echoHandler(_ context.Context, payload []byte) ([]byte, error) {
	return payload, nil
}

func TestLocalClusterEcho(t *testing.T) {
	lc, err := NewLocalCluster(3, echoHandler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	for i := 0; i < 10; i++ {
		payload := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
		out, err := lc.Scheduler.Submit(context.Background(), payload)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if string(out) != string(payload) {
			t.Errorf("echo %d = %s, want %s", i, out, payload)
		}
	}
	st := lc.Scheduler.Stats()
	if st.Completed != 10 || st.Submitted != 10 {
		t.Errorf("stats = %+v, want 10 submitted/completed", st)
	}
	// Submits never touch the wire: each task costs one assign out and
	// one result in, on top of each worker's register and its ack.  The
	// assign is counted after its write returns, so the last count can
	// trail the last result.
	waitFor(t, "the last assign to be counted", func() bool { return lc.Scheduler.Wire().FramesOut == 3+10 })
	// Three workers, every link healthy.
	ws := lc.Scheduler.Wire()
	if ws.Conns != 3 || ws.DecodeErrors != 0 || ws.FramesIn != 3+10 {
		t.Errorf("scheduler wire counters = %v, want 3 connections, 13 frames in and no decode errors", ws)
	}
	if ws.BytesIn == 0 || ws.BytesOut == 0 {
		t.Errorf("scheduler wire counters did not move: %v", ws)
	}
}

// TestLocalWorkersSpeakTheWire: in-process workers reach the scheduler
// over an in-memory connection, but the frames on it are the bytes a TCP
// worker exchanges — the same tasks cost the same frames and bytes over
// either connection, counted once the scheduler has closed.
func TestLocalWorkersSpeakTheWire(t *testing.T) {
	const workers, tasks = 3, 10
	submitAll := func(t *testing.T, s *Scheduler) {
		for i := 0; i < tasks; i++ {
			if _, err := s.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))); err != nil {
				t.Fatalf("Submit %d: %v", i, err)
			}
		}
	}

	lc, err := NewLocalCluster(workers, echoHandler, 0)
	if err != nil {
		t.Fatal(err)
	}
	submitAll(t, lc.Scheduler)
	if err := lc.Close(); err != nil {
		t.Fatal(err)
	}
	mem := lc.Scheduler.Wire()

	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	var tcpWorkers []*Worker
	for i := 0; i < workers; i++ {
		w, err := NewWorker(sched.Addr(), fmt.Sprintf("worker-%d", i), echoHandler)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		tcpWorkers = append(tcpWorkers, w)
		go func() { _ = w.Run(context.Background()) }()
	}
	submitAll(t, sched)
	for _, w := range tcpWorkers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sched.Close(); err != nil {
		t.Fatal(err)
	}
	if tcp := sched.Wire(); mem != tcp {
		t.Errorf("in-memory workers' wire = %v\nTCP workers' wire       = %v", mem, tcp)
	}
	if mem.FramesIn != workers+tasks || mem.FramesOut != workers+tasks || mem.Conns != workers {
		t.Errorf("wire = %v, want %d frames each way over %d connections", mem, workers+tasks, workers)
	}
}

func TestConcurrentSubmissions(t *testing.T) {
	lc, err := NewLocalCluster(4, echoHandler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	const n = 50
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
			out, err := lc.Scheduler.Submit(context.Background(), payload)
			if err != nil {
				errs <- err
				return
			}
			if string(out) != string(payload) {
				errs <- fmt.Errorf("mismatch for %d: %s", i, out)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestWorkerErrorPropagates(t *testing.T) {
	handler := func(_ context.Context, _ []byte) ([]byte, error) {
		return nil, errors.New("training crashed: bad hyperparameters")
	}
	lc, err := NewLocalCluster(1, handler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	_, err = lc.Scheduler.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "training crashed") {
		t.Errorf("Submit error = %v, want training crashed", err)
	}
	if st := lc.Scheduler.Stats(); st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
}

func TestWorkerPanicContained(t *testing.T) {
	handler := func(_ context.Context, _ []byte) ([]byte, error) {
		panic("segfault in custom kernel")
	}
	lc, err := NewLocalCluster(1, handler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	_, err = lc.Scheduler.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("Submit error = %v, want panic message", err)
	}
	// The worker must survive to serve another task.
	_, err = lc.Scheduler.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("second Submit error = %v", err)
	}
}

func TestTaskTimeout(t *testing.T) {
	handler := func(ctx context.Context, _ []byte) ([]byte, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return json.RawMessage(`{}`), nil
		}
	}
	lc, err := NewLocalCluster(1, handler, 20*time.Millisecond)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	start := time.Now()
	_, err = lc.Scheduler.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil {
		t.Fatal("timed-out task returned success")
	}
	if time.Since(start) > 2*time.Second {
		t.Error("timeout did not fire promptly")
	}
}

func TestWorkerDeathReassignsTask(t *testing.T) {
	// Worker 0 dies on its first task; worker 1 completes everything.
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	defer sched.Close()

	var killable *Worker
	hit := make(chan struct{})
	killingHandler := func(_ context.Context, payload []byte) ([]byte, error) {
		close(hit)       // a second call would panic: a closed worker is never assigned to
		killable.Close() // simulate node failure mid-task
		time.Sleep(50 * time.Millisecond)
		return payload, nil
	}
	killable, err = NewWorker(sched.Addr(), "doomed", killingHandler)
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	go func() { _ = killable.Run(context.Background()) }()

	// The healthy worker joins only once the doomed one holds task 0, so
	// that task is certain to need a reassignment.  (With both workers up
	// front the healthy one could win all five assignments.)
	submit := func(i int) error {
		payload := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
		out, err := sched.Submit(context.Background(), payload)
		if err == nil && string(out) != string(payload) {
			err = fmt.Errorf("result = %s", out)
		}
		return err
	}
	first := make(chan error, 1)
	go func() { first <- submit(0) }()
	<-hit
	healthy, err := NewWorker(sched.Addr(), "healthy", echoHandler)
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	defer healthy.Close()
	go func() { _ = healthy.Run(context.Background()) }()

	if err := <-first; err != nil {
		t.Fatalf("Submit 0 across worker death: %v", err)
	}
	for i := 1; i < 5; i++ {
		if err := submit(i); err != nil {
			t.Fatalf("Submit %d after worker death: %v", i, err)
		}
	}
	if st := sched.Stats(); st.Reassigned == 0 {
		t.Errorf("no reassignment recorded: %+v", st)
	}
}

func TestAllWorkersDeadAbandonsTask(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	sched.MaxAttempts = 2
	defer sched.Close()

	// A worker that kills itself on every assignment.
	var workers []*Worker
	for i := 0; i < 2; i++ {
		var w *Worker
		w, err = NewWorker(sched.Addr(), fmt.Sprintf("suicidal-%d", i), func(_ context.Context, _ []byte) ([]byte, error) {
			panic("unused")
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		// Close the connection as soon as a task arrives by overriding
		// Run: we just close immediately after registration and a task
		// will be assigned to a dead connection, forcing a requeue.
		workers = append(workers, w)
	}

	// Kill both workers; the scheduler still has their proxies blocked in
	// the pending receive.  Submitting now assigns to a dead conn, which
	// requeues and eventually abandons.
	for _, w := range workers {
		w.Close()
	}
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err = sched.Submit(ctx, json.RawMessage(`{}`))
	if err == nil {
		t.Fatal("Submit succeeded with all workers dead")
	}
}

func TestEvaluatorRoundTrip(t *testing.T) {
	inner := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		return ea.Fitness{g[0] * 2, g[1] + 1}, nil
	})
	lc, err := NewLocalCluster(2, EvalHandler(inner), 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	ev := &Evaluator{Client: lc.Scheduler}
	fit, err := ev.Evaluate(context.Background(), ea.Genome{3, 4})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if fit[0] != 6 || fit[1] != 5 {
		t.Errorf("fitness = %v, want [6 5]", fit)
	}
}

func TestEvaluatorWithEvalPool(t *testing.T) {
	inner := ea.EvaluatorFunc(func(_ context.Context, g ea.Genome) (ea.Fitness, error) {
		if g[0] < 0.1 {
			return nil, errors.New("unstable training")
		}
		return ea.Fitness{g[0], 1 - g[0]}, nil
	})
	lc, err := NewLocalCluster(3, EvalHandler(inner), 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	pop := ea.Population{
		ea.NewIndividual(ea.Genome{0.5}),
		ea.NewIndividual(ea.Genome{0.05}), // will fail
		ea.NewIndividual(ea.Genome{0.9}),
	}
	out := ea.EvalPool(context.Background(), ea.Source(pop), 3,
		&Evaluator{Client: lc.Scheduler}, ea.PoolConfig{Parallelism: 3, Objectives: 2})
	if !out[1].Fitness.IsFailure() {
		t.Errorf("failed task fitness = %v, want MAXINT", out[1].Fitness)
	}
	nine := 0.9
	if out[0].Fitness[0] != 0.5 || out[2].Fitness[1] != 1-nine {
		t.Errorf("fitnesses wrong: %v %v", out[0].Fitness, out[2].Fitness)
	}
}

func TestSchedulerString(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	defer sched.Close()
	if s := sched.String(); !strings.Contains(s, "Scheduler{") || !strings.Contains(s, " pending=0}") {
		t.Errorf("String() = %q", s)
	}
}

func TestSubmitAfterClose(t *testing.T) {
	lc, err := NewLocalCluster(1, echoHandler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	settled := watchBooks(t, lc.Scheduler)
	lc.Close()
	for i := 0; i < 100; i++ {
		if _, err := lc.Scheduler.Submit(context.Background(), json.RawMessage(`{}`)); !errors.Is(err, errClosed) {
			t.Fatalf("Submit %d after Close: %v, want %v", i, err, errClosed)
		}
	}
	settled()
	if st := lc.Scheduler.Stats(); st.Submitted != 0 || st.Pending != 0 {
		t.Errorf("refused submits reached the books or the queue: %+v", st)
	}
}

// TestSubmitCancelledContext: a caller whose context ends stops waiting
// with ctx.Err(), whether its task is already running or still waits for
// a queue slot.  A running task still finishes and is counted exactly
// once; one that never reached the queue is not counted at all.
func TestSubmitCancelledContext(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	gate := make(chan struct{})
	held := func(_ context.Context, payload []byte) ([]byte, error) {
		<-gate
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "held", held)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := sched.Submit(ctx, json.RawMessage(`{"running":true}`))
		done <- err
	}()
	waitFor(t, "the worker to hold the task", func() bool {
		ws := sched.WorkerStats()
		return len(ws) == 1 && ws[0].InFlight == 1
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Submit: %v, want context.Canceled", err)
	}
	close(gate)
	waitFor(t, "the abandoned task to finish", func() bool { return sched.Stats().Completed == 1 })
	settled()
	if st := sched.Stats(); st.Submitted != 1 || st.Failed != 0 {
		t.Errorf("abandoned running task: %+v, want it counted once as Completed", st)
	}

	// Already cancelled: refused before it is queued.
	if _, err := sched.Submit(ctx, json.RawMessage(`{}`)); !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit with a cancelled context: %v, want context.Canceled", err)
	}
	// Cancelled while it waits for a slot in a full queue.  The fillers
	// are raw tasks, not on the books, and the worker stays busy on one.
	w.Close()
	waitFor(t, "the worker to be gone", func() bool { return sched.Stats().Workers == 0 })
	for i := 0; i < queueDepth; i++ {
		sched.pending <- &task{res: make(chan *message, 1)}
	}
	ctx, cancel = context.WithCancel(context.Background())
	go func() {
		_, err := sched.Submit(ctx, json.RawMessage(`{"blocked":true}`))
		done <- err
	}()
	waitFor(t, "the submit to block on the full queue", func() bool { return sched.Stats().QueueWaits == 1 })
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("Submit cancelled on a full queue: %v, want context.Canceled", err)
	}
	if st := sched.Stats(); st.Submitted != 1 || st.Pending != queueDepth {
		t.Errorf("after the cancelled enqueue: %+v, want Submitted 1 and a full queue", st)
	}
}

// TestCloseReleasesWaitingSubmitters: Close while callers wait — one on
// a task a worker holds, the rest on queued tasks — releases every one
// of them with an error, and claims each of their tasks as Failed so the
// books still balance.
func TestCloseReleasesWaitingSubmitters(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	gate := make(chan struct{})
	defer close(gate)
	held := func(_ context.Context, payload []byte) ([]byte, error) {
		<-gate
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "held", held)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	const n = 8
	done := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := sched.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"i":%d}`, i)))
			done <- err
		}()
	}
	waitFor(t, "one task held and the rest queued", func() bool {
		ws := sched.WorkerStats()
		return len(ws) == 1 && ws[0].InFlight == 1 && sched.Stats().Submitted == n
	})
	closed := make(chan struct{})
	go func() { sched.Close(); close(closed) }()
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if !errors.Is(err, errClosed) {
				t.Errorf("waiting Submit released with %v, want %v", err, errClosed)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d waiting submitters still blocked after Close", n-i, n)
		}
	}
	<-closed
	settled()
	if st := sched.Stats(); st.Failed != n {
		t.Errorf("after Close: %+v, want all %d tasks Failed", st, n)
	}
}

func TestSchedulerTaskTimeoutReassignsFromHungWorker(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	sched.TaskTimeout = 50 * time.Millisecond
	defer sched.Close()

	// A hung worker: accepts the assignment but never answers (the
	// connection stays open, unlike a crash).
	hungConn, err := net.Dial("tcp", sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer hungConn.Close()
	cd := newCodec(hungConn, &wireCounters{})
	if err := cd.write(&message{Type: wire.TypeRegister, Name: "hung"}); err != nil {
		t.Fatal(err)
	}
	go func() {
		// Read assignments forever, never reply.
		for {
			if _, err := cd.read(); err != nil {
				return
			}
		}
	}()

	// Give the hung worker time to be the only one and receive the task.

	resCh := make(chan error, 1)
	go func() {
		_, err := sched.Submit(context.Background(), json.RawMessage(`{"x":1}`))
		resCh <- err
	}()

	// After the hung worker takes the task, start a healthy worker to
	// pick up the reassignment.
	time.Sleep(20 * time.Millisecond)
	healthy, err := NewWorker(sched.Addr(), "healthy", echoHandler)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	go func() { _ = healthy.Run(context.Background()) }()

	select {
	case err := <-resCh:
		if err != nil {
			t.Fatalf("task not rescued from hung worker: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("task never completed after worker hang")
	}
	if st := sched.Stats(); st.Reassigned == 0 {
		t.Errorf("no reassignment recorded: %+v", st)
	}
}

// batchResult is one submitBatch outcome.
type batchResult struct {
	Payload json.RawMessage
	Err     error
}

// submitBatch sends all payloads concurrently and waits for every result,
// preserving order — the fan-out an EA generation performs (eval_pool in
// the paper's Listing 1).  Each element carries either a payload or an
// error; a failed submission does not abort the rest.
func submitBatch(ctx context.Context, s *Scheduler, payloads []json.RawMessage) []batchResult {
	out := make([]batchResult, len(payloads))
	var wg sync.WaitGroup
	for i, p := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].Payload, out[i].Err = s.Submit(ctx, p)
		}()
	}
	wg.Wait()
	return out
}

func TestSubmitBatchOrderAndErrors(t *testing.T) {
	handler := func(_ context.Context, payload []byte) ([]byte, error) {
		if strings.Contains(string(payload), "fail") {
			return nil, errors.New("requested failure")
		}
		return payload, nil
	}
	lc, err := NewLocalCluster(3, handler, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()

	payloads := []json.RawMessage{
		json.RawMessage(`{"i":0}`),
		json.RawMessage(`{"fail":true}`),
		json.RawMessage(`{"i":2}`),
		json.RawMessage(`{"i":3}`),
	}
	results := submitBatch(context.Background(), lc.Scheduler, payloads)
	if len(results) != 4 {
		t.Fatalf("got %d results", len(results))
	}
	for i := range payloads {
		if i == 1 {
			if results[i].Err == nil {
				t.Error("failing payload succeeded")
			}
			continue
		}
		if results[i].Err != nil {
			t.Errorf("result %d: %v", i, results[i].Err)
		}
		if string(results[i].Payload) != string(payloads[i]) {
			t.Errorf("result %d out of order: %s", i, results[i].Payload)
		}
	}
}

// TestMultipleClientsShareWorkers: two submitters — two campaigns of
// one service, say — share one fleet, and each caller gets its own
// result back.
func TestMultipleClientsShareWorkers(t *testing.T) {
	lc, err := NewLocalCluster(2, echoHandler, 0)
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, lc.Scheduler)
	defer lc.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 10; i++ {
		for _, who := range []string{"a", "b"} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				payload := fmt.Sprintf(`{"%s":%d}`, who, i)
				if out, err := lc.Scheduler.Submit(context.Background(), json.RawMessage(payload)); err != nil || string(out) != payload {
					errs <- fmt.Errorf("submitter %s task %d: %s, %v", who, i, out, err)
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	settled()
	if st := lc.Scheduler.Stats(); st.Completed != 20 {
		t.Errorf("completed %d, want 20", st.Completed)
	}
}

// TestPendingQueueBackpressureFIFO pins the pending queue's two
// promises.  With no worker connected, in-process callers submit one
// task more than the queue holds, each after the one before is queued:
// the last submission blocks and is counted once in QueueWaits (and is
// on the books while it waits).  A worker that joins then runs every
// task in submission order.
func TestPendingQueueBackpressureFIFO(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	const n = queueDepth + 1
	payloads := make([]string, n)
	errs := make(chan error, n)
	for i := range payloads {
		payloads[i] = fmt.Sprintf(`{"i":%d}`, i)
		go func() {
			out, err := sched.Submit(context.Background(), json.RawMessage(payloads[i]))
			if err == nil && string(out) != payloads[i] {
				err = fmt.Errorf("task %d came back as %s", i, out)
			}
			errs <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); i < queueDepth && sched.Stats().Pending <= int64(i); runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("task %d never reached the queue", i)
			}
		}
	}
	waitFor(t, "the queue to fill and the last submission to block", func() bool {
		st := sched.Stats()
		return st.Submitted == n && st.QueueWaits == 1 && st.Pending == queueDepth
	})

	var mu sync.Mutex
	var ran []string
	record := func(_ context.Context, payload []byte) ([]byte, error) {
		mu.Lock()
		ran = append(ran, string(payload))
		mu.Unlock()
		return payload, nil
	}
	w, err := NewWorker(sched.Addr(), "only", record)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	go func() { _ = w.Run(context.Background()) }()

	for i := 0; i < n; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%d of %d tasks never came back", n-i, n)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != n {
		t.Fatalf("worker ran %d tasks, want %d", len(ran), n)
	}
	for i, p := range ran {
		if p != payloads[i] {
			t.Fatalf("task %d run was %s, want %s: dispatch is not FIFO", i, p, payloads[i])
		}
	}
	if st := sched.Stats(); st.QueueWaits != 1 || st.Pending != 0 {
		t.Errorf("after the drain: %+v, want QueueWaits 1 and Pending 0", st)
	}
	settled()
}

// TestPendingQueueClosedWhileFull: a submission that finds the queue
// full waits for a slot or for Close, and Close makes it give up.
func TestPendingQueueClosedWhileFull(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sched.Close()
	for i := 0; i < queueDepth; i++ {
		sched.pending <- &task{}
	}
	done := make(chan error)
	go func() { done <- sched.enqueue(context.Background(), &task{}) }()
	waitFor(t, "the enqueue to block", func() bool { return sched.Stats().QueueWaits == 1 })
	sched.Close()
	if err := <-done; !errors.Is(err, errClosed) {
		t.Errorf("enqueue on a full queue after Close: %v, want %v", err, errClosed)
	}
	if st := sched.Stats(); st.Pending != queueDepth {
		t.Errorf("Pending = %d, want %d", st.Pending, queueDepth)
	}
}
