package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster/wire"
	"repro/internal/ea"
)

func echoHandler(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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
		out, err := lc.Client.Submit(context.Background(), payload)
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
	// The client's counters are final once its last Submit returns: ten
	// submits out, ten results in, one connection.
	if cw := lc.Client.Wire(); cw.FramesOut != 10 || cw.FramesIn != 10 || cw.Conns != 1 || cw.DecodeErrors != 0 {
		t.Errorf("client wire counters = %v, want 10 frames each way on 1 connection", cw)
	}
	// Three workers and the client, every link healthy.
	ws := lc.Scheduler.Wire()
	if ws.Conns != 4 || ws.DecodeErrors != 0 {
		t.Errorf("scheduler wire counters = %v, want 4 connections and no decode errors", ws)
	}
	if ws.FramesIn == 0 || ws.FramesOut == 0 || ws.BytesIn == 0 || ws.BytesOut == 0 {
		t.Errorf("scheduler wire counters did not move: %v", ws)
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
			out, err := lc.Client.Submit(context.Background(), payload)
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
	handler := func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		return nil, errors.New("training crashed: bad hyperparameters")
	}
	lc, err := NewLocalCluster(1, handler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	_, err = lc.Client.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "training crashed") {
		t.Errorf("Submit error = %v, want training crashed", err)
	}
	if st := lc.Scheduler.Stats(); st.Failed != 1 {
		t.Errorf("Failed = %d, want 1", st.Failed)
	}
}

func TestWorkerPanicContained(t *testing.T) {
	handler := func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
		panic("segfault in custom kernel")
	}
	lc, err := NewLocalCluster(1, handler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	defer lc.Close()

	_, err = lc.Client.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("Submit error = %v, want panic message", err)
	}
	// The worker must survive to serve another task.
	_, err = lc.Client.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Errorf("second Submit error = %v", err)
	}
}

func TestTaskTimeout(t *testing.T) {
	handler := func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
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
	_, err = lc.Client.Submit(context.Background(), json.RawMessage(`{}`))
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
	killingHandler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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

	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	// The healthy worker joins only once the doomed one holds task 0, so
	// that task is certain to need a reassignment.  (With both workers up
	// front the healthy one could win all five assignments.)
	submit := func(i int) error {
		payload := json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))
		out, err := client.Submit(context.Background(), payload)
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
		w, err = NewWorker(sched.Addr(), fmt.Sprintf("suicidal-%d", i), func(_ context.Context, _ json.RawMessage) (json.RawMessage, error) {
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
	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	defer client.Close()

	// Kill both workers; the scheduler still has their proxies blocked in
	// the pending receive.  Submitting now assigns to a dead conn, which
	// requeues and eventually abandons.
	for _, w := range workers {
		w.Close()
	}
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	_, err = client.Submit(ctx, json.RawMessage(`{}`))
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

	ev := &Evaluator{Client: lc.Client}
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
		&Evaluator{Client: lc.Client}, ea.PoolConfig{Parallelism: 3, Objectives: 2})
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

func TestClientSubmitAfterClose(t *testing.T) {
	lc, err := NewLocalCluster(1, echoHandler, 0)
	if err != nil {
		t.Fatalf("NewLocalCluster: %v", err)
	}
	lc.Client.Close()
	_, err = lc.Client.Submit(context.Background(), json.RawMessage(`{}`))
	if err == nil {
		t.Error("Submit after Close succeeded")
	}
	lc.Close()
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
	client, err := NewClient(sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	resCh := make(chan error, 1)
	go func() {
		_, err := client.Submit(context.Background(), json.RawMessage(`{"x":1}`))
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
func submitBatch(ctx context.Context, c *Client, payloads []json.RawMessage) []batchResult {
	out := make([]batchResult, len(payloads))
	var wg sync.WaitGroup
	for i, p := range payloads {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i].Payload, out[i].Err = c.Submit(ctx, p)
		}()
	}
	wg.Wait()
	return out
}

func TestSubmitBatchOrderAndErrors(t *testing.T) {
	handler := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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
	results := submitBatch(context.Background(), lc.Client, payloads)
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

func TestMultipleClientsShareWorkers(t *testing.T) {
	lc, err := NewLocalCluster(2, echoHandler, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	second, err := NewClient(lc.Scheduler.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()

	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 10; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			if _, err := lc.Client.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"a":%d}`, i))); err != nil {
				errs <- err
			}
		}(i)
		go func(i int) {
			defer wg.Done()
			if _, err := second.Submit(context.Background(), json.RawMessage(fmt.Sprintf(`{"b":%d}`, i))); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := lc.Scheduler.Stats(); st.Completed != 20 {
		t.Errorf("completed %d, want 20", st.Completed)
	}
}

// TestPendingQueueBackpressureFIFO pins the pending queue's two
// promises.  With no worker connected, a raw submitter writes one task
// more than the queue holds: the last submission blocks and is counted
// once in QueueWaits.  A worker that joins then runs every task in
// submission order.
func TestPendingQueueBackpressureFIFO(t *testing.T) {
	sched, err := NewScheduler("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	settled := watchBooks(t, sched)
	defer sched.Close()

	conn, err := net.Dial("tcp", sched.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = queueDepth + 1
	subs := make([]*message, n)
	for i := range subs {
		subs[i] = &message{Type: wire.TypeSubmit, TaskID: fmt.Sprintf("t%d", i), Payload: json.RawMessage(fmt.Sprintf(`{"i":%d}`, i))}
	}
	cd := newCodec(conn, &wireCounters{})
	if err := cd.writeBatch(subs); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the queue to fill and the last submission to block", func() bool {
		st := sched.Stats()
		return st.Submitted == n && st.QueueWaits == 1 && st.Pending == queueDepth
	})

	var mu sync.Mutex
	var ran []string
	record := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
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
	if snap, ok := w.Snapshot(); !ok || snap.Pending != queueDepth {
		t.Errorf("join snapshot = %+v, %v; want Pending %d", snap, ok, queueDepth)
	}
	go func() { _ = w.Run(context.Background()) }()

	if err := conn.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m, err := cd.read()
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		if m.Type != wire.TypeResult || m.Err != "" {
			t.Fatalf("result %d: %+v", i, m)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != n {
		t.Fatalf("worker ran %d tasks, want %d", len(ran), n)
	}
	for i, p := range ran {
		if p != string(subs[i].Payload) {
			t.Fatalf("task %d run was %s, want %s: dispatch is not FIFO", i, p, subs[i].Payload)
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
	done := make(chan bool)
	go func() { done <- sched.enqueue(&task{}) }()
	waitFor(t, "the enqueue to block", func() bool { return sched.Stats().QueueWaits == 1 })
	sched.Close()
	if <-done {
		t.Error("enqueue on a full queue succeeded after Close")
	}
	if st := sched.Stats(); st.Pending != queueDepth {
		t.Errorf("Pending = %d, want %d", st.Pending, queueDepth)
	}
}
