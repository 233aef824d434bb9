package serve

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/uarch"
)

// TestQueueCancelMidRotation is the fair-share regression test: with
// the rotation cursor parked on a tenant, canceling that tenant's last
// queued job must hand the turn to the *next* tenant in rotation, not
// skip over it back to an earlier one.
func TestQueueCancelMidRotation(t *testing.T) {
	var q jobQueue
	mk := func(tenant string, seq uint64) *Job {
		return &Job{ID: fmt.Sprintf("j%d", seq), Seq: seq, Tenant: tenant, Priority: Batch}
	}
	a1, a2 := mk("a", 1), mk("a", 2)
	b1 := mk("b", 3)
	c1 := mk("c", 4)
	for _, j := range []*Job{a1, a2, b1, c1} {
		q.push(j)
	}

	// First pop takes a's head and advances the cursor to b.
	if got := q.pop(); got != a1 {
		t.Fatalf("pop 1 = %s, want a1", got.ID)
	}
	// Cancel b's only queued job while the cursor points at b.
	if !q.remove(b1) {
		t.Fatal("remove(b1) failed")
	}
	// The turn must pass to c — skipping c back to a would let a tenant
	// cancel its way into starving a neighbour.
	if got := q.pop(); got != c1 {
		t.Fatalf("pop after mid-rotation cancel = %s, want c1 (cursor must not skip c)", got.ID)
	}
	if got := q.pop(); got != a2 {
		t.Fatalf("pop 3 = %s, want a2", got.ID)
	}
	if q.depth() != 0 {
		t.Fatalf("queue depth %d after draining, want 0", q.depth())
	}
}

// deadlineBackend blocks until its context expires, returning the
// context's error — a stand-in for a dispatch that cannot finish inside
// the job's budget.
type deadlineBackend struct {
	mu    sync.Mutex
	calls int
}

func (b *deadlineBackend) Execute(ctx context.Context, req experiments.Request, obs experiments.Observer) (*uarch.Stats, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestDeadlineBoundsDispatch pins per-job deadline propagation: a job
// whose backend outlives DeadlineSec fails with a deadline error, and
// the failure is surfaced in /v1/stats as deadline_exceeded.
func TestDeadlineBoundsDispatch(t *testing.T) {
	backend := &deadlineBackend{}
	s, ts := newTestServer(t, Options{Backend: backend, Workers: 1})

	v := submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1001, "deadline_sec": 0.05}, http.StatusCreated)
	got := waitJobState(t, ts, "", v.ID, StateFailed)
	if !strings.Contains(got.Error, "deadline exceeded") {
		t.Fatalf("job error %q, want a deadline-exceeded failure", got.Error)
	}
	sv := s.Stats()
	if sv.DeadlineExceeded != 1 {
		t.Fatalf("stats deadline_exceeded = %d, want 1", sv.DeadlineExceeded)
	}
}

// TestDeadlineSpentQueued pins the one-budget contract: a deadline
// counts from submission, so a job whose budget is gone before a
// dispatch slot frees fails immediately without ever reaching the
// backend.
func TestDeadlineSpentQueued(t *testing.T) {
	backend := &fakeBackend{gate: make(chan struct{})}
	openGate := sync.OnceFunc(func() { close(backend.gate) })
	defer openGate()
	s, ts := newTestServer(t, Options{Backend: backend, Workers: 1})

	blockFirstJob(t, ts, backend, "")
	v := submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1001, "deadline_sec": 0.03}, http.StatusCreated)
	// Let the budget expire while the job is still queued behind the
	// blocker, then free the worker.
	time.Sleep(80 * time.Millisecond)
	openGate()

	got := waitJobState(t, ts, "", v.ID, StateFailed)
	if !strings.Contains(got.Error, "deadline exceeded before dispatch") {
		t.Fatalf("job error %q, want a spent-while-queued deadline failure", got.Error)
	}
	for _, budget := range backend.executions() {
		if budget == 1001 {
			t.Fatal("expired job must not reach the backend")
		}
	}
	if sv := s.Stats(); sv.DeadlineExceeded != 1 {
		t.Fatalf("stats deadline_exceeded = %d, want 1", sv.DeadlineExceeded)
	}
}

// budgetBackend never finishes a request whose ctx carries a deadline
// (it returns the ctx error once that passes) and completes any other
// request at once: a job with a deadline always times out mid-run.
type budgetBackend struct {
	mu    sync.Mutex
	calls int
}

func (b *budgetBackend) Execute(ctx context.Context, req experiments.Request, obs experiments.Observer) (*uarch.Stats, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	if _, ok := ctx.Deadline(); ok {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	return &uarch.Stats{Committed: req.Budget, Cycles: req.Budget / 2}, nil
}

func (b *budgetBackend) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.calls
}

// TestDeadlineFailureStaysWithItsJob pins the result tier's failure
// policy at the service layer: two identical jobs run together, the
// first with a deadline that expires mid-run, the second with none.
// The second joins the first's in-flight simulation; when that fails,
// the failure stays with the first job and the second computes for
// itself and finishes done.
func TestDeadlineFailureStaysWithItsJob(t *testing.T) {
	backend := &budgetBackend{}
	s, ts := newTestServer(t, Options{Backend: backend, Workers: 2})

	spec := map[string]any{"bench": "gzip", "insts": 1001}
	withDeadline := map[string]any{"bench": "gzip", "insts": 1001, "deadline_sec": 0.5}
	first := submitJob(t, ts, "", withDeadline, http.StatusCreated)
	deadline := time.Now().Add(5 * time.Second)
	for backend.callCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never dispatched")
		}
		time.Sleep(2 * time.Millisecond)
	}
	second := submitJob(t, ts, "", spec, http.StatusCreated)
	waitJobState(t, ts, "", second.ID, StateRunning)

	got := waitJobState(t, ts, "", first.ID, StateFailed)
	if !strings.Contains(got.Error, "deadline exceeded") {
		t.Fatalf("first job error %q, want a deadline-exceeded failure", got.Error)
	}
	if v := waitJobState(t, ts, "", second.ID, StateDone); v.Cached {
		t.Fatal("second job reported cached; the failed run left nothing to serve")
	}
	if n := backend.callCount(); n != 2 {
		t.Fatalf("backend called %d times, want 2 (the failed run and the second job's own)", n)
	}
	if sv := s.Stats(); sv.DeadlineExceeded != 1 || sv.Dispatched != 2 || sv.Done != 1 || sv.Failed != 1 {
		t.Fatalf("stats %+v, want 1 deadline exceeded / 2 dispatched / 1 done / 1 failed", sv)
	}
}

// TestBrownoutShedding pins the class-aware admission floor: as fleet
// saturation and queue depth build, background sheds first, then
// batch, while interactive is admitted until the queue is hard-full —
// and the shed state is visible in /v1/stats.
func TestBrownoutShedding(t *testing.T) {
	backend := &fakeBackend{gate: make(chan struct{})}
	openGate := sync.OnceFunc(func() { close(backend.gate) })
	defer openGate()
	saturated := false
	var mu sync.Mutex
	s, ts := newTestServer(t, Options{
		Backend:  backend,
		Workers:  1,
		MaxQueue: 8,
		FleetStats: func() (int, int64) {
			mu.Lock()
			defer mu.Unlock()
			if saturated {
				return 2, 100
			}
			return 2, 0
		},
	})

	blockFirstJob(t, ts, backend, "")
	// Idle fleet, shallow queue: every class is admitted.
	submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1001, "priority": "background"}, http.StatusCreated)

	mu.Lock()
	saturated = true
	mu.Unlock()
	// Saturated fleet: background sheds immediately, batch still fits
	// while the backlog is shallow.
	submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1002, "priority": "background"}, http.StatusTooManyRequests)
	submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1003, "priority": "batch"}, http.StatusCreated)
	// Depth 2 with a saturated fleet crosses the batch floor: batch
	// sheds too, interactive still lands.
	submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1004, "priority": "batch"}, http.StatusTooManyRequests)
	submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1005, "priority": "interactive"}, http.StatusCreated)

	sv := s.Stats()
	if len(sv.Shedding) != 2 || sv.Shedding[0] != "background" || sv.Shedding[1] != "batch" {
		t.Fatalf("stats shedding %v, want [background batch]", sv.Shedding)
	}
	if sv.Shed["background"] != 1 || sv.Shed["batch"] != 1 {
		t.Fatalf("stats shed counters %v, want one background and one batch rejection", sv.Shed)
	}
}
