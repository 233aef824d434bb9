package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/trace"
)

// Fault modes a misbehaving worker can present; each must end in a
// successful re-dispatched run, never a lost or duplicated result.
type faultMode int

const (
	dieMidRun  faultMode = iota // streams "start", then drops the connection
	hang                        // accepts the request and never answers
	corrupt                     // answers with bytes that are not JSON
	failSlowly                  // answers 500 after slowFailDelay
)

// slowFailDelay is how long a failSlowly worker runs before failing:
// long enough for a warmed hedge to launch while it is in flight.
const slowFailDelay = 300 * time.Millisecond

// newFaultyWorker serves a worker that passes health checks but fails
// every /run request in the given mode. hits counts dispatch attempts
// that reached it.
func newFaultyWorker(t *testing.T, mode faultMode, hits *atomic.Int64) *httptest.Server {
	t.Helper()
	stop := make(chan struct{}) // releases hung handlers so server shutdown can finish
	mux := http.NewServeMux()
	mux.HandleFunc(HealthzPath, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(Health{OK: true})
	})
	mux.HandleFunc(RunPath, func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		switch mode {
		case dieMidRun:
			var req experiments.Request
			json.NewDecoder(r.Body).Decode(&req)
			fmt.Fprintf(w, "{\"event\":\"start\",\"bench\":%q,\"config\":%q}\n", req.Bench, req.Label())
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler) // kill the connection mid-stream
		case hang:
			select { // hold the request until the client gives up
			case <-r.Context().Done():
			case <-stop:
			}
		case corrupt:
			io.WriteString(w, "{{{ this is not JSON\n")
		case failSlowly:
			select {
			case <-time.After(slowFailDelay):
			case <-r.Context().Done():
			case <-stop:
			}
			http.Error(w, "simulated failure", http.StatusInternalServerError)
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(stop) }) // LIFO: unblock handlers before ts.Close waits on them
	return ts
}

// requestFor returns a simulation request whose shard-preferred worker
// in a fleet of n is index idx, so a test can aim the first dispatch at
// the faulty worker deterministically.
func requestFor(t *testing.T, idx, n int) experiments.Request {
	t.Helper()
	for _, b := range trace.BenchmarkNames {
		req := experiments.Request{Bench: b, Config: testConfig(), Budget: 3000}
		if int(shard(req.Key())%uint32(n)) == idx {
			return req
		}
	}
	t.Fatalf("no benchmark shards onto worker %d of %d", idx, n)
	return experiments.Request{}
}

// countingObserver counts lifecycle events, for exactly-once assertions.
type countingObserver struct {
	queued, started, finished atomic.Int64
}

func (o *countingObserver) RunQueued(string, string, uint64)   { o.queued.Add(1) }
func (o *countingObserver) RunStarted(string, string, uint64)  { o.started.Add(1) }
func (o *countingObserver) RunFinished(string, string, uint64) { o.finished.Add(1) }

// runFaultScenario dispatches one request whose preferred worker fails
// in the given mode and asserts full recovery: the result is
// bit-identical to local execution, the healthy worker ran the
// re-dispatched simulation exactly once, and the observer saw exactly
// one start and one finish.
func runFaultScenario(t *testing.T, mode faultMode) {
	var hits atomic.Int64
	faulty := newFaultyWorker(t, mode, &hits)
	healthy, tsHealthy := startWorker(t)

	opts := quietOptions(t)
	if mode == hang {
		opts.Timeout = 500 * time.Millisecond // the hang must trip the per-request timeout
	}
	coord := NewCoordinator([]string{faulty.URL, tsHealthy.URL}, opts)
	defer coord.Close()

	req := requestFor(t, 0, 2) // worker 0 = faulty
	obs := &countingObserver{}
	got, err := coord.Execute(context.Background(), req, obs)
	if err != nil {
		t.Fatalf("Execute did not recover from fault: %v", err)
	}

	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, got) != statsJSON(t, want) {
		t.Fatal("re-dispatched result differs from local execution")
	}
	if hits.Load() == 0 {
		t.Fatal("faulty worker was never dispatched to; scenario did not exercise the fault")
	}
	if done := healthy.Health().Done; done != 1 {
		t.Fatalf("healthy worker completed %d runs, want exactly 1 (no lost or duplicated work)", done)
	}
	if s, f := obs.started.Load(), obs.finished.Load(); s != 1 || f != 1 {
		t.Fatalf("observer saw %d starts / %d finishes across retries, want exactly 1/1", s, f)
	}
	if coord.HealthyWorkers() != 1 {
		t.Errorf("faulty worker still in dispatch after failed request")
	}
}

func TestWorkerDiesMidRun(t *testing.T)         { runFaultScenario(t, dieMidRun) }
func TestWorkerHangsPastTimeout(t *testing.T)   { runFaultScenario(t, hang) }
func TestWorkerReturnsCorruptJSON(t *testing.T) { runFaultScenario(t, corrupt) }

// TestWorkerDiesMidSweep is the sweep-level acceptance criterion:
// killing a worker mid-sweep must not fail the sweep — its work is
// re-dispatched and the merged results stay bit-identical to a serial
// local run.
func TestWorkerDiesMidSweep(t *testing.T) {
	var hits atomic.Int64
	faulty := newFaultyWorker(t, dieMidRun, &hits)
	_, tsHealthy := startWorker(t)
	coord := NewCoordinator([]string{faulty.URL, tsHealthy.URL}, quietOptions(t))
	defer coord.Close()

	serial, _ := sweepJSON(t, nil, 1, nil)
	obs := &countingObserver{}
	distributed, r := sweepJSON(t, coord, 8, obs)
	if !bytes.Equal(serial, distributed) {
		t.Fatal("sweep results differ from serial after mid-sweep worker death")
	}
	if hits.Load() == 0 {
		t.Fatal("faulty worker was never dispatched to; sweep did not exercise the fault")
	}
	sims := int64(r.Sims())
	if q, s, f := obs.queued.Load(), obs.started.Load(), obs.finished.Load(); q != sims || s != sims || f != sims {
		t.Fatalf("observer saw queued/started/finished = %d/%d/%d for %d runs; events must fire exactly once per run", q, s, f, sims)
	}
}
