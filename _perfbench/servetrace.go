package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"halfprice/internal/dist"
	"halfprice/internal/experiments"
)

// serveTrace times serve-mixed's seams from outside: the hpserve and
// sweepd HTTP handlers, the workers' PreRun hook, and the journal's and
// store's filesystems. The Backend.Execute spans come from the fleet's
// recordingBackend.
type serveTrace struct {
	journalFS, storeFS timedFS
	gcFrac             float64

	mu       sync.Mutex
	submits  []float64 // ms in the POST /v1/jobs handler
	handlers []handlerSpan
	preRuns  map[workerKey]time.Time
	accepted map[string]float64 // request key -> first queued acceptance, unix seconds
}

type workerKey struct {
	worker int
	key    string
}

// handlerSpan is one sweepd /run request on one worker.
type handlerSpan struct {
	workerKey
	start, end time.Time
}

func newServeTrace() *serveTrace {
	return &serveTrace{journalFS: newTimedFS(), storeFS: newTimedFS(),
		preRuns: map[workerKey]time.Time{}, accepted: map[string]float64{}}
}

func (t *serveTrace) wrapServe(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		d := ms(time.Since(start))
		t.mu.Lock()
		t.submits = append(t.submits, d)
		t.mu.Unlock()
	})
}

func (t *serveTrace) wrapWorker(worker int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != dist.RunPath {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		body, err := io.ReadAll(r.Body)
		r.Body.Close()
		r.Body = io.NopCloser(bytes.NewReader(body))
		var req experiments.Request
		if err == nil {
			err = json.Unmarshal(body, &req)
		}
		h.ServeHTTP(w, r)
		if err != nil {
			return
		}
		end := time.Now()
		t.mu.Lock()
		t.handlers = append(t.handlers, handlerSpan{workerKey{worker, req.Key()}, start, end})
		t.mu.Unlock()
	})
}

func (t *serveTrace) preRun(worker int) func(experiments.Request) {
	return func(req experiments.Request) {
		now := time.Now()
		k := workerKey{worker, req.Key()}
		t.mu.Lock()
		if _, ok := t.preRuns[k]; !ok {
			t.preRuns[k] = now
		}
		t.mu.Unlock()
	}
}

func (t *serveTrace) accept(key string, at float64) {
	t.mu.Lock()
	if _, ok := t.accepted[key]; !ok {
		t.accepted[key] = at
	}
	t.mu.Unlock()
}

// serveTraced plays the schedule once more on a fresh fleet with the
// seams timed, then replays the executed requests through their layers.
// untraced is the batch the end-to-end metrics came from.
func serveTraced(cfg runConfig, jobs []plannedJob, untraced *batch, rep *report, g *golden) (serveCheck, error) {
	tr := newServeTrace()
	b, err := runBatch(batchDir(cfg, "traced"), jobs, span(cfg), tr)
	if err != nil {
		return serveCheck{}, err
	}
	c := checkBatch(b, g)
	var lag []float64
	for _, o := range b.outcomes {
		if o.submitted > 0 {
			lag = append(lag, 1000*(o.submitted-unixSeconds(o.due)))
		}
	}
	st := b.stats
	shed := uint64(0)
	for _, n := range st.Shed {
		shed += n
	}

	// Queue wait: acceptance to Backend.Execute. RPC: the coordinator's
	// span minus the first worker handler for the request to finish.
	tr.mu.Lock()
	defer tr.mu.Unlock()
	var queue, rpc, wait, sim []float64
	for _, r := range b.recs {
		key := r.req.Key()
		if at, ok := tr.accepted[key]; ok {
			queue = append(queue, 1000*(unixSeconds(r.start)-at))
		}
		var first *handlerSpan
		for i := range tr.handlers {
			h := &tr.handlers[i]
			if h.key == key && !h.end.After(r.end) && (first == nil || h.end.Before(first.end)) {
				first = h
			}
		}
		if first != nil {
			rpc = append(rpc, ms(r.end.Sub(r.start)-first.end.Sub(first.start)))
		}
	}
	for _, h := range tr.handlers {
		if p, ok := tr.preRuns[h.workerKey]; ok && !p.Before(h.start) {
			wait = append(wait, ms(p.Sub(h.start)))
			sim = append(sim, ms(h.end.Sub(p)))
		}
	}

	rep.layer("serve.submit_ms_p50", quantile(tr.submits, 0.5), "ms")
	rep.layer("serve.submit_ms_p90", quantile(tr.submits, 0.9), "ms")
	rep.layer("serve.queue_ms_p50", quantile(queue, 0.5), "ms")
	rep.layer("serve.queue_ms_p90", quantile(queue, 0.9), "ms")
	rep.layer("serve.journal_fs_ms", tr.journalFS.ms(), "ms")
	rep.layer("serve.cdn_hit_frac", ratio(float64(st.StoreHits), float64(st.Done)), "fraction")
	rep.layer("serve.dispatched", float64(st.Dispatched), "count")
	rep.layer("serve.refused", float64(c.refused), "count")
	rep.layer("serve.shed", float64(shed), "count")
	rep.layer("serve.deadline_exceeded", float64(st.DeadlineExceeded), "count")
	rep.layer("store.hits", float64(b.store[0]), "count")
	rep.layer("store.misses", float64(b.store[1]), "count")
	rep.layer("store.writes", float64(b.store[2]), "count")
	rep.layer("store.fs_ms", tr.storeFS.ms(), "ms")
	rep.layer("dist.rpc_ms_p50", quantile(rpc, 0.5), "ms")
	rep.layer("dist.worker_wait_ms_p50", quantile(wait, 0.5), "ms")
	rep.layer("dist.worker_sim_ms_p50", quantile(sim, 0.5), "ms")
	rep.layer("dist.hedges_launched", float64(b.hedges[0]), "count")
	rep.layer("dist.hedges_won", float64(b.hedges[1]), "count")
	rep.layer("dist.useful_sim_frac", ratio(float64(st.Dispatched), float64(b.sims)), "fraction")
	rep.layer("loadgen.lag_p90_ms", quantile(lag, 0.9), "ms")
	rep.layer("loadgen.poll_ms", ms(pollInterval), "ms")
	rep.layer("go.gc_cpu_frac", tr.gcFrac, "fraction")
	rep.layer("bench.trace_overhead_frac", ratio(b.cpu, untraced.cpu)-1, "fraction")
	exec := 0.0
	for _, r := range b.recs {
		exec += r.end.Sub(r.start).Seconds()
	}
	rep.layer("experiments.requests", float64(len(b.outcomes)), "count")
	rep.layer("experiments.exec_s", exec, "s")
	if err := setLayerMetrics(rep, b.recs); err != nil {
		return serveCheck{}, err
	}
	return c, nil
}
