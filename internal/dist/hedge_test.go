package dist

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"halfprice/internal/experiments"
)

// TestSleepBackoffCanceled pins the ctx-aware backoff: a canceled
// context returns immediately with an error instead of sitting out the
// delay — an abandoned sweep must never camp on a 30s retry backoff.
func TestSleepBackoffCanceled(t *testing.T) {
	c := NewCoordinator(nil, Options{Backoff: time.Hour, HealthInterval: time.Hour})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	err := c.sleepBackoff(ctx, 5)
	if err == nil {
		t.Fatal("sleepBackoff on a canceled context must return an error")
	}
	if el := time.Since(t0); el > time.Second {
		t.Fatalf("sleepBackoff took %s on a canceled context, want immediate return", el)
	}
}

// TestBackoffJitterDeterministic pins satellite: with an injected
// seeded rand, the jittered backoff schedule is a pure function of the
// seed, so chaos runs replay byte-identically.
func TestBackoffJitterDeterministic(t *testing.T) {
	delays := func() []time.Duration {
		c := NewCoordinator(nil, Options{
			Backoff:        time.Millisecond,
			HealthInterval: time.Hour,
			Jitter:         rand.New(rand.NewSource(42)),
		})
		defer c.Close()
		var out []time.Duration
		for n := 0; n < 6; n++ {
			d := c.backoffDelay(n)
			c.jmu.Lock()
			j := time.Duration(c.jitter.Int63n(int64(d/2) + 1))
			c.jmu.Unlock()
			out = append(out, d/2+j)
		}
		return out
	}
	a, b := delays(), delays()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delay %d: %s vs %s — same seed must give the same schedule", i, a[i], b[i])
		}
	}
}

// TestHedgedDispatch races a deliberately slow primary against a fast
// hedge peer: the peer's result wins, the caller never waits out the
// primary, observer events stay exactly-once, and the hedge counters
// record the win.
func TestHedgedDispatch(t *testing.T) {
	// The shard hash decides which worker is the primary for this
	// request; aim it at the slow server so the hedge must fire.
	req := requestFor(t, 0, 2)
	slow := ServerOptions{PreRun: func(experiments.Request) { time.Sleep(3 * time.Second) }}
	_, tsA := startWorkerWith(t, slow)
	_, tsB := startWorkerWith(t, ServerOptions{})
	addrs := []string{tsA.URL, tsB.URL}

	c := NewCoordinator(addrs, Options{
		Hedge:          true,
		Timeout:        30 * time.Second,
		HealthInterval: time.Hour,
	})
	defer c.Close()
	warmHedge(c, 50*time.Millisecond)

	obs := &countingObserver{}
	t0 := time.Now()
	st, err := c.Execute(context.Background(), req, obs)
	if err != nil {
		t.Fatalf("hedged Execute: %v", err)
	}
	if el := time.Since(t0); el > 2*time.Second {
		t.Fatalf("hedged request took %s; the fast peer should have won long before the slow primary", el)
	}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, want) {
		t.Fatal("hedged result differs from local execution")
	}
	launched, won := c.HedgeStats()
	if launched != 1 || won != 1 {
		t.Fatalf("hedge stats launched=%d won=%d, want 1/1", launched, won)
	}
	if s, f := obs.started.Load(), obs.finished.Load(); s != 1 || f != 1 {
		t.Fatalf("observer saw %d starts / %d finishes, want exactly-once", s, f)
	}
}

// TestHedgeWarmupSuppressed pins the adaptive trigger's cold start: with
// fewer than hedgeWarmup completed requests, hedging never fires — a cold estimate would double-dispatch the first
// requests of every sweep.
func TestHedgeWarmupSuppressed(t *testing.T) {
	c := NewCoordinator(nil, Options{Hedge: true, HealthInterval: time.Hour})
	defer c.Close()
	for i := 0; i < hedgeWarmup-1; i++ {
		c.lat.observe(10 * time.Millisecond)
	}
	if _, ok := c.hedgeDelay(); ok {
		t.Fatal("hedge delay available before warmup")
	}
	c.lat.observe(10 * time.Millisecond)
	if d, ok := c.hedgeDelay(); !ok || d <= 0 {
		t.Fatalf("hedge delay after warmup = %s, %v; want a positive adaptive delay", d, ok)
	}
}

// warmHedge feeds the latency estimator hedgeWarmup samples of d, so a
// hedge launches once an attempt has been in flight for about d.
func warmHedge(c *Coordinator, d time.Duration) {
	for i := 0; i < hedgeWarmup; i++ {
		c.lat.observe(d)
	}
}

// TestHedgeFailedPrimaryChargesBreaker: a primary that fails on its own
// (after 300 ms) while its hedge is still running (600 ms) is charged
// for the failure even though the hedge then wins. Otherwise a worker
// whose /run fails but whose /healthz answers is never evicted, and
// every request to its shard waits out the hedge delay.
func TestHedgeFailedPrimaryChargesBreaker(t *testing.T) {
	req := requestFor(t, 0, 2)
	var hits atomic.Int64
	primary := newFaultyWorker(t, failSlowly, &hits)
	_, peer := startWorkerWith(t, ServerOptions{PreRun: func(experiments.Request) { time.Sleep(600 * time.Millisecond) }})

	opts := quietOptions(t)
	opts.Hedge = true
	c := NewCoordinator([]string{primary.URL, peer.URL}, opts)
	defer c.Close()
	warmHedge(c, 50*time.Millisecond)

	st, err := c.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("hedged Execute: %v", err)
	}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, want) {
		t.Fatal("hedged result differs from local execution")
	}
	if launched, won := c.HedgeStats(); launched != 1 || won != 1 {
		t.Fatalf("hedge stats launched=%d won=%d, want 1/1", launched, won)
	}
	if hits.Load() != 1 {
		t.Fatalf("primary saw %d dispatches, want 1", hits.Load())
	}
	if got := c.pool.snapshot()[0].br.snapshot(); got != brOpen {
		t.Fatalf("failed primary's breaker is %v after the hedge won, want open", got)
	}
}

// TestHedgeCountsTowardAttempts: a hedge is one of the request's
// Attempts, not an extra dispatch riding on each of them. Two workers
// that both fail slowly see exactly Attempts dispatches between them
// before the request falls back to local execution.
func TestHedgeCountsTowardAttempts(t *testing.T) {
	req := requestFor(t, 0, 2)
	var hits atomic.Int64
	a := newFaultyWorker(t, failSlowly, &hits)
	b := newFaultyWorker(t, failSlowly, &hits)

	opts := quietOptions(t)
	opts.Hedge = true
	opts.Attempts = 2
	opts.BreakerThreshold = 10 // keep both workers dispatchable throughout
	c := NewCoordinator([]string{a.URL, b.URL}, opts)
	defer c.Close()
	warmHedge(c, 50*time.Millisecond)

	st, err := c.Execute(context.Background(), req, nil)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	if statsJSON(t, st) != statsJSON(t, want) {
		t.Fatal("fallback result differs from local execution")
	}
	if n := hits.Load(); n != 2 {
		t.Fatalf("%d dispatches before the local fallback, want Attempts = 2", n)
	}
}
