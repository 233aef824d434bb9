package experiments

import (
	"context"
	"sync"
	"sync/atomic"

	"halfprice/internal/bpred"
	"halfprice/internal/mem"
	"halfprice/internal/sample"
)

// planKey is everything uarch.ProfileForSampling and sample.BuildPlan
// read from a sampled request: the stream (benchmark, budget, kernel or
// synthetic), the spec, and the functional cache and predictor models
// the profile's performance features come from. Pipeline knobs (width,
// wakeup, register file, recovery) are deliberately absent — they never
// reach the profile — so every width and scheme of one workload shares
// one plan, as SimPoint's phase profile belongs to the program, not to
// the machine under study.
type planKey struct {
	bench      string
	budget     uint64
	useKernels bool
	spec       sample.Spec
	mem        mem.HierarchyConfig
	bpred      bpred.Config
}

func planKeyOf(req Request) planKey {
	return planKey{
		bench:      req.Bench,
		budget:     req.Budget,
		useKernels: req.UseKernels,
		spec:       *req.Sample,
		mem:        req.Config.Mem,
		bpred:      req.Config.Bpred,
	}
}

// samplePlan is a cached plan build. ok false means the stream is too
// short to sample, and the request falls back to a full run; err is a
// stream that could not be built (unknown benchmark or kernel), which is
// a pure function of the key too.
type samplePlan struct {
	plan sample.Plan
	ok   bool
	err  error
}

// planCache builds each sampling plan once per Runner (one per sweep).
// It is scoped to the Runner rather than the process so that every
// sweep pays for its own profiling and clustering, as a fresh
// cmd/report -sample run does. A nil *planCache caches nothing.
type planCache struct {
	mu     sync.Mutex
	m      map[planKey]*inflight[samplePlan]
	builds atomic.Uint64 // plans actually built (tests read it)
}

func newPlanCache() *planCache {
	return &planCache{m: make(map[planKey]*inflight[samplePlan])}
}

// get returns key's plan, calling build only if no other request built
// or is building it; concurrent requests for one key wait for a single
// build. A panicking build is re-raised on the builder and on every
// caller of that key, never read as a plan: caching it as "not
// sampleable" would silently turn sampled requests into full runs.
func (c *planCache) get(key planKey, build func() samplePlan) samplePlan {
	if c == nil {
		return build()
	}
	c.mu.Lock()
	e, ok := c.m[key]
	if !ok {
		e = &inflight[samplePlan]{done: make(chan struct{})}
		c.m[key] = e
	}
	c.mu.Unlock()
	if !ok {
		func() {
			defer func() {
				e.panicv = recover()
				close(e.done)
			}()
			c.builds.Add(1)
			e.v = build()
		}()
	}
	return e.mustJoin()
}

// planCacheKey is the context key under which a Runner hands its plan
// cache to LocalBackend.Execute, through any Backend wrapping it.
type planCacheKey struct{}

func withPlanCache(ctx context.Context, c *planCache) context.Context {
	return context.WithValue(ctx, planCacheKey{}, c)
}

// planCacheFrom returns the plan cache ctx carries, or nil.
func planCacheFrom(ctx context.Context) *planCache {
	if ctx == nil {
		return nil
	}
	c, _ := ctx.Value(planCacheKey{}).(*planCache)
	return c
}
