package experiments

import (
	"context"
	"encoding/json"
	"fmt"

	"halfprice/internal/sample"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
	"halfprice/internal/vm"
	"halfprice/internal/workloads"
)

// Request is one serialized simulation request — the unit of work the
// execution-backend seam moves between goroutines and, with the
// internal/dist backend, between processes and machines. It carries
// everything a worker needs to reproduce the run bit-identically: the
// benchmark name (the workload's seed lives in its trace.Profile), the
// full machine configuration (including WarmupInsts) and the instruction
// budget. Two Requests with equal fields describe the same simulation.
type Request struct {
	Bench string `json:"bench"`
	// Config is the complete machine description; WarmupInsts inside it
	// selects the measurement window within Budget.
	Config uarch.Config `json:"config"`
	// Budget is the total dynamic instructions to simulate, warmup
	// included.
	Budget uint64 `json:"budget"`
	// UseKernels selects the execution-driven assembly kernel named
	// Bench instead of its calibrated synthetic trace.
	UseKernels bool `json:"kernels,omitempty"`
	// Sample, when non-nil, switches the request to sampled simulation
	// (phase detection + representative windows + extrapolation) under
	// the given spec. omitempty keeps full-run keys byte-identical to
	// pre-sampling builds, and makes sampled results cache under a
	// distinct key — they never alias full runs in the result store.
	Sample *sample.Spec `json:"sample,omitempty"`
}

// Label is the short human-readable run descriptor used in progress
// events (width plus the non-default scheme knobs).
func (req Request) Label() string { return configLabel(req.Config) }

// Key canonicalises the request for sharding and deduplication: equal
// requests render to equal keys. The JSON field order of a Go struct is
// its declaration order, so the encoding is deterministic.
func (req Request) Key() string {
	data, err := json.Marshal(req)
	mustf(err == nil, "experiments: marshaling request: %v", err)
	return string(data)
}

// Execute simulates one request in-process and returns its measurements.
// It is the single execution path shared by the local backend and by
// remote workers (cmd/sweepd), which is what makes distributed results
// bit-identical to local ones: every side runs exactly this function.
func Execute(req Request) (*uarch.Stats, error) {
	return execute(req, nil)
}

// execute is Execute with an optional plan cache for sampled requests;
// a nil cache builds every plan afresh.
func execute(req Request, plans *planCache) (*uarch.Stats, error) {
	if req.Sample != nil {
		return executeSampled(req, plans)
	}
	stream, err := newStream(req)
	if err != nil {
		return nil, err
	}
	return uarch.New(req.Config, stream).Run(), nil
}

// newStream builds the request's instruction stream. Streams are
// single-use; a sampled request calls this twice (profiling pass, then
// simulation pass) and both see identical instructions — the workloads
// are seeded and deterministic.
func newStream(req Request) (trace.Stream, error) {
	if req.UseKernels {
		if _, ok := workloads.Source(req.Bench); !ok {
			return nil, fmt.Errorf("unknown kernel %q", req.Bench)
		}
		return trace.NewVMStream(vm.New(workloads.MustProgram(req.Bench)), req.Budget), nil
	}
	p, ok := trace.ProfileByName(req.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	return trace.NewSynthetic(p, req.Budget), nil
}

// executeSampled runs the sampled-simulation path: a fast functional
// pass profiles the stream into interval signatures, phase detection
// picks representative windows, and uarch.RunSampled simulates only
// those windows in detail, extrapolating whole-run Stats. The profile
// and plan come from plans when it already holds the request's plan
// key. Streams too short to sample fall back to the full simulation
// (the returned Stats then carries a nil Sampled marker, which is how
// callers tell).
func executeSampled(req Request, plans *planCache) (*uarch.Stats, error) {
	if err := req.Sample.Validate(); err != nil {
		return nil, err
	}
	// The window plan owns both the warmup and the budget; a config that
	// also sets them would silently fight the plan.
	if req.Config.WarmupInsts != 0 {
		return nil, fmt.Errorf("sampled request: Config.WarmupInsts must be zero (the sample spec owns warmup), got %d", req.Config.WarmupInsts)
	}
	if req.Config.MaxInsts != 0 {
		return nil, fmt.Errorf("sampled request: Config.MaxInsts must be zero (Budget bounds the stream), got %d", req.Config.MaxInsts)
	}
	sp := plans.get(planKeyOf(req), func() samplePlan { return buildPlan(req) })
	if sp.err != nil {
		return nil, sp.err
	}
	if !sp.ok {
		full := req
		full.Sample = nil
		return Execute(full)
	}
	windows := make([]uarch.SampleWindow, len(sp.plan.Windows))
	for i, w := range sp.plan.Windows {
		windows[i] = uarch.SampleWindow{
			Start:   w.Start,
			Warmup:  sp.plan.Spec.WarmupInsts,
			Measure: w.Insts,
			Weight:  w.Weight,
			Phase:   w.Phase,
		}
	}
	simStream, err := newStream(req)
	if err != nil {
		return nil, err
	}
	return uarch.RunSampled(req.Config, simStream, windows, sp.plan.TotalInsts), nil
}

// buildPlan profiles the request's stream and clusters it into a window
// plan: the part of a sampled run that depends only on the plan key.
func buildPlan(req Request) samplePlan {
	stream, err := newStream(req)
	if err != nil {
		return samplePlan{err: err}
	}
	prof := uarch.ProfileForSampling(req.Config, stream, req.Sample.IntervalInsts)
	plan, ok := sample.BuildPlan(prof, *req.Sample)
	return samplePlan{plan: plan, ok: ok}
}

// Backend is the execution seam of the sweep engine: it turns one
// simulation Request into Stats. The zero-value LocalBackend simulates
// in-process; internal/dist's Coordinator implements the same interface
// over a fleet of sweepd workers, so experiments and commands switch
// backends without touching experiment code.
//
// Contract: Execute fires obs.RunStarted exactly once when the
// simulation actually begins (locally: immediately; remotely: when the
// worker streams its start event) and obs.RunFinished exactly once after
// it completes, in that order, even across internal retries. obs may be
// nil. Execute must be safe for concurrent use and deterministic: equal
// Requests must yield identical Stats.
//
// ctx carries the caller's cancellation and deadline — the per-job
// execution budget hpserve's API plumbs down to the fleet. A backend
// must stop retrying and waiting once ctx is done; it need not
// interrupt an in-flight local simulation (simulations are finite and
// the result stays correct). ctx must not influence the Stats — a
// request either completes bit-identically or fails.
type Backend interface {
	Execute(ctx context.Context, req Request, obs Observer) (*uarch.Stats, error)
}

// CachedObserver is the optional Observer extension for runs whose
// result was served from the durable on-disk result store
// (internal/store) instead of being simulated: RunCached fires in place
// of the RunStarted/RunFinished pair. internal/progress implements it
// and tags the NDJSON event as a cache hit.
type CachedObserver interface {
	RunCached(bench, config string, insts uint64)
}

// NotifyCached reports a store-served run to obs: RunCached when the
// observer supports it, otherwise a start/finish pair so a plain
// observer's lifecycle counters still balance. A nil obs is a no-op.
func NotifyCached(obs Observer, bench, config string, insts uint64) {
	if obs == nil {
		return
	}
	if co, ok := obs.(CachedObserver); ok {
		co.RunCached(bench, config, insts)
		return
	}
	obs.RunStarted(bench, config, insts)
	obs.RunFinished(bench, config, insts)
}

// LocalBackend executes requests in-process. The zero value is ready to
// use; it is the Runner's default when Options.Backend is nil.
type LocalBackend struct{}

// Execute implements Backend. A ctx already done before the simulation
// starts fails fast; once started, the run completes — local
// simulations are finite and a completed result is never wrong. A
// Runner's ctx carries its plan cache, so the sampled requests of one
// sweep share each profile and plan; any other ctx builds them per
// request.
func (LocalBackend) Execute(ctx context.Context, req Request, obs Observer) (*uarch.Stats, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if obs != nil {
		obs.RunStarted(req.Bench, req.Label(), req.Budget)
	}
	st, err := execute(req, planCacheFrom(ctx))
	if err != nil {
		return nil, err
	}
	if obs != nil {
		obs.RunFinished(req.Bench, req.Label(), req.Budget)
	}
	return st, nil
}
