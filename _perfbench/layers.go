package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/sample"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// The per-layer split is measured from outside the program: after a
// traced timed phase, every executed request is replayed through the
// public calls its execution path is made of — trace generation alone,
// then uarch.New(..).Run for a full-detail request, or
// uarch.ProfileForSampling, sample.BuildPlan and uarch.RunSampled for a
// sampled one — each call timed on its own. Comparing the replayed
// calls with the Backend.Execute spans of the timed phase gives
// bench.unattributed_frac.
//
// Calls that are pure functions of part of a request are timed once per
// distinct input and charged to every request that makes them: trace
// generation depends on (benchmark, budget), profiling and planning on
// planKey. The program itself repeats those calls per request, so a
// later change that caches them inside the program shows up as a
// negative bench.unattributed_frac rather than a smaller layer.

// execRecord is one Backend.Execute call seen by recordingBackend.
type execRecord struct {
	req        experiments.Request
	st         *uarch.Stats
	start, end time.Time
}

// recordingBackend wraps a Backend and records every successful call.
type recordingBackend struct {
	inner experiments.Backend
	mu    sync.Mutex
	recs  []execRecord
}

func (b *recordingBackend) Execute(ctx context.Context, req experiments.Request, obs experiments.Observer) (*uarch.Stats, error) {
	start := time.Now()
	st, err := b.inner.Execute(ctx, req, obs)
	end := time.Now()
	if err == nil {
		b.mu.Lock()
		b.recs = append(b.recs, execRecord{req: req, st: st, start: start, end: end})
		b.mu.Unlock()
	}
	return st, err
}

func (b *recordingBackend) records() []execRecord {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]execRecord(nil), b.recs...)
}

// execSeconds sums the Backend.Execute spans of recs.
func execSeconds(recs []execRecord) float64 {
	t := 0.0
	for _, r := range recs {
		t += r.end.Sub(r.start).Seconds()
	}
	return t
}

// newStream builds a request's synthetic instruction stream.
func newStream(req experiments.Request) (trace.Stream, error) {
	p, ok := trace.ProfileByName(req.Bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", req.Bench)
	}
	return trace.NewSynthetic(p, req.Budget), nil
}

// streamKey names everything a request's instruction stream depends on.
type streamKey struct {
	bench  string
	budget uint64
}

func streamOf(req experiments.Request) streamKey { return streamKey{req.Bench, req.Budget} }

// planKey names everything a sampled request's profile and plan depend
// on: benchmark, budget, sample spec, memory hierarchy and predictor.
func planKey(req experiments.Request) string {
	return digest(req.Bench, fmt.Sprint(req.Budget), fmt.Sprintf("%+v", *req.Sample),
		fmt.Sprintf("%+v", req.Config.Mem), fmt.Sprintf("%+v", req.Config.Bpred))
}

// windowsOf turns a plan into the detailed-simulation windows, as the
// sampled execution path does.
func windowsOf(plan sample.Plan) []uarch.SampleWindow {
	ws := make([]uarch.SampleWindow, len(plan.Windows))
	for i, w := range plan.Windows {
		ws[i] = uarch.SampleWindow{Start: w.Start, Warmup: plan.Spec.WarmupInsts, Measure: w.Insts, Weight: w.Weight, Phase: w.Phase}
	}
	return ws
}

func timed(f func()) time.Duration {
	t := time.Now()
	f()
	return time.Since(t)
}

// parallel calls f(0..n-1) on nproc goroutines, the parallelism the
// timed phases run at, and returns the first error.
func parallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// drained is one instruction stream generated and drained alone.
type drained struct {
	d     time.Duration
	insts uint64
}

func drain(k streamKey) (drained, error) {
	var out drained
	s, err := newStream(experiments.Request{Bench: k.bench, Budget: k.budget})
	if err != nil {
		return out, err
	}
	out.d = timed(func() {
		for {
			if _, ok := s.Next(); !ok {
				break
			}
			out.insts++
		}
	})
	return out, nil
}

// planned is one sampled request's profile and plan.
type planned struct {
	profile, plan time.Duration // profile includes its stream's generation
	prof          trace.IntervalProfile
	p             sample.Plan
	ok            bool // false: too short to sample, the path runs in full
}

func planFor(req experiments.Request) (planned, error) {
	var out planned
	s, err := newStream(req)
	if err != nil {
		return out, err
	}
	out.profile = timed(func() { out.prof = uarch.ProfileForSampling(req.Config, s, req.Sample.IntervalInsts) })
	out.plan = timed(func() { out.p, out.ok = sample.BuildPlan(out.prof, *req.Sample) })
	return out, nil
}

// simulated is one request's detailed-core call.
type simulated struct {
	d  time.Duration // includes its stream's generation
	st *uarch.Stats
}

// simulate runs a request's detailed-core call: RunSampled over its
// plan, or a full uarch.New(..).Run when pl is nil or not sampleable.
func simulate(req experiments.Request, pl *planned) (simulated, error) {
	var out simulated
	s, err := newStream(req)
	if err != nil {
		return out, err
	}
	if pl != nil && pl.ok {
		out.d = timed(func() { out.st = uarch.RunSampled(req.Config, s, windowsOf(pl.p), pl.prof.Total) })
	} else {
		out.d = timed(func() { out.st = uarch.New(req.Config, s).Run() })
	}
	return out, nil
}

// replayed is every layer call of a set of distinct requests.
type replayed struct {
	reqs    []experiments.Request
	streams map[streamKey]drained
	plans   map[string]*planned
	sims    []simulated
}

// planOf returns a request's plan (nil for a full-detail request).
func (r *replayed) planOf(req experiments.Request) *planned {
	if req.Sample == nil {
		return nil
	}
	return r.plans[planKey(req)]
}

func replayAll(reqs []experiments.Request) (*replayed, error) {
	r := &replayed{reqs: reqs, streams: map[streamKey]drained{}, plans: map[string]*planned{}}
	var sks []streamKey
	var pks []string
	var preqs []experiments.Request
	for _, req := range reqs {
		if _, ok := r.streams[streamOf(req)]; !ok {
			r.streams[streamOf(req)] = drained{}
			sks = append(sks, streamOf(req))
		}
		if req.Sample != nil {
			if k := planKey(req); r.plans[k] == nil {
				r.plans[k] = &planned{}
				pks = append(pks, k)
				preqs = append(preqs, req)
			}
		}
	}
	drains := make([]drained, len(sks))
	if err := parallel(len(sks), func(i int) (err error) { drains[i], err = drain(sks[i]); return }); err != nil {
		return nil, err
	}
	for i, k := range sks {
		r.streams[k] = drains[i]
	}
	if err := parallel(len(pks), func(i int) (err error) { *r.plans[pks[i]], err = planFor(preqs[i]); return }); err != nil {
		return nil, err
	}
	r.sims = make([]simulated, len(reqs))
	err := parallel(len(reqs), func(i int) (err error) { r.sims[i], err = simulate(reqs[i], r.planOf(reqs[i])); return })
	return r, err
}

// allocSubset is how many requests the serial allocation replay covers.
const allocSubset = 8

// allocsPerKinst replays the detailed-core call of an evenly spaced,
// key-ordered subset of the requests one at a time, with nothing else
// running, and returns heap allocations and bytes per 1000 instructions
// simulated in detail.
func allocsPerKinst(r *replayed) (allocs, bytes float64, err error) {
	sorted := append([]experiments.Request(nil), r.reqs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })
	n := min(allocSubset, len(sorted))
	var objs, byts, insts uint64
	var ms runtime.MemStats
	for i := 0; i < n; i++ {
		req := sorted[i*len(sorted)/n]
		runtime.ReadMemStats(&ms)
		o0, b0 := ms.Mallocs, ms.TotalAlloc
		sim, err := simulate(req, r.planOf(req))
		if err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&ms)
		objs += ms.Mallocs - o0
		byts += ms.TotalAlloc - b0
		if m := sim.st.Sampled; m != nil {
			insts += m.DetailedInsts
		} else {
			insts += req.Budget
		}
	}
	k := float64(insts) / 1000
	return ratio(float64(objs), k), ratio(float64(byts), k), nil
}

// distinctRequests returns each record's request once, in record order.
func distinctRequests(recs []execRecord) []experiments.Request {
	seen := map[string]bool{}
	var out []experiments.Request
	for _, r := range recs {
		if k := r.req.Key(); !seen[k] {
			seen[k] = true
			out = append(out, r.req)
		}
	}
	return out
}

// planRepeatFrac is the share of sampled requests whose profile and plan
// inputs repeat an earlier request's (0 with no sampled requests).
func planRepeatFrac(reqs []experiments.Request) float64 {
	seen := map[string]bool{}
	sampled, repeats := 0, 0
	for _, req := range reqs {
		if req.Sample == nil {
			continue
		}
		sampled++
		k := planKey(req)
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	return ratio(float64(repeats), float64(sampled))
}

// setLayerMetrics replays the executed requests and fills the trace,
// uarch and sample layer metrics plus bench.unattributed_frac, whose
// base is the summed Backend.Execute spans of the timed phase.
func setLayerMetrics(rep *report, recs []execRecord) error {
	reqs := distinctRequests(recs)
	r, err := replayAll(reqs)
	if err != nil {
		return err
	}
	var gen, top, run, prof, plan, sruns float64
	var insts, cycles, fullCycles, detailed, ff, wins uint64
	var intervals, phases int
	for i, req := range reqs {
		dr := r.streams[streamOf(req)]
		sim := r.sims[i]
		streams := 1
		top += sim.d.Seconds()
		if pl := r.planOf(req); pl != nil {
			streams++
			top += pl.profile.Seconds() + pl.plan.Seconds()
			prof += (pl.profile - dr.d).Seconds()
			plan += pl.plan.Seconds()
			intervals += len(pl.prof.Sigs)
		}
		gen += dr.d.Seconds() * float64(streams)
		insts += dr.insts * uint64(streams)
		if m := sim.st.Sampled; m != nil {
			sruns += (sim.d - dr.d).Seconds()
			phases += m.Phases
			detailed += m.DetailedInsts
			ff += m.FFInsts
			for _, w := range m.PerWindow {
				cycles += w.Cycles
				wins += w.Committed
			}
			continue
		}
		run += (sim.d - dr.d).Seconds()
		cycles += sim.st.Cycles
		fullCycles += sim.st.Cycles
		detailed += dr.insts
	}
	allocs, bytes, err := allocsPerKinst(r)
	if err != nil {
		return err
	}
	rep.layer("trace.gen_s", gen, "s")
	rep.layer("trace.ns_per_inst", ratio(gen*1e9, float64(insts)), "ns")
	rep.layer("uarch.detailed_s", run, "s")
	rep.layer("uarch.ns_per_cycle", ratio(run*1e9, float64(fullCycles)), "ns")
	rep.layer("uarch.allocs_per_kinst", allocs, "count")
	rep.layer("uarch.bytes_per_kinst", bytes, "B")
	rep.layer("uarch.sim_cycles", float64(cycles), "count")
	rep.layer("uarch.detailed_insts", float64(detailed), "count")
	rep.layer("uarch.profile_s", prof, "s")
	rep.layer("uarch.sampled_run_s", sruns, "s")
	rep.layer("uarch.ff_insts", float64(ff), "count")
	rep.layer("uarch.window_insts", float64(wins), "count")
	rep.layer("sample.plan_s", plan, "s")
	rep.layer("sample.intervals", float64(intervals), "count")
	rep.layer("sample.phases", float64(phases), "count")
	rep.layer("sample.plan_reuse_frac", planRepeatFrac(reqs), "fraction")
	rep.layer("bench.unattributed_frac", 1-ratio(top, execSeconds(recs)), "fraction")
	rep.note("layers: replayed %d distinct requests (%d distinct streams, %d distinct plans); largest layer %s",
		len(reqs), len(r.streams), len(r.plans), largestLayer(rep))
	return nil
}

// largestLayer names the layer time metric with the largest value.
func largestLayer(rep *report) string {
	best, bestV := "", -1.0
	for _, n := range []string{"trace.gen_s", "uarch.detailed_s", "uarch.profile_s", "uarch.sampled_run_s", "sample.plan_s"} {
		if v := rep.layers[n].Value; v > bestV {
			best, bestV = n, v
		}
	}
	return fmt.Sprintf("%s (%.3g s)", best, bestV)
}
