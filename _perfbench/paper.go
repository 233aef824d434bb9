package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"halfprice/internal/experiments"
	"halfprice/internal/sample"
)

// paperKind is one of the two paper-evaluation workloads: the sweep
// cmd/report -skip-ablations runs (experiments.Runner.All), with no
// result store and Parallel = nproc.
type paperKind struct {
	name    string
	insts   uint64
	benches []string // nil: all twelve profiles
	sampled bool
}

// Neither paper workload reads the run seed. The profiles carry their
// own seeds, and paper-sampled runs sample.DefaultSpec(), the spec
// cmd/report -sample uses, at its own seed. The sweep's cost depends on
// the spec seed through k-medoids convergence, and a sweep clusters only
// two distinct plans, so a seed-driven spec made sweep_s vary by 31%
// (quartile spread over ten seeds): more than any bound a comparison
// between commits can use.
var (
	// paperFull runs every profile at both widths in full detail. 40k
	// instructions per simulation keeps per-request set-up (trace and
	// pipeline construction) a small share while about four sweeps fit
	// a run.
	paperFull = paperKind{name: "paper-full", insts: 40_000}
	// paperSampled runs the sweep with -sample at 3M instructions per
	// simulation on mcf (memory-bound) and vortex (the largest sampled
	// error seen).
	paperSampled = paperKind{name: "paper-sampled", insts: 3_000_000, benches: []string{"mcf", "vortex"}, sampled: true}
)

// sampledTolerance is the per-configuration |relative IPC error| bound
// of the repository's own sampling accuracy test; sample.err_over_tol_frac
// reports the share of cells beyond it. Sampled error is an accuracy
// figure, not an output failure (see README.md).
const sampledTolerance = 0.07

func (k paperKind) options(b experiments.Backend, obs experiments.Observer) experiments.Options {
	opts := experiments.Options{
		Insts:      k.insts,
		Benchmarks: k.benches,
		Parallel:   runtime.NumCPU(),
		Backend:    b,
		Observer:   obs,
	}
	if k.sampled {
		spec := sample.DefaultSpec()
		opts.Sample = &spec
	}
	return opts
}

// paperSetup builds the sweep's Runner: everything before the first
// request.
func paperSetup(k paperKind) func(runConfig) (func(), error) {
	return func(runConfig) (func(), error) {
		experiments.NewRunner(k.options(nil, nil))
		return func() {}, nil
	}
}

// sweepOut is one timed sweep.
type sweepOut struct {
	results    []*experiments.Result
	recs       []execRecord
	runner     *experiments.Runner
	start, end time.Time
	wall       float64
	cpu        float64
}

func runSweep(k paperKind, obs experiments.Observer) sweepOut {
	b := &recordingBackend{inner: experiments.LocalBackend{}}
	r := experiments.NewRunner(k.options(b, obs))
	cpu0, t0 := cpuSeconds(), time.Now()
	res := r.All()
	t1 := time.Now()
	return sweepOut{results: res, recs: b.records(), runner: r, start: t0, end: t1,
		wall: t1.Sub(t0).Seconds(), cpu: cpuSeconds() - cpu0}
}

// check scores a sweep's outputs against the committed golden values.
type check struct {
	cells, failed int
	// relErr and halfWidth are each sampled cell's relative IPC error
	// against its full-detail reference and its ci95 half-width relative
	// to its IPC; covered counts the cells whose reference lies within
	// the extrapolated ±IPCErr95.
	relErr, halfWidth []float64
	covered           int
}

func (c *check) add(o check) {
	c.cells += o.cells
	c.failed += o.failed
	c.covered += o.covered
	c.relErr = append(c.relErr, o.relErr...)
	c.halfWidth = append(c.halfWidth, o.halfWidth...)
}

// pass scores one checked output.
func (c *check) pass(ok bool) {
	c.cells++
	if !ok {
		c.failed++
	}
}

// setFailures fills the metrics derived from the output checks.
func (c *check) setFailures(rep *report) {
	rep.attempted, rep.failed = c.cells, c.failed
	ff := ratio(float64(c.failed), float64(c.cells))
	rep.set("ok_frac", 1-ff, "fraction")
	rep.show("failed_frac", ff, "fraction")
	rep.layer("bench.failed_frac", ff, "fraction")
}

// setAccuracy fills the sampled-accuracy metrics.
func (c *check) setAccuracy(rep *report) {
	n := float64(len(c.relErr))
	over := 0
	for _, e := range c.relErr {
		if e > sampledTolerance {
			over++
		}
	}
	errPct, halfPct, cov := 100*mean(c.relErr), 100*mean(c.halfWidth), ratio(float64(c.covered), n)
	rep.layer("sample.ipc_err_pct", errPct, "%")
	rep.layer("sample.ci95_halfwidth_pct", halfPct, "%")
	rep.layer("sample.ci95_coverage", cov, "fraction")
	rep.layer("sample.err_over_tol_frac", ratio(float64(over), n), "fraction")
	rep.show("sampled_ipc_err_pct", errPct, "%")
	rep.show("ci95_coverage", cov, "fraction")
	rep.show("ci95_halfwidth_pct", halfPct, "%")
	rep.note("sampled IPC error: mean %.4g %%, max %.4g %%; %d of %d cells beyond %g %%",
		errPct, 100*maxOf(c.relErr), over, len(c.relErr), 100*sampledTolerance)
}

func (k paperKind) check(s sweepOut, g *golden) check {
	if k.sampled {
		return checkSampled(s, g)
	}
	var c check
	got := seriesDigests(s.results)
	for key, want := range g.PaperFull {
		c.pass(got[key] == want)
	}
	for key := range got {
		if _, ok := g.PaperFull[key]; !ok {
			c.pass(false)
		}
	}
	return c
}

// seriesDigests hashes every series of every result, keyed "ID/label".
func seriesDigests(results []*experiments.Result) map[string]string {
	out := map[string]string{}
	for _, res := range results {
		for _, s := range res.Series {
			parts := []string{res.ID, s.Label}
			for _, v := range s.Values {
				parts = append(parts, fmt.Sprintf("%016x", math.Float64bits(v)))
			}
			out[res.ID+"/"+s.Label] = digest(parts...)
		}
	}
	return out
}

// refKey names a request's full-detail reference in golden.json.
func refKey(req experiments.Request) string {
	req.Sample = nil
	return digest(req.Key())
}

// paperResults is how many results Runner.All returns.
const paperResults = 13

// checkSampled checks that every request of the sampled sweep ran
// sampled and returned a usable IPC with a committed full-detail
// reference at the same budget (those requests are a superset of the
// Table 2 and Figure 16 cells), and that the sweep returned every
// result. It records each cell's error against the reference.
func checkSampled(s sweepOut, g *golden) check {
	var c check
	for _, r := range s.recs {
		ref, ok := g.SampledRef[refKey(r.req)]
		ipc := r.st.IPC()
		m := r.st.Sampled
		ok = ok && ref > 0 && m != nil && ipc > 0 && !math.IsInf(ipc, 0)
		c.pass(ok)
		if !ok {
			continue
		}
		c.relErr = append(c.relErr, math.Abs(ipc-ref)/ref)
		c.halfWidth = append(c.halfWidth, m.IPCErr95/ipc)
		if math.Abs(ipc-ref) <= m.IPCErr95 {
			c.covered++
		}
	}
	c.pass(len(s.results) == paperResults)
	return c
}

// queueObserver sums RunQueued and RunStarted times (relative to its
// base) so total queue wait is Σstarted − Σqueued without matching
// events, whose config labels are not unique.
type queueObserver struct {
	base            time.Time
	queued, started atomic.Int64
}

func (o *queueObserver) RunQueued(bench, config string, insts uint64) {
	o.queued.Add(int64(time.Since(o.base)))
}

func (o *queueObserver) RunStarted(bench, config string, insts uint64) {
	o.started.Add(int64(time.Since(o.base)))
}

func (o *queueObserver) RunFinished(bench, config string, insts uint64) {}

func paperRun(k paperKind) func(runConfig) (*report, error) {
	return func(cfg runConfig) (*report, error) {
		g, err := loadGolden()
		if err != nil {
			return nil, err
		}
		rep := newReport()
		var c check
		// Every metric is the median over the run's sweeps of that sweep's
		// figure, so one sweep slowed by the host does not move it.
		var walls, cpus, rss, p50, p90, rates []float64
		var last sweepOut
		rssSamples := startRSS()
		start := time.Now()
		for {
			last = runSweep(k, nil)
			c.add(k.check(last, g))
			walls = append(walls, last.wall)
			cpus = append(cpus, last.cpu)
			rss = append(rss, rssSamples.peak(last.start, last.end))
			rates = append(rates, float64(len(last.recs))/last.wall)
			lat := make([]float64, len(last.recs))
			for i, r := range last.recs {
				lat[i] = ms(r.end.Sub(r.start))
			}
			p50 = append(p50, quantile(lat, 0.5))
			p90 = append(p90, quantile(lat, 0.9))
			// A traced run times one untraced sweep as the overhead base.
			if cfg.trace || time.Since(start).Seconds()+last.wall > cfg.seconds {
				break
			}
		}
		rssSamples.close()
		rep.set("sweep_s", median(walls), "s")
		rep.set("cpu_s", median(cpus), "s")
		rep.set("peak_rss_mb", median(rss), "MB")
		rep.show("job_p50_ms", median(p50), "ms")
		rep.show("job_p90_ms", median(p90), "ms")
		rep.set("goodput_jobs_s", median(rates), "jobs/s")
		rep.note("sweeps %d of %d requests each; wall s %.4g", len(walls), len(last.recs), walls)
		memo := ratio(float64(last.runner.Hits()), float64(requests(last.runner)))
		plans := planRepeatFrac(distinctRequests(last.recs))
		rep.note("workload properties: memo duplicates %.3f, plan-input repeats %.3f, CDN repeats 0, in-flight duplicates 0",
			memo, plans)
		rep.layer("workload.memo_dup_frac", memo, "fraction")
		rep.layer("workload.plan_repeat_frac", plans, "fraction")

		if cfg.trace {
			if err := paperTrace(k, cfg, rep, &c, median(walls)); err != nil {
				return nil, err
			}
		}
		c.setFailures(rep)
		if k.sampled {
			c.setAccuracy(rep)
		}
		return rep, nil
	}
}

// requests counts the requests a sweep's Runner received.
func requests(r *experiments.Runner) uint64 { return r.Sims() + r.Hits() + r.StoreHits() }

// paperTrace runs one traced sweep, then the layer replays.
func paperTrace(k paperKind, cfg runConfig, rep *report, c *check, untracedWall float64) error {
	obs := &queueObserver{base: time.Now()}
	gc0 := readGC()
	s := runSweep(k, obs)
	rep.layer("go.gc_cpu_frac", gcFrac(gc0), "fraction")
	g, err := loadGolden()
	if err != nil {
		return err
	}
	c.add(k.check(s, g))
	exec := execSeconds(s.recs)
	rep.layer("experiments.requests", float64(requests(s.runner)), "count")
	rep.layer("experiments.memo_hit_frac", ratio(float64(s.runner.Hits()), float64(requests(s.runner))), "fraction")
	rep.layer("experiments.queue_wait_s", float64(obs.started.Load()-obs.queued.Load())/1e9, "s")
	rep.layer("experiments.exec_s", exec, "s")
	rep.layer("experiments.busy_frac", ratio(exec, s.wall*float64(runtime.NumCPU())), "fraction")
	rep.layer("bench.trace_overhead_frac", ratio(s.wall, untracedWall)-1, "fraction")
	return setLayerMetrics(rep, s.recs)
}

// paperDet runs one sweep and returns its deterministic counts and a
// digest of the requests and sample plans it ran.
func paperDet(k paperKind) func(runConfig) (map[string]float64, string, error) {
	return func(cfg runConfig) (map[string]float64, string, error) {
		s := runSweep(k, nil)
		counts := map[string]float64{
			"experiments.sims":      float64(s.runner.Sims()),
			"experiments.memo_hits": float64(s.runner.Hits()),
		}
		var cycles, detailed, ff, phases uint64
		var plans []string
		for _, r := range s.recs {
			if m := r.st.Sampled; m != nil {
				detailed += m.DetailedInsts
				ff += m.FFInsts
				phases += uint64(m.Phases)
				p := r.req.Key()
				for _, w := range m.PerWindow {
					cycles += w.Cycles
					p += fmt.Sprintf(";%d", w.Start)
				}
				plans = append(plans, p)
			} else {
				cycles += r.st.Cycles
				detailed += r.st.Committed + r.st.WarmupDiscarded
				plans = append(plans, r.req.Key())
			}
		}
		counts["uarch.sim_cycles"] = float64(cycles)
		counts["uarch.detailed_insts"] = float64(detailed)
		counts["uarch.ff_insts"] = float64(ff)
		counts["sample.phases"] = float64(phases)
		sort.Strings(plans)
		return counts, digest(plans...), nil
	}
}

func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
