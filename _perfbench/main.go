// Command perfbench is the repository's benchmark: it runs one named
// workload through the half-price reproduction, checks every output
// against committed golden values, and prints the end-to-end metrics
// (-trace 0) or the per-layer metrics (-trace 1). The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": n, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}}}
//
// Lines before it are a human-readable report. Run it through run.sh,
// which builds it from the checkout's sources:
//
//	bash _perfbench/run.sh --workload paper-full --seed 1 --seconds 30 --trace 0
//
// Other modes: -selfcheck runs a workload twice at one seed (serve-mixed
// once more at the next) and compares the deterministic counts;
// -generate recomputes golden.json, the committed outputs every run is
// checked against.
// README.md in this directory documents the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	workdir string // scratch root inside the checkout
}

// report accumulates one run's measurements.
type report struct {
	attempted, failed int
	e2e               map[string]metric
	layers            map[string]metric
	// shown holds end-to-end figures that apply to only some workloads
	// or can read 0, so they are printed in the report but kept out of
	// the result line (see README.md).
	shown map[string]metric
	notes []string // human-readable lines printed before the result
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, layers: map[string]metric{}, shown: map[string]metric{}}
}

func (r *report) set(name string, v float64, unit string)   { r.e2e[name] = metric{v, unit} }
func (r *report) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }
func (r *report) show(name string, v float64, unit string)  { r.shown[name] = metric{v, unit} }
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workload is one named input set.
type workload struct {
	name   string
	seeded bool // its inputs depend on the run seed
	// setup performs the workload's set-up, up to the point where its
	// first request could be issued, and returns a teardown.
	setup func(cfg runConfig) (teardown func(), err error)
	run   func(cfg runConfig) (*report, error)
	// det runs the timed phase once and returns its deterministic counts
	// and a digest of its inputs (-selfcheck).
	det func(cfg runConfig) (counts map[string]float64, inputs string, err error)
}

var workloads = []workload{
	{name: "paper-full", setup: paperSetup(paperFull), run: paperRun(paperFull), det: paperDet(paperFull)},
	{name: "paper-sampled", setup: paperSetup(paperSampled), run: paperRun(paperSampled), det: paperDet(paperSampled)},
	{name: "serve-mixed", seeded: true, setup: serveSetup, run: serveRun, det: serveDet},
}

// endToEnd lists the metrics a -trace 0 run prints, on every workload.
var endToEnd = []string{"setup_s", "sweep_s", "cpu_s", "peak_rss_mb", "ok_frac", "goodput_jobs_s"}

// perLayer lists the metrics a -trace 1 run prints, with their units. A
// layer the workload does not exercise reports 0.
var perLayer = [][2]string{
	{"trace.gen_s", "s"}, {"trace.ns_per_inst", "ns"},
	{"uarch.detailed_s", "s"}, {"uarch.ns_per_cycle", "ns"},
	{"uarch.allocs_per_kinst", "count"}, {"uarch.bytes_per_kinst", "B"},
	{"uarch.sim_cycles", "count"}, {"uarch.detailed_insts", "count"},
	{"uarch.profile_s", "s"}, {"uarch.sampled_run_s", "s"},
	{"uarch.ff_insts", "count"}, {"uarch.window_insts", "count"},
	{"sample.plan_s", "s"}, {"sample.intervals", "count"}, {"sample.phases", "count"},
	{"sample.plan_reuse_frac", "fraction"},
	{"sample.ipc_err_pct", "%"}, {"sample.ci95_halfwidth_pct", "%"}, {"sample.ci95_coverage", "fraction"},
	{"sample.err_over_tol_frac", "fraction"},
	{"experiments.requests", "count"}, {"experiments.memo_hit_frac", "fraction"},
	{"experiments.queue_wait_s", "s"}, {"experiments.exec_s", "s"}, {"experiments.busy_frac", "fraction"},
	{"store.hits", "count"}, {"store.misses", "count"}, {"store.writes", "count"}, {"store.fs_ms", "ms"},
	{"serve.submit_ms_p50", "ms"}, {"serve.submit_ms_p90", "ms"},
	{"serve.queue_ms_p50", "ms"}, {"serve.queue_ms_p90", "ms"}, {"serve.journal_fs_ms", "ms"},
	{"serve.cdn_hit_frac", "fraction"}, {"serve.dispatched", "count"}, {"serve.refused", "count"},
	{"serve.shed", "count"}, {"serve.deadline_exceeded", "count"},
	{"dist.rpc_ms_p50", "ms"}, {"dist.worker_wait_ms_p50", "ms"}, {"dist.worker_sim_ms_p50", "ms"},
	{"dist.hedges_launched", "count"}, {"dist.hedges_won", "count"}, {"dist.useful_sim_frac", "fraction"},
	{"loadgen.job_p50_ms", "ms"}, {"loadgen.job_p90_ms", "ms"},
	{"loadgen.lag_p90_ms", "ms"}, {"loadgen.poll_ms", "ms"},
	{"go.gc_cpu_frac", "fraction"},
	{"bench.trace_overhead_frac", "fraction"}, {"bench.unattributed_frac", "fraction"}, {"bench.failed_frac", "fraction"},
	{"workload.memo_dup_frac", "fraction"}, {"workload.plan_repeat_frac", "fraction"},
	{"workload.cdn_repeat_frac", "fraction"}, {"workload.inflight_dup_frac", "fraction"},
}

// setupProbes is how many fresh processes measure setup_s; the median
// is reported, because one process start alone varies by milliseconds.
const setupProbes = 21

func main() {
	name := flag.String("workload", "", "workload name: paper-full, paper-sampled or serve-mixed")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "length of the timed phase in seconds")
	traceFlag := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run; 0 the end-to-end metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for scratch state (inside the checkout)")
	probe := flag.Int64("setup-probe", 0, "internal: run the workload's set-up in this process, timed from this unix-nanosecond start")
	selfcheck := flag.Bool("selfcheck", false, "check that the workload's deterministic counts repeat at one seed and its inputs change with the seed")
	generate := flag.Bool("generate", false, "recompute golden.json into the directory given by -golden-out")
	goldenOut := flag.String("golden-out", "_perfbench/golden.json", "where -generate writes")
	flag.Parse()

	if *generate {
		if err := generateGolden(*goldenOut); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	dir, err := filepath.Abs(filepath.Join(*workdir, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())))
	if err != nil {
		fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, workdir: dir}

	switch {
	case *probe != 0:
		err = runProbe(w, cfg, time.Unix(0, *probe))
	case *selfcheck:
		err = runSelfcheck(w, cfg)
	default:
		err = runWorkload(w, cfg, *workdir)
	}
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runProbe is the child side of a setup_s measurement: set up, print the
// time since the parent started this process, tear down.
func runProbe(w *workload, cfg runConfig, start time.Time) error {
	teardown, err := w.setup(cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	teardown()
	fmt.Println(strconv.FormatFloat(elapsed, 'g', -1, 64))
	return nil
}

// measureSetup starts setupProbes fresh processes of this binary, each
// setting the workload up once, and returns the median set-up time.
func measureSetup(w *workload, workdir string) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupProbes; i++ {
		start := time.Now()
		out, err := runChild(self, "-workload", w.name, "-workdir", workdir,
			"-setup-probe", strconv.FormatInt(start.UnixNano(), 10))
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(out, 64)
		if err != nil {
			return 0, fmt.Errorf("setup probe printed %q: %w", out, err)
		}
		times = append(times, v)
	}
	return median(times), nil
}

func runWorkload(w *workload, cfg runConfig, workdir string) error {
	setup, err := measureSetup(w, workdir)
	if err != nil {
		return err
	}
	rep, err := w.run(cfg)
	if err != nil {
		return err
	}
	rep.set("setup_s", setup, "s")
	for _, n := range endToEnd {
		if _, ok := rep.e2e[n]; !ok {
			return fmt.Errorf("workload %s did not measure %s", w.name, n)
		}
	}
	if cfg.trace {
		for _, m := range perLayer {
			if _, ok := rep.layers[m[0]]; !ok {
				rep.layer(m[0], 0, m[1])
			}
		}
	}
	res := result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.e2e,
	}
	if cfg.trace {
		res.Metrics = rep.layers
	}
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", w.name, cfg.seed, cfg.seconds, cfg.trace)
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	printMetrics(res.Metrics)
	if !cfg.trace {
		fmt.Println("reported only here:")
		printMetrics(rep.shown)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runSelfcheck runs the timed phase twice at the seed, and for a seeded
// workload once more at the next seed. The deterministic counts and the
// input digest must repeat exactly at one seed; for a seeded workload
// the input digest must change with the seed.
func runSelfcheck(w *workload, cfg runConfig) error {
	a, inA, err := w.det(cfg)
	if err != nil {
		return err
	}
	b, inB, err := w.det(cfg)
	if err != nil {
		return err
	}
	ok := true
	names := make([]string, 0, len(a))
	for n := range a {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		same := a[n] == b[n]
		ok = ok && same
		fmt.Printf("  %-28s %16.0f %16.0f  %s\n", n, a[n], b[n], verdict(same))
	}
	fmt.Printf("  %-28s %s\n", "inputs repeat at one seed", verdict(inA == inB))
	ok = ok && inA == inB
	if w.seeded {
		next := cfg
		next.seed++
		_, inC, err := w.det(next)
		if err != nil {
			return err
		}
		fmt.Printf("  %-28s %s\n", "inputs change with the seed", verdict(inA != inC))
		ok = ok && inA != inC
	}
	if !ok {
		return fmt.Errorf("selfcheck failed for %s", w.name)
	}
	fmt.Printf("selfcheck %s: ok\n", w.name)
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}
