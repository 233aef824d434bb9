package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"halfprice/internal/benchfmt"
	"halfprice/internal/dist"
	"halfprice/internal/experiments"
	"halfprice/internal/serve"
	"halfprice/internal/store"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
)

// serve-mixed drives hpserve's engine (serve.New behind a loopback
// listener) dispatching through a hedging dist.Coordinator to two
// loopback sweepd workers (dist.NewServer, Parallel 1 each). Two tenants
// submit open-loop at seeded Poisson arrivals.
const (
	// serveRate is the mean arrival rate in jobs per second. Fresh jobs
	// (about 35k instructions) then keep the two workers busy about a
	// third of the time and the whole box, service included, under half
	// busy. Near saturation (12 jobs/s of 90k-instruction jobs) p90
	// swings by a factor of two between runs.
	serveRate = 16.0
	// inflightShare and cdnShare are the planned shares of jobs that
	// repeat a configuration still in flight and one already finished;
	// the rest are fresh. With about a quarter of jobs served at submit,
	// both reported percentiles fall among dispatched jobs, away from the
	// boundary between hits and misses.
	inflightShare = 0.15
	cdnShare      = 0.20
	// cdnMinAge is how long before a CDN repeat its configuration was
	// first due, so that it has finished.
	cdnMinAge = 2 * time.Second
	// pollInterval is the per-job completion poll period; completion
	// times come from the server's own stamps, so it bounds only how
	// soon the generator notices.
	pollInterval = 10 * time.Millisecond
	// latencyLimit is the goodput limit, several times the p90 (about
	// 100 ms on a 2-core VM).
	latencyLimit = 1000 * time.Millisecond
	// serveWarmup is load played before the timed phase, so that it
	// starts with a warmed process, a result CDN holding finished
	// configurations and a hedge-delay estimate: a daemon's users do not
	// pay its start-up on every job. Warm-up jobs are checked but not
	// timed.
	serveWarmup = 5 * time.Second
	// serveWindows is how many equal parts of the timed phase the peak
	// resident set is taken over; the median part's peak is reported,
	// since one peak depends on where garbage collections fall.
	serveWindows = 3
	// jobTimeout is how long after its due time a job may take before it
	// counts as failed.
	jobTimeout  = 60 * time.Second
	workerToken = "perfbench-worker"
)

var tenantTokens = []string{"perfbench-alice", "perfbench-bob"}

// menuEntry is one job configuration the generator can submit.
type menuEntry struct {
	bench  string
	width  int
	scheme string
	insts  uint64
}

func (m menuEntry) key() string {
	return fmt.Sprintf("%s/%dw/%s/%d", m.bench, m.width, m.scheme, m.insts)
}

// request resolves the entry the way hpserve's submit path does.
func (m menuEntry) request() (experiments.Request, error) {
	cfg, err := benchfmt.SchemeConfig(m.width, m.scheme)
	return experiments.Request{Bench: m.bench, Config: cfg, Budget: m.insts}, err
}

// menuBudgets differ only enough to make the menu's configurations
// distinct, so a job's service time depends on its profile and scheme.
var menuBudgets = []uint64{30_000, 33_000, 36_000, 39_000}

// serveMenu lists every configuration, one round per budget: each round
// is 12 profiles × 2 widths × the service's schemes.
func serveMenu() []menuEntry {
	var out []menuEntry
	for _, n := range menuBudgets {
		for _, b := range trace.BenchmarkNames {
			for _, w := range []int{4, 8} {
				for _, s := range benchfmt.Schemes() {
					out = append(out, menuEntry{b, w, s, n})
				}
			}
		}
	}
	return out
}

// plannedJob is one scheduled submission.
type plannedJob struct {
	due    time.Duration
	tenant int
	entry  menuEntry
	repeat bool // repeats an earlier job's configuration
}

// serveSchedule draws the run's jobs from the seed: arrival times of a
// Poisson process conditioned on its count in the warm-up and in the
// timed phase (sorted uniforms over each, so every schedule has the
// same number of jobs in each), a tenant each, and a mix of
// fresh configurations — never repeated within a run — and repeats of
// the latest fresh one (likely in flight) or of one at least cdnMinAge
// older (finished, served by the result CDN). Fresh configurations take
// the menu a round at a time, each round in a seeded order, so every
// seed's fresh jobs cover nearly the same profiles and schemes and the
// seed decides their order.
func serveSchedule(seed int64, seconds float64) []plannedJob {
	rng := rand.New(rand.NewSource(seed))
	warm := serveWarmup.Seconds()
	var at []float64
	for _, part := range [][2]float64{{0, warm}, {warm, warm + seconds}} {
		for i := int(serveRate*(part[1]-part[0]) + 0.5); i > 0; i-- {
			at = append(at, part[0]+rng.Float64()*(part[1]-part[0]))
		}
	}
	sort.Float64s(at)
	menu := serveMenu()
	round := len(menu) / len(menuBudgets)
	for r := 0; r < len(menu); r += round {
		part := menu[r : r+round]
		rng.Shuffle(len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
	}
	var fresh []plannedJob
	jobs := make([]plannedJob, len(at))
	for i, t := range at {
		j := plannedJob{due: time.Duration(t * float64(time.Second)), tenant: rng.Intn(len(tenantTokens))}
		old := sort.Search(len(fresh), func(k int) bool { return fresh[k].due > j.due-cdnMinAge })
		u := rng.Float64()
		switch {
		case u < inflightShare && len(fresh) > 0:
			j.entry, j.repeat = fresh[len(fresh)-1].entry, true
		case u < inflightShare+cdnShare && old > 0:
			j.entry, j.repeat = fresh[rng.Intn(old)].entry, true
		case len(fresh) < len(menu):
			j.entry = menu[len(fresh)]
			fresh = append(fresh, j)
		default: // menu exhausted (very long runs): repeat a finished one
			j.entry, j.repeat = fresh[rng.Intn(len(fresh))].entry, true
		}
		jobs[i] = j
	}
	return jobs
}

func scheduleDigest(jobs []plannedJob) string {
	parts := make([]string, len(jobs))
	for i, j := range jobs {
		parts[i] = fmt.Sprintf("%d/%d/%s", j.due, j.tenant, j.entry.key())
	}
	return digest(parts...)
}

// httpProc is one loopback HTTP server.
type httpProc struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*httpProc, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &httpProc{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		p.srv.Serve(ln)
	}()
	return p, nil
}

func (p *httpProc) close() {
	p.srv.Close()
	<-p.done
}

// fleet is one in-process hpserve with its sweepd workers.
type fleet struct {
	workers    []*dist.Server
	workerHTTP []*httpProc
	coord      *dist.Coordinator
	store      *store.Store
	serve      *serve.Server
	http       *httpProc
	backend    *recordingBackend
}

func discard(string, ...any) {}

// startFleet brings the service up in dir with fresh state. tr, when
// non-nil, wraps the seams the traced run times.
func startFleet(dir string, tr *serveTrace) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < 2; i++ {
		opts := dist.ServerOptions{Parallel: 1, Token: workerToken}
		if tr != nil {
			opts.PreRun = tr.preRun(i)
		}
		w := dist.NewServer(opts)
		var h http.Handler = w.Handler()
		if tr != nil {
			h = tr.wrapWorker(i, h)
		}
		p, err := listen(h)
		if err != nil {
			f.close()
			return nil, err
		}
		f.workers = append(f.workers, w)
		f.workerHTTP = append(f.workerHTTP, p)
		addrs = append(addrs, p.addr)
	}
	// hpserve's defaults: hedging on, adaptive hedge delay.
	f.coord = dist.NewCoordinator(addrs, dist.Options{Token: workerToken, Hedge: true, Logf: discard})
	sopts := store.Options{Logf: discard}
	if tr != nil {
		sopts.FS = tr.storeFS
	}
	st, err := store.Open(filepath.Join(dir, "store"), sopts)
	if err != nil {
		f.close()
		return nil, err
	}
	f.store = st
	f.backend = &recordingBackend{inner: f.coord}
	tenants := map[string]string{}
	for i, tok := range tenantTokens {
		tenants[tok] = fmt.Sprintf("tenant%d", i)
	}
	opts := serve.Options{Dir: filepath.Join(dir, "state"), Backend: f.backend, Store: st,
		Tenants: tenants, FleetStats: f.coord.FleetLoad, Logf: discard}
	if tr != nil {
		opts.FS = tr.journalFS
	}
	s, err := serve.New(opts)
	if err != nil {
		f.close()
		return nil, err
	}
	f.serve = s
	var h http.Handler = s.Handler()
	if tr != nil {
		h = tr.wrapServe(h)
	}
	if f.http, err = listen(h); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// close stops everything startFleet started, front to back.
func (f *fleet) close() {
	if f.http != nil {
		f.http.close()
	}
	if f.serve != nil {
		f.serve.Close()
	}
	if f.coord != nil {
		f.coord.Close()
	}
	for _, p := range f.workerHTTP {
		p.close()
	}
}

func serveSetup(cfg runConfig) (func(), error) {
	dir := filepath.Join(cfg.workdir, "probe")
	f, err := startFleet(dir, nil)
	if err != nil {
		return nil, err
	}
	return func() { f.close(); os.RemoveAll(dir) }, nil
}

// jobOutcome is what the generator saw of one job.
type jobOutcome struct {
	due                 time.Time
	status              int     // submit HTTP status
	submitted, finished float64 // server stamps, unix seconds
	atSubmit            bool    // done in the submit response (CDN hit)
	cycles              uint64
	digest              string
	err                 error
}

func (o jobOutcome) latency() time.Duration {
	return time.Duration((o.finished - unixSeconds(o.due)) * float64(time.Second))
}

func unixSeconds(t time.Time) float64 { return float64(t.UnixNano()) / 1e9 }

// batch is one timed load phase.
type batch struct {
	jobs     []plannedJob
	outcomes []jobOutcome
	t0       time.Time     // due time 0
	span     time.Duration // length of the timed phase, after serveWarmup
	wall     float64       // timed phase start to last completion
	rss      []float64     // peak resident set of each window, MB
	cpu      float64
	stats    serve.StatsView
	hedges   [2]uint64
	sims     uint64 // worker simulations started
	store    [3]uint64
	recs     []execRecord
}

// runBatch starts a fresh fleet in dir, plays the schedule, whose timed
// phase lasts span, against it and tears it down.
func runBatch(dir string, jobs []plannedJob, span time.Duration, tr *serveTrace) (*batch, error) {
	f, err := startFleet(dir, tr)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	defer f.close()
	n := runtime.NumCPU()
	tp := &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	base := "http://" + f.http.addr

	b := &batch{jobs: jobs, outcomes: make([]jobOutcome, len(jobs)), span: span}
	rssSamples := startRSS()
	defer rssSamples.close()
	b.t0 = time.Now().Add(20 * time.Millisecond)
	timed := b.t0.Add(serveWarmup)
	var cpu0 float64
	var gc0 gcSample
	warmed := make(chan struct{})
	time.AfterFunc(time.Until(timed), func() {
		cpu0, gc0 = cpuSeconds(), readGC()
		close(warmed)
	})
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b.outcomes[i] = playJob(client, base, jobs[i], b.t0.Add(jobs[i].due), tr)
		}(i)
	}
	wg.Wait()
	<-warmed
	b.cpu = cpuSeconds() - cpu0
	end := time.Now()
	for k := 0; k < serveWindows; k++ {
		from := timed.Add(span * time.Duration(k) / serveWindows)
		to := timed.Add(span * time.Duration(k+1) / serveWindows)
		if k == serveWindows-1 {
			to = end
		}
		b.rss = append(b.rss, rssSamples.peak(from, to))
	}
	if tr != nil {
		tr.gcFrac = gcFrac(gc0)
	}
	last := unixSeconds(timed)
	for _, o := range b.outcomes {
		last = math.Max(last, o.finished)
	}
	b.wall = last - unixSeconds(timed)
	b.stats = f.serve.Stats()
	b.hedges[0], b.hedges[1] = f.coord.HedgeStats()
	for _, w := range f.workers {
		b.sims += w.Health().Sims
	}
	b.store = [3]uint64{f.store.Hits(), f.store.Misses(), f.store.Writes()}
	b.recs = f.backend.records()
	return b, nil
}

// playJob submits one job at its due time, polls it to a terminal state
// and fetches its result.
func playJob(c *http.Client, base string, j plannedJob, due time.Time, tr *serveTrace) jobOutcome {
	o := jobOutcome{due: due}
	time.Sleep(time.Until(due))
	tok := tenantTokens[j.tenant]
	body, _ := json.Marshal(serve.SubmitRequest{Bench: j.entry.bench, Width: j.entry.width, Scheme: j.entry.scheme, Insts: j.entry.insts})
	var v serve.View
	o.status, o.err = call(c, tok, http.MethodPost, base+"/v1/jobs", body, &v)
	if o.err != nil {
		return o
	}
	o.submitted = v.Submitted
	o.atSubmit = v.State == serve.StateDone
	if tr != nil && v.State == serve.StateQueued {
		if req, err := j.entry.request(); err == nil {
			tr.accept(req.Key(), v.Submitted)
		}
	}
	for v.State == serve.StateQueued || v.State == serve.StateRunning {
		if time.Since(due) > jobTimeout {
			o.err = fmt.Errorf("job %s not done %s after its due time", v.ID, jobTimeout)
			return o
		}
		time.Sleep(pollInterval)
		if _, o.err = call(c, tok, http.MethodGet, base+"/v1/jobs/"+v.ID, nil, &v); o.err != nil {
			return o
		}
	}
	o.finished = v.Submitted + v.Elapsed
	if v.State != serve.StateDone {
		o.err = fmt.Errorf("job %s ended %s: %s", v.ID, v.State, v.Error)
		return o
	}
	var st uarch.Stats
	if _, o.err = call(c, tok, http.MethodGet, base+"/v1/jobs/"+v.ID+"/result", nil, &st); o.err != nil {
		return o
	}
	o.cycles = st.Cycles
	o.digest, o.err = statsDigest(&st)
	return o
}

// call makes one API request and decodes a 2xx JSON body into out.
func call(c *http.Client, token, method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Authorization", "Bearer "+token)
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// statsDigest hashes a result's canonical JSON encoding.
func statsDigest(st *uarch.Stats) (string, error) {
	data, err := json.Marshal(st)
	if err != nil {
		return "", err
	}
	return digest(string(data)), nil
}

// serveCheck scores a batch: failures (refused, failed, timed out or a
// result differing from golden.json) and latency.
type serveCheck struct {
	check                  // one cell per job
	refused, withinLimit   int
	lat                    []float64 // ms, completed timed-phase jobs
	cdn, inflight, repeats int
}

func checkBatch(b *batch, g *golden) serveCheck {
	var c serveCheck
	for i, o := range b.outcomes {
		if b.jobs[i].repeat {
			c.repeats++
			if o.atSubmit {
				c.cdn++
			} else {
				c.inflight++
			}
		}
		if o.status == http.StatusTooManyRequests {
			c.refused++
		}
		ok := o.err == nil && o.digest == g.ServeMenu[b.jobs[i].entry.key()]
		c.pass(ok)
		if !ok {
			continue
		}
		if b.jobs[i].due < serveWarmup {
			continue
		}
		l := o.latency()
		c.lat = append(c.lat, ms(l))
		if l <= latencyLimit {
			c.withinLimit++
		}
	}
	return c
}

func batchDir(cfg runConfig, name string) string { return filepath.Join(cfg.workdir, name) }

func span(cfg runConfig) time.Duration { return time.Duration(cfg.seconds * float64(time.Second)) }

func serveRun(cfg runConfig) (*report, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	jobs := serveSchedule(cfg.seed, cfg.seconds)
	b, err := runBatch(batchDir(cfg, "batch"), jobs, span(cfg), nil)
	if err != nil {
		return nil, err
	}
	c := checkBatch(b, g)
	rep := newReport()
	rep.set("sweep_s", b.wall, "s")
	rep.set("cpu_s", b.cpu, "s")
	rep.set("peak_rss_mb", median(b.rss), "MB")
	p50, p90 := quantile(c.lat, 0.5), quantile(c.lat, 0.9)
	rep.show("job_p50_ms", p50, "ms")
	rep.show("job_p90_ms", p90, "ms")
	rep.layer("loadgen.job_p50_ms", p50, "ms")
	rep.layer("loadgen.job_p90_ms", p90, "ms")
	rep.note("latency over %d completed timed jobs; peak RSS MB by %s window %.4g", len(c.lat), span(cfg)/serveWindows, b.rss)
	rep.set("goodput_jobs_s", float64(c.withinLimit)/b.wall, "jobs/s")
	for _, o := range b.outcomes {
		if o.err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: serve-mixed:", o.err)
		}
	}
	n := float64(c.cells)
	rep.note("jobs %d over %s warm-up + %gs at %g jobs/s (open loop, %d connections, poll every %s); %d failed, %d refused",
		c.cells, serveWarmup, cfg.seconds, serveRate, runtime.NumCPU(), pollInterval, c.failed, c.refused)
	all := c.check
	if cfg.trace {
		tc, err := serveTraced(cfg, jobs, b, rep, g)
		if err != nil {
			return nil, err
		}
		all.add(tc.check)
	}
	all.setFailures(rep)
	rep.note("workload properties: memo duplicates %.3f, plan-input repeats 0, CDN repeats %.3f, in-flight duplicates %.3f",
		float64(c.repeats)/n, float64(c.cdn)/n, float64(c.inflight)/n)
	rep.layer("workload.memo_dup_frac", float64(c.repeats)/n, "fraction")
	rep.layer("workload.cdn_repeat_frac", float64(c.cdn)/n, "fraction")
	rep.layer("workload.inflight_dup_frac", float64(c.inflight)/n, "fraction")
	return rep, nil
}

// serveDet plays one batch and returns its deterministic counts and the
// schedule digest.
func serveDet(cfg runConfig) (map[string]float64, string, error) {
	jobs := serveSchedule(cfg.seed, cfg.seconds)
	b, err := runBatch(batchDir(cfg, "det"), jobs, span(cfg), nil)
	if err != nil {
		return nil, "", err
	}
	var cycles uint64
	done := 0
	for _, o := range b.outcomes {
		if o.err == nil {
			done++
			cycles += o.cycles
		}
	}
	return map[string]float64{
		"serve.jobs_done":  float64(done),
		"serve.dispatched": float64(b.stats.Dispatched),
		"store.writes":     float64(b.store[2]),
		"uarch.sim_cycles": float64(cycles),
	}, scheduleDigest(jobs), nil
}
