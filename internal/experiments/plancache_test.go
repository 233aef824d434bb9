package experiments

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"halfprice/internal/sample"
	"halfprice/internal/uarch"
)

// planTestInsts is big enough for a DefaultSpec plan (20 intervals of
// 2000 instructions) and small enough for -race -count=10.
const planTestInsts = 40000

// planSchemes are pipeline-only mutations: none reaches the profile.
var planSchemes = []func(*uarch.Config){
	nil,
	func(c *uarch.Config) { c.Wakeup = uarch.WakeupSequential },
	func(c *uarch.Config) { c.Regfile = uarch.RFSequential },
	func(c *uarch.Config) { c.Recovery = uarch.RecoverySelective },
}

// A sampled sweep through one Runner returns exactly the Stats of
// uncached per-request Execute calls, and builds one plan per distinct
// plan key: every width and scheme of a benchmark shares one profiling
// pass and one clustering. The Run calls all start at once, so many
// goroutines wait on each key's single build.
func TestPlanCacheSweepMatchesExecute(t *testing.T) {
	spec := sample.DefaultSpec()
	benches := []string{"mcf", "gzip"}
	r := NewRunner(Options{Insts: planTestInsts, Benchmarks: benches, Sample: &spec, Parallel: 4})

	type run struct {
		req    Request
		mutate func(*uarch.Config)
		st     *uarch.Stats
	}
	var runs []*run
	keys := map[planKey]bool{}
	for _, b := range benches {
		for _, w := range []int{4, 8} {
			for _, m := range planSchemes {
				req := Request{Bench: b, Config: config(w, m), Budget: planTestInsts, Sample: &spec}
				runs = append(runs, &run{req: req, mutate: m})
				keys[planKeyOf(req)] = true
			}
		}
	}
	var wg sync.WaitGroup
	for _, rn := range runs {
		wg.Add(1)
		go func(rn *run) {
			defer wg.Done()
			rn.st = r.Run(rn.req.Bench, rn.req.Config.Width, rn.mutate)
		}(rn)
	}
	wg.Wait()

	for _, rn := range runs {
		want, err := Execute(rn.req)
		if err != nil {
			t.Fatal(err)
		}
		if rn.st.Sampled == nil {
			t.Fatalf("%s %s: not sampled; the budget is too small for the test", rn.req.Bench, rn.req.Label())
		}
		if !reflect.DeepEqual(rn.st, want) {
			t.Errorf("%s %s: cached sweep Stats differ from uncached Execute", rn.req.Bench, rn.req.Label())
		}
	}
	if got := r.plans.builds.Load(); got != uint64(len(keys)) {
		t.Errorf("built %d plans for %d distinct plan keys", got, len(keys))
	}
	if len(r.plans.m) != len(keys) {
		t.Errorf("cache holds %d entries for %d distinct plan keys", len(r.plans.m), len(keys))
	}
	if len(keys) != len(benches) {
		t.Errorf("%d plan keys for %d benchmarks: width or scheme leaked into the key", len(keys), len(benches))
	}
}

// A panic in the plan build reaches the builder and every waiter with
// the same value, and the entry it leaves keeps re-raising it: it never
// reads as ok == false, which would silently turn sampled requests into
// full-detail runs.
func TestPlanCachePanicReachesEveryCaller(t *testing.T) {
	spec := sample.DefaultSpec()
	c := NewRunner(Options{}).plans
	key := planKeyOf(Request{Bench: "mcf", Config: uarch.Config4Wide(), Budget: planTestInsts, Sample: &spec})
	boom := &struct{ msg string }{"plan build failed"}

	const callers = 16
	var (
		calls   atomic.Int32
		arrived sync.WaitGroup
		done    sync.WaitGroup
		got     [callers]any
	)
	started, release := make(chan struct{}), make(chan struct{})
	build := func() samplePlan {
		calls.Add(1)
		close(started)
		<-release
		panic(boom)
	}
	arrived.Add(callers)
	done.Add(callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			defer done.Done()
			defer func() { got[i] = recover() }()
			arrived.Done()
			c.get(key, build)
		}(i)
	}
	arrived.Wait()
	<-started
	close(release)
	done.Wait()

	for i, v := range got {
		if v != boom {
			t.Errorf("caller %d recovered %v, want the builder's panic value", i, v)
		}
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("build ran %d times, want 1", n)
	}
	func() {
		defer func() {
			if v := recover(); v != boom {
				t.Errorf("later caller recovered %v, want the builder's panic value", v)
			}
		}()
		sp := c.get(key, func() samplePlan { return samplePlan{} })
		t.Errorf("later caller read a plan (ok=%v) from a panicked build", sp.ok)
	}()
}

// The plan key holds everything the profile and plan read, and nothing
// else. Configs that differ only outside the key (width, and every
// wakeup, register-file and recovery scheme) profile and plan
// identically; configs that differ in the memory hierarchy or the
// branch predictor get separate entries. This guards the key against a
// future profile feature that reads a pipeline field.
func TestPlanKeyCompleteness(t *testing.T) {
	spec := sample.DefaultSpec()
	req := func(cfg uarch.Config) Request {
		return Request{Bench: "mcf", Config: cfg, Budget: planTestInsts, Sample: &spec}
	}
	profileAndPlan := func(r Request) (any, samplePlan) {
		s, err := newStream(r)
		if err != nil {
			t.Fatal(err)
		}
		return uarch.ProfileForSampling(r.Config, s, spec.IntervalInsts), buildPlan(r)
	}

	base := req(uarch.Config4Wide())
	wantProf, wantPlan := profileAndPlan(base)
	if !wantPlan.ok {
		t.Fatal("base request did not produce a plan; the budget is too small for the test")
	}
	same := []uarch.Config{uarch.Config8Wide()}
	for _, s := range []uarch.WakeupScheme{uarch.WakeupConventional, uarch.WakeupSequential, uarch.WakeupTagElim, uarch.WakeupPipelined} {
		same = append(same, config(4, func(c *uarch.Config) { c.Wakeup = s }))
	}
	for _, s := range []uarch.RegfileScheme{uarch.RFTwoPort, uarch.RFSequential, uarch.RFExtraStage, uarch.RFHalfCrossbar} {
		same = append(same, config(4, func(c *uarch.Config) { c.Regfile = s }))
	}
	for _, s := range []uarch.RecoveryScheme{uarch.RecoveryNonSelective, uarch.RecoverySelective} {
		same = append(same, config(4, func(c *uarch.Config) { c.Recovery = s }))
	}
	for _, cfg := range same {
		r := req(cfg)
		if planKeyOf(r) != planKeyOf(base) {
			t.Errorf("%s: plan key differs from the base machine's", r.Label())
		}
		prof, plan := profileAndPlan(r)
		if !reflect.DeepEqual(prof, wantProf) {
			t.Errorf("%s: profile differs from the base machine's; the plan key misses a field it reads", r.Label())
		}
		if !reflect.DeepEqual(plan, wantPlan) {
			t.Errorf("%s: plan differs from the base machine's; the plan key misses a field it reads", r.Label())
		}
	}

	smallDL1 := uarch.Config4Wide()
	smallDL1.Mem.DL1.SizeKB /= 4
	smallBP := uarch.Config4Wide()
	smallBP.Bpred.GshareEntries /= 4
	c := NewRunner(Options{}).plans
	for _, cfg := range []uarch.Config{uarch.Config4Wide(), smallDL1, smallBP} {
		if _, err := execute(req(cfg), c); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.m) != 3 || c.builds.Load() != 3 {
		t.Errorf("memory-hierarchy and predictor variants share plans: %d entries, %d builds, want 3 each",
			len(c.m), c.builds.Load())
	}
}
