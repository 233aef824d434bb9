// Package halfprice is a reproduction of "Half-Price Architecture"
// (Ilhyun Kim and Mikko H. Lipasti, ISCA 2003) as a Go library.
//
// The paper observes that out-of-order cores overdesign their
// timing-critical structures for the uncommon case of two simultaneous
// source operands, and proposes two half-price techniques: sequential
// wakeup (one tag comparator per issue-queue entry on a fast bus, the
// other side on a one-cycle-delayed slow bus, steered by a last-arriving
// operand predictor) and sequential register access (one register read
// port per issue slot, with double reads detected in the scheduler and
// charged one cycle plus one issue slot).
//
// This package is the public facade over the full simulation stack:
//
//   - internal/uarch: a 12-stage speculative-scheduling out-of-order
//     pipeline (RUU window, LSQ, non-selective/selective replay) with the
//     conventional, sequential-wakeup and tag-elimination schedulers and
//     all four register-file organisations.
//   - internal/trace: calibrated synthetic SPEC CINT2000 workloads plus
//     the execution-driven stream from the functional simulator.
//   - internal/isa, internal/asm, internal/vm: the HPA64 ISA, its
//     assembler and its architectural simulator.
//   - internal/experiments: one harness per table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	cfg := halfprice.Config4Wide()
//	cfg.Wakeup = halfprice.WakeupSequential
//	cfg.Regfile = halfprice.RFSequential
//	st, err := halfprice.Simulate(cfg, "gzip", 200000)
//	if err != nil {
//		log.Fatal(err)
//	}
//	fmt.Printf("IPC %.2f\n", st.IPC())
package halfprice

import (
	"fmt"
	"io"
	"strings"

	"halfprice/internal/asm"
	"halfprice/internal/experiments"
	"halfprice/internal/store"
	"halfprice/internal/timing"
	"halfprice/internal/trace"
	"halfprice/internal/uarch"
	"halfprice/internal/vm"
	"halfprice/internal/workloads"
)

// Re-exported configuration types. Config is the full machine description
// (Table 1 defaults via Config4Wide/Config8Wide); Stats is everything a
// run measures.
type (
	// Config describes one simulated machine.
	Config = uarch.Config
	// Stats holds the measurements of one simulation run.
	Stats = uarch.Stats
	// WakeupScheme selects the issue-queue wakeup logic.
	WakeupScheme = uarch.WakeupScheme
	// RegfileScheme selects the register-file port organisation.
	RegfileScheme = uarch.RegfileScheme
	// RecoveryScheme selects the scheduling-replay policy.
	RecoveryScheme = uarch.RecoveryScheme
	// OperandPredictor selects the last-arriving operand predictor.
	OperandPredictor = uarch.OperandPredictor
	// Profile parameterises a synthetic workload.
	Profile = trace.Profile
	// Stream produces dynamic instructions for the pipeline.
	Stream = trace.Stream
	// Options configures the experiment harness (instruction budget,
	// benchmark subset, worker-pool size, progress observer).
	Options = experiments.Options
	// Runner executes experiments over a bounded worker pool. Each
	// simulation goes through one result chain — memory, then the
	// ResultStore when Options.Store sets one, then the Backend — so
	// concurrent and repeated requests simulate once.
	Runner = experiments.Runner
	// Observer receives per-simulation progress events from a Runner;
	// internal/progress provides the standard implementation behind the
	// commands' -quiet and -progress-json flags.
	Observer = experiments.Observer
	// Result is one reproduced table or figure.
	Result = experiments.Result
	// CycleClass labels one cycle of the CPI stack.
	CycleClass = uarch.CycleClass
	// Backend is the Runner's execution seam: nil Options.Backend means
	// in-process simulation; internal/dist's Coordinator implements the
	// same interface over a fleet of sweepd workers (the commands'
	// -workers flag).
	Backend = experiments.Backend
	// Request is one serialized simulation request — the unit of work a
	// Backend executes, and the wire format of the sweepd worker API.
	Request = experiments.Request
	// ResultStore is the durable on-disk layer of the Runner's result
	// chain, behind the commands' -cache-dir/-no-cache flags
	// (Options.Store): completed simulations checkpoint to disk and a
	// restarted sweep resumes from there instead of recomputing.
	ResultStore = store.Store
)

// NumCycleClasses is the number of CPI-stack categories.
const NumCycleClasses = uarch.NumCycleClasses

// Scheme constants, re-exported from internal/uarch.
const (
	WakeupConventional = uarch.WakeupConventional
	WakeupSequential   = uarch.WakeupSequential
	WakeupTagElim      = uarch.WakeupTagElim

	RFTwoPort      = uarch.RFTwoPort
	RFSequential   = uarch.RFSequential
	RFExtraStage   = uarch.RFExtraStage
	RFHalfCrossbar = uarch.RFHalfCrossbar

	RecoveryNonSelective = uarch.RecoveryNonSelective
	RecoverySelective    = uarch.RecoverySelective

	OpPredBimodal     = uarch.OpPredBimodal
	OpPredStaticRight = uarch.OpPredStaticRight
)

// Config4Wide returns the paper's 4-wide machine (Table 1).
func Config4Wide() Config { return uarch.Config4Wide() }

// Config8Wide returns the paper's 8-wide machine (Table 1).
func Config8Wide() Config { return uarch.Config8Wide() }

// Benchmarks lists the SPEC CINT2000 benchmark names of Table 2.
func Benchmarks() []string {
	return append([]string(nil), trace.BenchmarkNames...)
}

// BenchmarkProfile returns the calibrated synthetic profile for one
// benchmark, which callers may tweak and pass to SimulateProfile.
func BenchmarkProfile(name string) (Profile, error) {
	p, ok := trace.ProfileByName(name)
	if !ok {
		return Profile{}, fmt.Errorf("halfprice: unknown benchmark %q", name)
	}
	return p, nil
}

// Simulate runs the named benchmark's calibrated synthetic workload for
// insts dynamic instructions on cfg and returns the measurements. It
// returns an error on unknown benchmark names; MustSimulate panics
// instead, for examples and tests with hard-coded names.
func Simulate(cfg Config, benchmark string, insts uint64) (*Stats, error) {
	p, ok := trace.ProfileByName(benchmark)
	if !ok {
		return nil, fmt.Errorf("halfprice: unknown benchmark %q", benchmark)
	}
	return uarch.New(cfg, trace.NewSynthetic(p, insts)).Run(), nil
}

// MustSimulate is Simulate but panics on error. It is intended for
// examples, tests and other contexts where the benchmark name is a
// literal from Benchmarks.
func MustSimulate(cfg Config, benchmark string, insts uint64) *Stats {
	st, err := Simulate(cfg, benchmark, insts)
	if err != nil {
		panic(err)
	}
	return st
}

// SimulateProfile runs a custom synthetic workload profile.
func SimulateProfile(cfg Config, p Profile, insts uint64) *Stats {
	return uarch.New(cfg, trace.NewSynthetic(p, insts)).Run()
}

// SimulateKernel runs one of the hand-written execution-driven assembly
// kernels (same names as Benchmarks) through the functional simulator and
// the timing pipeline. maxInsts of 0 runs the kernel to completion.
func SimulateKernel(cfg Config, name string, maxInsts uint64) *Stats {
	m := vm.New(workloads.MustProgram(name))
	return uarch.New(cfg, trace.NewVMStream(m, maxInsts)).Run()
}

// SimulateProgram assembles HPA64 source, executes it functionally and
// replays it on the timing pipeline. maxInsts of 0 runs to HALT.
func SimulateProgram(cfg Config, source string, maxInsts uint64) (*Stats, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return nil, err
	}
	m := vm.New(prog)
	stream := trace.NewVMStream(m, maxInsts)
	st := uarch.New(cfg, stream).Run()
	if err := stream.Err(); err != nil {
		return st, fmt.Errorf("halfprice: program trapped: %w", err)
	}
	return st, nil
}

// RecordTrace assembles and executes HPA64 source, writing the dynamic
// instruction stream as a binary trace to w (replayable with
// SimulateTrace). maxInsts of 0 records to HALT.
func RecordTrace(w io.Writer, source string, maxInsts uint64) (uint64, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return 0, err
	}
	stream := trace.NewVMStream(vm.New(prog), maxInsts)
	n, err := trace.WriteFile(w, stream)
	if err != nil {
		return n, err
	}
	return n, stream.Err()
}

// SimulateTrace replays a recorded binary trace on cfg.
func SimulateTrace(cfg Config, r io.Reader) (*Stats, error) {
	fs, err := trace.OpenFile(r)
	if err != nil {
		return nil, err
	}
	st := uarch.New(cfg, fs).Run()
	return st, fs.Err()
}

// RenderPipeline assembles and runs HPA64 source, returning a pipeview
// chart of the first n instructions (F fetch, D dispatch, I issue,
// E complete, C commit, x squash).
func RenderPipeline(cfg Config, source string, n int) (string, error) {
	prog, err := asm.Assemble(source)
	if err != nil {
		return "", err
	}
	sim := uarch.New(cfg, trace.NewVMStream(vm.New(prog), 0))
	pv := uarch.NewPipeview(n)
	sim.SetTracer(pv)
	sim.Run()
	var b strings.Builder
	if err := pv.Render(&b); err != nil {
		return "", err
	}
	return b.String(), nil
}

// WriteProfile serialises a workload profile as JSON (editable and
// reloadable with ReadProfile).
func WriteProfile(w io.Writer, p Profile) error { return trace.MarshalProfile(w, p) }

// ReadProfile loads and validates a workload profile from JSON.
func ReadProfile(r io.Reader) (Profile, error) { return trace.UnmarshalProfile(r) }

// SimulateHot runs a benchmark with per-PC hot-spot profiling and returns
// the statistics plus a rendered report of the topN hottest static
// instructions per event class (commits, squashes, sequential register
// accesses, slow-bus delays).
func SimulateHot(cfg Config, benchmark string, insts uint64, kernel bool, topN int) (*Stats, string, error) {
	var stream Stream
	if kernel {
		stream = trace.NewVMStream(vm.New(workloads.MustProgram(benchmark)), insts)
	} else {
		p, ok := trace.ProfileByName(benchmark)
		if !ok {
			return nil, "", fmt.Errorf("halfprice: unknown benchmark %q", benchmark)
		}
		stream = trace.NewSynthetic(p, insts)
	}
	sim := uarch.New(cfg, stream)
	hot := sim.EnableHotSpots()
	st := sim.Run()
	var b strings.Builder
	if err := hot.Report(&b, topN); err != nil {
		return st, "", err
	}
	return st, b.String(), nil
}

// NewRunner returns an experiment runner for reproducing the paper's
// tables and figures. Independent (benchmark, config) simulations fan
// out over a bounded worker pool (Options.Parallel, the commands' -j
// flag) with singleflight-deduplicated memoisation, so a configuration
// shared by several experiments simulates exactly once and results are
// bit-identical at every pool size.
func NewRunner(opts Options) *Runner { return experiments.NewRunner(opts) }

// ReproduceAll regenerates every table and figure of the paper's
// evaluation in order: Table 2, Figures 2/3/4/6, Table 3, Figures 7/10/
// 14/15/16, and the circuit timing claims.
func ReproduceAll(opts Options) []*Result {
	return experiments.NewRunner(opts).All()
}

// SchedulerDelayPs returns the modelled wakeup+select critical-loop delay
// in picoseconds for a scheduler with the given geometry, conventional
// (two comparators per entry) or sequential-wakeup (one).
func SchedulerDelayPs(entries, width int, sequential bool) float64 {
	if sequential {
		return timing.SequentialWakeupScheduler(entries, width).Delay()
	}
	return timing.ConventionalScheduler(entries, width).Delay()
}

// RegfileAccessNs returns the modelled register-file access time in
// nanoseconds for the conventional (2 read ports per slot) or half-price
// (1 read port per slot) organisation.
func RegfileAccessNs(entries, width int, halfPorts bool) float64 {
	if halfPorts {
		return timing.HalfPriceRegfile(entries, width).AccessTime()
	}
	return timing.BaseRegfile(entries, width).AccessTime()
}
