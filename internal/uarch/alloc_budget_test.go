package uarch

import (
	"testing"

	"halfprice/internal/trace"
)

// pipelineAllocCeiling bounds the heap allocations of one 50k-instruction
// gzip run on the 4-wide machine — the BenchmarkPipelineThroughput cell.
// The count is deterministic (10,981 on go1.24, the same under -race),
// so it can be gated exactly; the ceiling leaves under 10% headroom for
// toolchain drift. The pointer-free simulator core (a uop arena indexed
// by window slot, an open ROADMAP.md item) is expected to lower it.
const pipelineAllocCeiling = 12000

// TestPipelineAllocBudget fails when a change makes the detailed core
// allocate noticeably more per run.
func TestPipelineAllocBudget(t *testing.T) {
	p, _ := trace.ProfileByName("gzip")
	allocs := testing.AllocsPerRun(3, func() {
		New(Config4Wide(), trace.NewSynthetic(p, 50000)).Run()
	})
	t.Logf("%.0f allocs/run (ceiling %d)", allocs, pipelineAllocCeiling)
	if allocs > pipelineAllocCeiling {
		t.Fatalf("one 50k-instruction gzip run allocated %.0f times, ceiling %d", allocs, pipelineAllocCeiling)
	}
}
