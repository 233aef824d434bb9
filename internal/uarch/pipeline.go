package uarch

import (
	"fmt"

	"halfprice/internal/bpred"
	"halfprice/internal/isa"
	"halfprice/internal/mem"
	"halfprice/internal/opred"
	"halfprice/internal/trace"
)

// fqEntry is an instruction in flight between fetch and dispatch.
type fqEntry struct {
	d       trace.DynInst
	arrive  int64 // cycle it reaches dispatch
	mispred bool  // fetch mispredicted this branch; blocks fetch until resolve
	hasPred bool
	pred    opred.Side
}

// Simulator is one out-of-order core executing one dynamic instruction
// stream under a Config.
type Simulator struct {
	cfg    Config
	stream trace.Stream
	hier   *mem.Hierarchy
	bp     *bpred.Predictor
	op     opred.Predictor
	st     *Stats

	cycle int64

	// Lookahead instruction not yet fetched, held by value: taking the
	// stream output through a heap pointer costs one allocation per
	// instruction in the hot loop.
	pending    trace.DynInst
	hasPending bool
	streamEnd  bool

	frontQ []fqEntry
	rob    []*uop
	lsq    []*uop
	regMap [isa.NumArchRegs]*uop

	// sched is the SoA/bitmap issue-queue core (schedcore.go): per-slot
	// wake cycles, the waiting/issued/priority bitmaps the wakeup and
	// select stages run on, and the per-producer listener bitmaps.
	sched *schedCore
	// issuedBuf collects this cycle's grants for tag-elimination fault
	// recovery (reused each cycle; no per-cycle allocation).
	issuedBuf []*uop
	// uopSlab chunk-allocates window entries: uops are pointer-shared
	// (regMap, rob, lsq) so they cannot be pooled, but carving them from
	// 256-entry slabs cuts allocator traffic 256x.
	uopSlab []uop

	// Fetch control.
	fetchResume   int64
	redirect      *uop // mispredicted branch being waited on (post-dispatch)
	redirectInFQ  bool // mispredicted branch still in the front queue
	lastFetchLine uint64

	// Issue control.
	disabledSlots     int // issue slots disabled this cycle (sequential RF bubble)
	disabledSlotsNext int
	issueBlockedCycle int64 // tag-elimination detection shadow: no issue this cycle

	// Non-pipelined divider occupancy.
	intDivBusy []int64
	fpDivBusy  []int64

	// Speculatively scheduled loads awaiting hit/miss verification.
	specLoads []*uop

	// Table 3 per-PC last-arriving history.
	lastSidePC map[uint64]opred.Side

	// onCommit, when set, observes every committed uop (test hook).
	onCommit func(*uop)
	// issueOverride, when set, replaces the issue stage (test hook: the
	// scheduler-core equivalence test runs the reference slice-and-sort
	// select through it against the production bitmap core).
	issueOverride func(c int64)
	// tracer, when set, observes every pipeline event (SetTracer).
	tracer Tracer
	// hot, when set, profiles events per static PC (EnableHotSpots).
	hot *HotSpots
}

// New builds a simulator over the stream. The stream is the architectural
// oracle: the pipeline replays it and charges cycles.
func New(cfg Config, stream trace.Stream) *Simulator {
	return newWithState(cfg, stream,
		mem.NewHierarchy(cfg.Mem), bpred.New(cfg.Bpred), newOpPredictor(cfg),
		make(map[uint64]opred.Side))
}

// newOpPredictor builds the last-arriving operand predictor the config
// selects.
func newOpPredictor(cfg Config) opred.Predictor {
	switch cfg.OpPred {
	case OpPredStaticRight:
		return opred.Static{Side: opred.Right}
	case OpPredTwoLevel:
		return opred.NewTwoLevel(cfg.OpPredEntries, 6)
	default:
		return opred.NewBimodal(cfg.OpPredEntries)
	}
}

// newWithState builds a simulator around externally owned long-lived
// state (memory hierarchy, predictors, per-PC operand history). Sampled
// simulation (RunSampled) threads the same state through a sequence of
// per-window simulators so that warming survives between windows; New
// passes fresh state for the ordinary whole-run case.
func newWithState(cfg Config, stream trace.Stream, hier *mem.Hierarchy,
	bp *bpred.Predictor, op opred.Predictor, lastSidePC map[uint64]opred.Side) *Simulator {
	cfg.mustValidate()
	return &Simulator{
		cfg:               cfg,
		sched:             newSchedCore(cfg.WindowSize),
		stream:            stream,
		hier:              hier,
		bp:                bp,
		op:                op,
		st:                NewStats(),
		issueBlockedCycle: -1,
		intDivBusy:        make([]int64, cfg.IntMulDiv),
		fpDivBusy:         make([]int64, cfg.FpMulDiv),
		lastSidePC:        lastSidePC,
	}
}

// Stats returns the run's statistics (valid after Run).
func (s *Simulator) Stats() *Stats { return s.st }

// Hierarchy exposes the memory system (for experiment reporting).
func (s *Simulator) Hierarchy() *mem.Hierarchy { return s.hier }

// Bpred exposes the branch predictor (for experiment reporting).
func (s *Simulator) Bpred() *bpred.Predictor { return s.bp }

// Run simulates until the stream is exhausted and the pipeline drains, or
// until cfg.MaxInsts instructions commit. It returns the statistics.
func (s *Simulator) Run() *Stats {
	lastCommitted := uint64(0)
	idleCycles := 0
	warmupLeft := s.cfg.WarmupInsts
	for {
		if warmupLeft > 0 && s.st.Committed >= warmupLeft {
			// End of warmup: drop the transient's statistics but keep
			// all microarchitectural state (caches, predictors, window).
			committed := s.st.Committed
			s.st = NewStats()
			s.st.WarmupDiscarded = committed
			warmupLeft = 0
		}
		total := s.st.Committed + s.st.WarmupDiscarded
		if s.cfg.MaxInsts > 0 && total >= s.cfg.MaxInsts {
			break
		}
		if s.drained() {
			break
		}
		c := s.cycle
		before := s.st.Committed
		s.commit(c)
		s.st.CycleClasses[s.classifyCycle(s.st.Committed-before, c)]++
		s.verifyLoads(c)
		s.complete(c)
		if s.issueOverride != nil {
			s.issueOverride(c)
		} else {
			s.issue(c)
		}
		s.dispatch(c)
		s.fetch(c)
		s.cycle++
		s.st.Cycles++

		if s.st.Committed == lastCommitted {
			idleCycles++
			// The guard stays out of mustf's variadic call: boxing the
			// arguments and formatting describeHead every cycle costs more
			// allocation than the whole scheduler.
			if idleCycles > 100000 {
				mustf(false, "uarch: no commit progress for %d cycles at cycle %d (rob=%d, fq=%d): %s",
					idleCycles, s.cycle, len(s.rob), len(s.frontQ), s.describeHead())
			}
		} else {
			idleCycles = 0
			lastCommitted = s.st.Committed
		}
	}
	// A stream that runs dry before warmup completes leaves the
	// transient's statistics in place — silently reporting contaminated
	// numbers as if they were measured. That is a caller bug (budget
	// shorter than warmup): fail loudly instead.
	mustf(s.cfg.WarmupInsts == 0 || s.st.WarmupDiscarded > 0,
		"uarch: stream ended after %d instructions, before WarmupInsts=%d completed; the measurement region is empty",
		s.st.Committed, s.cfg.WarmupInsts)
	return s.st
}

func (s *Simulator) drained() bool {
	return s.streamEnd && !s.hasPending && len(s.frontQ) == 0 && len(s.rob) == 0
}

func (s *Simulator) describeHead() string {
	if len(s.rob) == 0 {
		return "empty rob"
	}
	u := s.rob[0]
	return fmt.Sprintf("head seq=%d %v state=%d issue=%d result=%d", u.seq, u.d.Inst, u.state, u.issueCycle, u.resultCycle)
}

// ---- fetch ----

func (s *Simulator) peek() *trace.DynInst {
	if !s.hasPending && !s.streamEnd {
		d, ok := s.stream.Next()
		if !ok {
			s.streamEnd = true
		} else {
			s.pending = d
			s.hasPending = true
		}
	}
	if !s.hasPending {
		return nil
	}
	return &s.pending
}

func (s *Simulator) fetch(c int64) {
	if s.redirect != nil || s.redirectInFQ || c < s.fetchResume {
		if s.peek() != nil {
			s.st.FetchStallCycles++
		}
		return
	}
	lineMask := ^uint64(s.cfg.Mem.IL1.LineSize - 1)
	// The fetch unit reads one aligned block of Width instructions per
	// cycle; a bundle never straddles a block boundary.
	blockBytes := uint64(s.cfg.Width) * isa.InstBytes
	fetchBlock := uint64(0)
	for budget := s.cfg.Width; budget > 0; budget-- {
		d := s.peek()
		if d == nil {
			return
		}
		blk := d.PC / blockBytes
		if fetchBlock == 0 {
			fetchBlock = blk
		} else if blk != fetchBlock {
			return
		}
		if line := d.PC & lineMask; line != s.lastFetchLine {
			lat, hit := s.hier.FetchLatency(d.PC)
			s.lastFetchLine = line
			if !hit {
				// Stall until the line arrives; the instruction is
				// refetched then (the line is resident by that time).
				s.fetchResume = c + int64(lat-s.cfg.Mem.IL1.Lat)
				return
			}
		}
		s.hasPending = false
		s.st.Fetched++
		e := fqEntry{d: *d, arrive: c + int64(s.cfg.FrontEndStages)}
		s.trace(c, EvFetch, d.Seq, d.Inst)
		s.predictOperands(&e)
		stop := s.predictBranch(&e)
		s.frontQ = append(s.frontQ, e)
		if stop {
			return
		}
	}
}

// predictOperands consults the last-arriving operand predictor in the
// fetch stage (paper §3.3) for true 2-source instructions.
func (s *Simulator) predictOperands(e *fqEntry) {
	if s.cfg.Wakeup != WakeupSequential && s.cfg.Wakeup != WakeupTagElim {
		return // only the predictor-steered schemes place operands
	}
	if isa.Is2Source(e.d.Inst) {
		e.hasPred = true
		e.pred = s.op.Predict(e.d.PC)
	}
}

// predictBranch runs the front-end branch predictors against the oracle
// outcome, marks mispredictions (which stall fetch until resolution), and
// reports whether the fetch bundle ends at this instruction.
func (s *Simulator) predictBranch(e *fqEntry) bool {
	op := e.d.Inst.Op
	if !op.IsBranch() {
		return false
	}
	miss := runBranchPredictors(s.bp, &e.d)
	cond := op.IsCondBranch()
	if cond {
		s.st.CondBranches++
	}
	if miss && !s.cfg.PerfectBranchPred {
		s.st.BranchMispredicts++
		e.mispred = true
		s.redirectInFQ = true
		return true
	}
	// Fetch stops at the first taken conditional branch and after every
	// unconditional transfer.
	return !cond || e.d.Taken
}

// runBranchPredictors is the one predictor access sequence for a control
// transfer (d.Inst.Op.IsBranch), shared by the pipeline's fetch stage and
// the sampled run's functional warmer so both leave the predictor in the
// same state. It predicts against the oracle outcome, trains the
// predictors and reports whether the next PC was mispredicted.
func runBranchPredictors(bp *bpred.Predictor, d *trace.DynInst) (mispredict bool) {
	in := d.Inst
	switch {
	case in.Op.IsCondBranch():
		taken := bp.PredictCond(d.PC)
		bp.UpdateCond(d.PC, d.Taken)
		return taken != d.Taken
	case in.Op == isa.OpBR:
		// Direct target, computed in decode: never mispredicted.
		if dst, ok := in.Dest(); ok && dst == isa.RegRA {
			bp.PushRAS(d.PC + isa.InstBytes)
		}
		return false
	}
	// OpJMP: a return pops the RAS, anything else asks the indirect
	// predictor; a call pushes its return address.
	isCall := false
	if dst, ok := in.Dest(); ok && dst == isa.RegRA {
		isCall = true
	}
	isRet := !isCall && in.Ra == isa.RegRA
	var predicted uint64
	var havePred bool
	if isRet {
		predicted, havePred = bp.PopRAS()
	} else {
		predicted, havePred = bp.PredictIndirect(d.PC)
	}
	correct := havePred && predicted == d.NextPC
	if !isRet {
		bp.UpdateIndirect(d.PC, d.NextPC, correct)
	}
	if isCall {
		bp.PushRAS(d.PC + isa.InstBytes)
	}
	return !correct
}

// ---- dispatch ----

func (s *Simulator) dispatch(c int64) {
	renamePorts := s.dispatchRenameBudget()
	for n := 0; n < s.cfg.Width && len(s.frontQ) > 0; n++ {
		e := s.frontQ[0]
		if e.arrive > c {
			return
		}
		if len(s.rob) >= s.cfg.WindowSize {
			return
		}
		isMem := e.d.Inst.Op.IsLoad() || e.d.Inst.Op.IsStore()
		if isMem && len(s.lsq) >= s.cfg.LSQSize {
			return
		}
		if need := renamePortsNeeded(e.d.Inst); need > renamePorts {
			// Half-price rename: out of source map-table ports this
			// cycle; the rest of the group dispatches next cycle.
			s.st.RenameStalls++
			return
		} else {
			renamePorts -= need
		}
		s.frontQ = s.frontQ[1:]
		u := s.buildUop(e, c)
		s.rob = append(s.rob, u)
		s.schedInsert(u)
		s.trace(c, EvDispatch, u.seq, u.d.Inst)
		if isMem {
			s.lsq = append(s.lsq, u)
		}
		if e.mispred {
			s.redirect = u
			s.redirectInFQ = false
		}
	}
}

func (s *Simulator) buildUop(e fqEntry, c int64) *uop {
	in := e.d.Inst
	if len(s.uopSlab) == 0 {
		s.uopSlab = make([]uop, 256)
	}
	u := &s.uopSlab[0]
	s.uopSlab = s.uopSlab[1:]
	*u = uop{
		seq:            e.d.Seq,
		d:              e.d,
		class:          in.Op.Class(),
		dispatchCycle:  c,
		addrKnownCycle: notReady,
		hasPred:        e.hasPred,
		predicted:      e.pred,
		fastSide:       e.pred,
	}
	if u.isStore() {
		// Split store: schedule the address generation on the base
		// register; the data move gates commit only.
		u.nsrc = 0
		if in.Ra.Valid() && !in.Ra.IsZero() {
			u.srcReg[0] = in.Ra
			u.src[0] = s.regMap[in.Ra]
			u.nsrc = 1
		}
		if in.Rd.Valid() && !in.Rd.IsZero() {
			u.dataProducer = s.regMap[in.Rd]
		}
	} else {
		srcs, n := in.Srcs()
		u.nsrc = n
		for i := 0; i < n; i++ {
			u.srcReg[i] = srcs[i]
			u.src[i] = s.regMap[srcs[i]]
		}
	}
	u.is2Source = isa.Is2Source(in)
	if u.is2Source {
		ready := 0
		for i := 0; i < 2; i++ {
			if u.wokenAfterInsert(i) {
				u.pendingAtInsert[i] = true
			} else {
				ready++
			}
		}
		u.readyAtInsert = ready
	}
	if dst, ok := in.Dest(); ok {
		s.regMap[dst] = u
	}
	return u
}

// ---- completion ----

func (s *Simulator) complete(c int64) {
	// Only issued entries can complete: scan the issued bitmap in age
	// order (the same order the old full-window scan visited them)
	// instead of walking every window entry.
	sc := s.sched
	sc.order = sc.order[:0]
	sc.order = sc.appendAge(sc.order, sc.issuedW)
	for _, slot := range sc.order {
		u := sc.ent[slot]
		done := u.resultCycle
		if u.isLoad() {
			done = u.actualResultCycle
		}
		if done <= c {
			u.state = stateDone
			sc.markDone(u.slot)
			s.trace(c, EvComplete, u.seq, u.d.Inst)
			if u == s.redirect {
				extra := int64(s.cfg.ExtraMispredictPenalty)
				if s.cfg.Regfile == RFExtraStage {
					extra++
				}
				s.fetchResume = done + 1 + extra
				s.redirect = nil
			}
		}
	}
}
