package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"halfprice/internal/chaos"
	"halfprice/internal/experiments"
	"halfprice/internal/store"
	"halfprice/internal/uarch"
)

// blockedBackend parks every Execute forever — it simulates a server
// whose dispatches never complete, so a test can abandon the Server
// (the moral equivalent of SIGKILL: no Close, no journal shutdown) with
// jobs in the queued and running states.
type blockedBackend struct {
	started chan string // receives each request's Bench when it blocks
	park    chan struct{}
}

func (b *blockedBackend) Execute(ctx context.Context, req experiments.Request, obs experiments.Observer) (*uarch.Stats, error) {
	if b.started != nil {
		b.started <- req.Bench
	}
	<-b.park // never closed: the "killed" server's dispatch hangs forever
	return nil, fmt.Errorf("unreachable")
}

// TestRestartResumesJobs is the crash-recovery acceptance test: a
// server dies (abandoned without Close, like SIGKILL) with one job
// running and two queued; a new server over the same journal resumes
// all three and serves results byte-identical to an uninterrupted local
// run; a third server over the same journal serves the finished results
// again from the journal alone, with zero backend dispatches.
func TestRestartResumesJobs(t *testing.T) {
	dir := t.TempDir()
	specs := []SubmitRequest{
		{Bench: "gzip", Insts: 2000},
		{Bench: "mcf", Insts: 2500},
		{Bench: "crafty", Insts: 3000},
	}

	// Reference: what an uninterrupted run serves, byte for byte.
	var want [][]byte
	for _, sr := range specs {
		sr := sr
		req, err := sr.resolve(defaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		st, err := experiments.Execute(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, data)
	}

	// Server A: dispatches block forever. Submit three jobs, wait until
	// the first is running, then abandon the server without Close.
	blocked := &blockedBackend{started: make(chan string, 1), park: make(chan struct{})}
	a, err := New(Options{Dir: dir, Backend: blocked, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, sr := range specs {
		sr := sr
		req, err := sr.resolve(defaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		j, err := a.Submit(anonTenant, sr, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	select {
	case <-blocked.started:
	case <-time.After(5 * time.Second):
		t.Fatal("server A never dispatched the first job")
	}
	// No a.Close(): the dispatch goroutine is parked in the backend
	// forever, exactly like a process killed mid-run. The journal now
	// holds three submits and one unfinished start.

	// Server B: same journal, working backend. All three jobs — the
	// crashed-while-running one included — must resume and finish.
	b, ts := newTestServer(t, Options{Dir: dir, Backend: experiments.LocalBackend{}, Workers: 2})
	for i, id := range ids {
		waitJobState(t, ts, "", id, StateDone)
		status, body, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+id+"/result", "", nil)
		if status != http.StatusOK {
			t.Fatalf("result %s: status %d (body %s)", id, status, body)
		}
		if got := bytes.TrimSpace(body); !bytes.Equal(got, want[i]) {
			t.Fatalf("job %s result differs from uninterrupted run:\n got %s\nwant %s", id, got, want[i])
		}
	}
	if st := b.Stats(); st.Done != 3 || st.Dispatched != 3 {
		t.Fatalf("server B stats %+v, want 3 done / 3 dispatched", st)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}

	// Server C: restart again after everything finished. The journal's
	// done records alone must serve the results — zero dispatches, byte
	// for byte the same payloads, and a new submit keeps working.
	counting := &fakeBackend{}
	_, ts2 := newTestServer(t, Options{Dir: dir, Backend: counting, Workers: 1})
	for i, id := range ids {
		v := waitJobState(t, ts2, "", id, StateDone)
		if v.State != StateDone {
			t.Fatalf("job %s not done after second restart", id)
		}
		status, body, _ := doJSON(t, "GET", ts2.URL+"/v1/jobs/"+id+"/result", "", nil)
		if status != http.StatusOK {
			t.Fatalf("result %s after restart: status %d", id, status)
		}
		if got := bytes.TrimSpace(body); !bytes.Equal(got, want[i]) {
			t.Fatalf("job %s result changed across restart:\n got %s\nwant %s", id, got, want[i])
		}
	}
	if n := len(counting.executions()); n != 0 {
		t.Fatalf("restart re-dispatched %d finished jobs", n)
	}
}

// TestRestartWithStoreResumesByteIdentical runs the same crash through
// the journal + shared cache dir pair the acceptance criteria name: the
// restarted server's re-dispatch of the crashed job lands in the same
// store, and results stay byte-identical to the uninterrupted run.
func TestRestartWithStoreResumesByteIdentical(t *testing.T) {
	stateDir, cacheDir := t.TempDir(), t.TempDir()
	openStore := func() *store.Store {
		st, err := store.Open(cacheDir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	sr := SubmitRequest{Bench: "vpr", Insts: 2000}
	req, err := sr.resolve(defaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := experiments.Execute(req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Crash mid-run.
	blocked := &blockedBackend{started: make(chan string, 1), park: make(chan struct{})}
	a, err := New(Options{Dir: stateDir, Backend: blocked, Store: openStore(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := a.Submit(anonTenant, sr, req)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked.started:
	case <-time.After(5 * time.Second):
		t.Fatal("job never dispatched")
	}
	// Abandoned without Close. The dead server's dispatch still holds
	// the store's advisory compute lock; under a real SIGKILL its pid
	// would be gone and the lock broken immediately, so re-attribute the
	// orphaned lock files to a provably dead pid to simulate that.
	reattributeLocksToDeadPid(t, cacheDir)

	// Restart against the same journal + cache dir.
	_, ts := newTestServer(t, Options{Dir: stateDir, Backend: experiments.LocalBackend{}, Store: openStore(), Workers: 1})
	waitJobState(t, ts, "", j.ID, StateDone)
	status, body, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+j.ID+"/result", "", nil)
	if status != http.StatusOK {
		t.Fatalf("result status %d", status)
	}
	if got := bytes.TrimSpace(body); !bytes.Equal(got, wantJSON) {
		t.Fatalf("resumed result differs:\n got %s\nwant %s", got, wantJSON)
	}
	// The re-simulated result is now in the shared store for the next
	// tenant.
	if _, ok := openStore().Get(req.Key()); !ok {
		t.Fatal("resumed run did not checkpoint into the store")
	}
}

// reattributeLocksToDeadPid rewrites every advisory lock under the
// store's locks/ directory to name a pid that has already exited — the
// on-disk state a SIGKILLed server leaves behind, which the store's
// dead-holder detection breaks immediately.
func reattributeLocksToDeadPid(t *testing.T, cacheDir string) {
	t.Helper()
	cmd := exec.Command("true")
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	pid := cmd.Process.Pid
	if err := cmd.Wait(); err != nil {
		t.Fatal(err)
	}
	host, _ := os.Hostname()
	body, err := json.Marshal(map[string]any{"pid": pid, "host": host})
	if err != nil {
		t.Fatal(err)
	}
	locks, err := os.ReadDir(filepath.Join(cacheDir, "locks"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range locks {
		if err := os.WriteFile(filepath.Join(cacheDir, "locks", e.Name()), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJournalTornTail pins crash tolerance in the journal itself: a
// partial trailing line (the fsync'd append the crash interrupted) is
// ignored, and gone before anything is appended after it, so a second
// restart still loads; a corrupt interior line is refused loudly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	// Each server is abandoned without Close, like a killed process: its
	// dispatch parks in the backend forever.
	start := func() *Server {
		t.Helper()
		s, err := New(Options{Dir: dir, Backend: &blockedBackend{park: make(chan struct{})}, Workers: 1})
		if err != nil {
			t.Fatalf("restart: %v", err)
		}
		return s
	}
	submit := func(s *Server, insts uint64) {
		t.Helper()
		sr := SubmitRequest{Bench: "gzip", Insts: insts}
		req, err := sr.resolve(defaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Submit("alice", sr, req); err != nil {
			t.Fatal(err)
		}
	}

	submit(start(), 1500)
	// Tear the journal tail like a crash mid-append.
	path := filepath.Join(dir, "jobs.journal")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"done","id":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	jl, jobs, err := openJournal(chaos.OS{}, dir, 16)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	jl.close()
	if len(jobs) != 1 || jobs[0].state != StateQueued {
		t.Fatalf("replayed %d jobs (state %v), want 1 queued", len(jobs), jobs)
	}

	// Restart, submit more work, and restart again: the appends after
	// the first restart must not have landed on the torn fragment.
	s := start()
	submit(s, 1600)
	submit(s, 1700)
	if st := start().Stats(); st.Queued+st.Running != 3 {
		t.Fatalf("second restart holds %d queued + %d running jobs, want 3", st.Queued, st.Running)
	}

	// A corrupt line that is NOT the tail is damage, not a crash: refuse.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append([]byte("garbage not json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openJournal(chaos.OS{}, dir, 16); err == nil {
		t.Fatal("interior corruption accepted")
	}
}

// TestJournalCompaction pins the history bound: terminal jobs beyond
// HistoryCap are dropped on restart (newest kept), queued jobs always
// survive.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{Dir: dir, Backend: &fakeBackend{}, Workers: 1, HistoryCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		sr := SubmitRequest{Bench: "gzip", Insts: uint64(1000 + i)}
		req, err := sr.resolve(defaultMaxInsts)
		if err != nil {
			t.Fatal(err)
		}
		j, err := s.Submit("alice", sr, req)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := s.Stats(); st.Done == 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("jobs never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(Options{Dir: dir, Backend: &fakeBackend{}, Workers: 1, HistoryCap: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	s2.mu.Lock()
	kept := len(s2.jobs)
	_, oldest := s2.jobs[ids[0]], s2.jobs[ids[3]]
	s2.mu.Unlock()
	if kept != 2 {
		t.Fatalf("retained %d terminal jobs, want HistoryCap=2", kept)
	}
	if oldest == nil {
		t.Fatal("compaction dropped the newest terminal jobs instead of the oldest")
	}
	// Sequence numbering continues past the compacted history.
	sr := SubmitRequest{Bench: "gzip", Insts: 7777}
	req, err := sr.resolve(defaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	j, err := s2.Submit("alice", sr, req)
	if err != nil {
		t.Fatal(err)
	}
	if j.Seq < 5 {
		t.Fatalf("sequence restarted at %d after compaction", j.Seq)
	}
}
