package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"halfprice/internal/chaos"
)

// TestOpenJournalFreshDir pins that opening a state dir with no journal
// rewrites nothing: the append handle creates an empty journal and no
// compaction temp file is left behind.
func TestOpenJournalFreshDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	jl, jobs, err := openJournal(chaos.OS{}, dir, 16)
	if err != nil {
		t.Fatal(err)
	}
	jl.close()
	if len(jobs) != 0 {
		t.Fatalf("fresh dir replayed %d jobs", len(jobs))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "jobs.journal" {
		t.Fatalf("fresh dir holds %v, want only jobs.journal", entries)
	}
	if info, err := entries[0].Info(); err != nil || info.Size() != 0 {
		t.Fatalf("fresh journal: %v, size %d, want empty", err, info.Size())
	}
}

// TestHistoryCapWithoutRestart pins the history bound on a running
// server: terminal jobs beyond HistoryCap are evicted as they finish,
// oldest submitted first, with no restart needed.
func TestHistoryCapWithoutRestart(t *testing.T) {
	s, ts := newTestServer(t, Options{Backend: &fakeBackend{}, Workers: 1, HistoryCap: 2})
	var ids []string
	for i := 0; i < 5; i++ {
		ids = append(ids, submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1000 + i}, http.StatusCreated).ID)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Done != 5 {
		if time.Now().After(deadline) {
			t.Fatal("jobs never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	status, body, _ := doJSON(t, "GET", ts.URL+"/v1/jobs", "", nil)
	var list struct{ Jobs []View }
	if err := json.Unmarshal(body, &list); status != http.StatusOK || err != nil {
		t.Fatalf("list: status %d, %v (body %s)", status, err, body)
	}
	if len(list.Jobs) != 2 || list.Jobs[0].ID != ids[3] || list.Jobs[1].ID != ids[4] {
		t.Fatalf("list holds %+v, want the two newest jobs %v", list.Jobs, ids[3:])
	}
	if status, _, _ := doJSON(t, "GET", ts.URL+"/v1/jobs/"+ids[0], "", nil); status != http.StatusNotFound {
		t.Fatalf("get evicted job: status %d, want 404", status)
	}
}

// TestRestoredEventsMatchLive pins one lifecycle across a restart: a
// job restored from the journal replays the event stream it had live,
// less the backend's start and finish lines — for a dispatched done job,
// a CDN hit, a deadline spent queued and a cancel. A journal written
// with a legacy start record replays that job as queued.
func TestRestoredEventsMatchLive(t *testing.T) {
	dir := t.TempDir()
	backend := &fakeBackend{gate: make(chan struct{})}
	openGate := sync.OnceFunc(func() { close(backend.gate) })
	defer openGate()
	s, ts := newTestServer(t, Options{Dir: dir, Backend: backend, Workers: 1})

	blockFirstJob(t, ts, backend, "")
	done := "j000000"
	canceled := submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1001}, http.StatusCreated).ID
	if status, body, _ := doJSON(t, "POST", ts.URL+"/v1/jobs/"+canceled+"/cancel", "", nil); status != http.StatusOK {
		t.Fatalf("cancel: status %d (body %s)", status, body)
	}
	expired := submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 1002, "deadline_sec": 0.03}, http.StatusCreated).ID
	time.Sleep(80 * time.Millisecond)
	openGate()
	waitJobState(t, ts, "", done, StateDone)
	waitJobState(t, ts, "", expired, StateFailed)
	hit := submitJob(t, ts, "", map[string]any{"bench": "gzip", "insts": 9999, "priority": "interactive"}, http.StatusCreated)
	if hit.State != StateDone || !hit.Cached {
		t.Fatalf("resubmit state %q cached %v, want a CDN hit", hit.State, hit.Cached)
	}

	ids := []string{done, hit.ID, expired, canceled}
	live := map[string][]string{}
	for _, id := range ids {
		live[id] = eventKinds(jobEvents(t, ts, "", id))
	}
	if got := fmt.Sprint(live[done]); got != "[queued start finish done]" {
		t.Fatalf("live done job events %s", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Options{Dir: dir, Backend: &fakeBackend{}, Workers: 1})
	for _, id := range ids {
		var want []string
		for _, k := range live[id] {
			if k != "start" && k != "finish" {
				want = append(want, k)
			}
		}
		if got := eventKinds(jobEvents(t, ts2, "", id)); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("job %s restored events %v, want %v (live %v)", id, got, want, live[id])
		}
	}

	// A legacy journal: the job's submit, then the start record older
	// builds wrote at dispatch, and no terminal record.
	legacy := t.TempDir()
	sr := SubmitRequest{Bench: "gzip", Insts: 1500}
	req, err := sr.resolve(defaultMaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.Encode(journalRecord{Op: "submit", Job: &jobRecord{ID: "j000000", Tenant: anonTenant, Priority: "batch", Spec: sr, Request: req}})
	enc.Encode(journalRecord{Op: "start", ID: "j000000"})
	if err := os.WriteFile(filepath.Join(legacy, "jobs.journal"), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	jl, jobs, err := openJournal(chaos.OS{}, legacy, 16)
	if err != nil {
		t.Fatalf("legacy journal rejected: %v", err)
	}
	jl.close()
	if len(jobs) != 1 || jobs[0].state != StateQueued {
		t.Fatalf("legacy journal replayed %+v, want one queued job", jobs)
	}
}

// FuzzJournalReplay writes arbitrary bytes as a state dir's journal and
// opens it. Whatever the file holds, openJournal must not panic and must
// return either an error or the jobs it kept. When it succeeds, the
// rewrite is a fixed point: opening the rewritten journal keeps the same
// jobs and writes the same bytes. The journal lives in a memFS so an
// execution touches no disk. The seed corpus under testdata/fuzz holds a
// real journal and its torn-tail, corrupt-interior, duplicate-submit and
// legacy-start variants.
func FuzzJournalReplay(f *testing.F) {
	const dir, historyCap = "state", 4
	path := filepath.Join(dir, "jobs.journal")
	f.Fuzz(func(t *testing.T, data []byte) {
		fsys := memFS{path: data}
		_, jobs, err := openJournal(fsys, dir, historyCap)
		if err != nil {
			return
		}
		first := fsys[path]
		_, again, err := openJournal(fsys, dir, historyCap)
		if err != nil {
			t.Fatalf("rewritten journal rejected: %v\n%s", err, first)
		}
		if !bytes.Equal(first, fsys[path]) {
			t.Fatalf("rewrite is not a fixed point:\nfirst  %s\nsecond %s", first, fsys[path])
		}
		if len(again) != len(jobs) {
			t.Fatalf("reopen kept %d jobs, first open %d", len(again), len(jobs))
		}
		for i, j := range jobs {
			a := again[i]
			if a.rec.ID != j.rec.ID || a.rec.Seq != j.rec.Seq || a.state != j.state || a.cached != j.cached || a.errMsg != j.errMsg {
				t.Fatalf("job %d reopened as %+v, first open %+v", i, a, j)
			}
		}
	})
}

// memFS is an in-memory chaos.FS of whole files, keyed by path, for
// exactly the calls openJournal makes.
type memFS map[string][]byte

func (m memFS) Open(name string) (chaos.File, error) {
	data, ok := m[name]
	if !ok {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return &memFile{m: m, name: name, r: bytes.NewReader(data)}, nil
}

func (m memFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	if _, ok := m[name]; !ok || flag&os.O_TRUNC != 0 {
		m[name] = nil
	}
	return &memFile{m: m, name: name}, nil
}

func (m memFS) Rename(oldpath, newpath string) error {
	m[newpath] = m[oldpath]
	delete(m, oldpath)
	return nil
}

func (m memFS) MkdirAll(string, os.FileMode) error            { return nil }
func (m memFS) CreateTemp(string, string) (chaos.File, error) { return nil, os.ErrInvalid }
func (m memFS) ReadFile(string) ([]byte, error)               { return nil, os.ErrInvalid }
func (m memFS) Remove(string) error                           { return os.ErrInvalid }
func (m memFS) Stat(string) (os.FileInfo, error)              { return nil, os.ErrInvalid }

type memFile struct {
	m    memFS
	name string
	r    *bytes.Reader
}

func (f *memFile) Read(p []byte) (int, error) { return f.r.Read(p) }
func (f *memFile) Write(p []byte) (int, error) {
	f.m[f.name] = append(f.m[f.name], p...)
	return len(p), nil
}
func (f *memFile) Close() error { return nil }
func (f *memFile) Name() string { return f.name }
func (f *memFile) Sync() error  { return nil }
