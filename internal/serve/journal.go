package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"halfprice/internal/chaos"
	"halfprice/internal/experiments"
)

// The journal is the queue's durability layer: an append-only NDJSON
// file of job records, fsynced per append. A job is journaled twice:
// its "submit" record when admitted and one terminal record ("done",
// "fail" or "cancel") when it ends. Replaying it rebuilds the queue
// after a crash — a job with no terminal record was not finished and
// goes back to the queued state (re-dispatching a run is safe:
// simulations are deterministic and the result store dedupes the
// work). "done" records embed the result Stats, so a restarted server
// serves finished results even when the result store is disabled or
// wiped. Journals written by older builds may also hold "start"
// records; replay accepts and ignores them.
//
// Every open rewrites an existing journal from the replayed jobs, via
// tmp+rename: terminal jobs beyond the retained history cap are
// dropped, so the journal's size is bounded by live work plus bounded
// history rather than by lifetime traffic, and a torn tail left by a
// crash is gone before anything is appended after it.
//
// All file access goes through a chaos.FS so the chaos harness can
// inject disk faults (EIO, short writes, slow fsync) under the journal.

// journalRecord is one NDJSON line.
type journalRecord struct {
	Op string `json:"op"` // submit | done | fail | cancel (and legacy start)
	// Job is set on submit records only.
	Job *jobRecord `json:"job,omitempty"`
	// ID identifies the job on non-submit records.
	ID     string          `json:"id,omitempty"`
	Cached bool            `json:"cached,omitempty"`
	Stats  json.RawMessage `json:"stats,omitempty"` // done records
	Error  string          `json:"error,omitempty"` // fail records
}

// jobRecord is the durable identity of a job: everything needed to
// re-create and re-dispatch it after a restart.
type jobRecord struct {
	ID        string              `json:"id"`
	Seq       uint64              `json:"seq"`
	Tenant    string              `json:"tenant"`
	Priority  string              `json:"priority"`
	Spec      SubmitRequest       `json:"spec"`
	Request   experiments.Request `json:"request"`
	Submitted float64             `json:"submitted"` // unix seconds
}

// endOps maps each terminal state to the op of the record that ends a
// job in it.
var endOps = map[string]string{StateDone: "done", StateFailed: "fail", StateCanceled: "cancel"}

// endRecord is the journal record that ends job id in a terminal state.
func endRecord(id, state string, cached bool, stats json.RawMessage, errMsg string) journalRecord {
	return journalRecord{Op: endOps[state], ID: id, Cached: cached, Stats: stats, Error: errMsg}
}

// journal is the append handle. Appends are serialized by the owning
// Server's mu.
type journal struct {
	f chaos.File
}

// replayedJob is one job reconstructed by openJournal.
type replayedJob struct {
	rec    jobRecord
	state  string // StateQueued (incl. crashed mid-run) or terminal
	cached bool
	stats  json.RawMessage
	errMsg string
}

// openJournal replays the journal in dir (tolerating a torn trailing
// line from a crash mid-append), rewrites it with the jobs it keeps,
// and reopens it for appending. historyCap bounds how many terminal
// jobs are kept; the most recently submitted are. A state dir with no
// journal file has nothing to replay and nothing is rewritten.
func openJournal(fsys chaos.FS, dir string, historyCap int) (*journal, []replayedJob, error) {
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: creating state dir: %w", err)
	}
	path := filepath.Join(dir, "jobs.journal")
	var jobs []replayedJob
	f, err := fsys.Open(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	default:
		jobs, err = replayJournal(f)
		f.Close()
		if err == nil {
			jobs, err = compactJournal(fsys, path, jobs, historyCap)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	af, err := fsys.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: opening journal: %w", err)
	}
	return &journal{f: af}, jobs, nil
}

// replayJournal reads a journal into per-job state, submit order
// preserved. A torn final line (crash mid-append) is ignored; a corrupt
// interior line is an error — that is damage, not a crash artifact.
func replayJournal(r io.Reader) ([]replayedJob, error) {
	byID := map[string]*replayedJob{}
	var order []string
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var torn string
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		if torn != "" {
			return nil, fmt.Errorf("serve: corrupt journal line (not at tail): %s", torn)
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			// Possibly a torn tail from a crash mid-append; only an
			// error if more lines follow.
			torn = fmt.Sprintf("%.80s", line)
			continue
		}
		j := byID[rec.ID]
		switch rec.Op {
		case "submit":
			if rec.Job == nil {
				return nil, fmt.Errorf("serve: journal submit record without job")
			}
			if _, dup := byID[rec.Job.ID]; dup {
				return nil, fmt.Errorf("serve: duplicate journal submit for %s", rec.Job.ID)
			}
			byID[rec.Job.ID] = &replayedJob{rec: *rec.Job, state: StateQueued}
			order = append(order, rec.Job.ID)
		case "start":
			// Written by older builds at dispatch; a job without a
			// terminal record replays as queued either way.
		// A job's last terminal record alone decides how it ended.
		case "done":
			if j != nil {
				j.state, j.cached, j.stats, j.errMsg = StateDone, rec.Cached, rec.Stats, ""
			}
		case "fail":
			if j != nil {
				j.state, j.cached, j.stats, j.errMsg = StateFailed, false, nil, rec.Error
			}
		case "cancel":
			if j != nil {
				j.state, j.cached, j.stats, j.errMsg = StateCanceled, false, nil, ""
			}
		default:
			return nil, fmt.Errorf("serve: unknown journal op %q", rec.Op)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: reading journal: %w", err)
	}
	out := make([]replayedJob, 0, len(order))
	for _, id := range order {
		out = append(out, *byID[id])
	}
	return out, nil
}

// compactJournal rewrites the journal with every non-terminal job and
// the historyCap most recently submitted terminal jobs, via tmp+rename
// so a crash mid-rewrite leaves the old journal intact. It returns the
// jobs it kept, in their original order.
func compactJournal(fsys chaos.FS, path string, jobs []replayedJob, historyCap int) ([]replayedJob, error) {
	terminal := 0
	for i := range jobs {
		if terminalState(jobs[i].state) {
			terminal++
		}
	}
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
	}
	enc := json.NewEncoder(f)
	kept := jobs[:0]
	for _, j := range jobs {
		ended := terminalState(j.state)
		if ended && terminal > historyCap {
			// Jobs are in submit order: the oldest terminal ones go.
			terminal--
			continue
		}
		err := enc.Encode(journalRecord{Op: "submit", Job: &j.rec})
		if err == nil && ended {
			err = enc.Encode(endRecord(j.rec.ID, j.state, j.cached, j.stats, j.errMsg))
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("serve: compacting journal: %w", err)
		}
		kept = append(kept, j)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("serve: compacting journal: %w", err)
	}
	syncDir(filepath.Dir(path))
	return kept, nil
}

// append durably writes one record: encode, write, fsync. The caller
// holds the Server's mu, so appends never interleave.
func (jl *journal) append(rec journalRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: encoding journal record: %w", err)
	}
	data = append(data, '\n')
	if _, err := jl.f.Write(data); err != nil {
		return fmt.Errorf("serve: appending journal: %w", err)
	}
	if err := jl.f.Sync(); err != nil {
		return fmt.Errorf("serve: syncing journal: %w", err)
	}
	return nil
}

func (jl *journal) close() error { return jl.f.Close() }

// syncDir fsyncs a directory so a rename is durable. Some filesystems
// reject directory fsync; that is not worth failing startup over.
// Directory handles stay on the real os package — chaos.FS deals in
// regular files.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// submittedTime converts a jobRecord's unix-seconds stamp back to
// time.Time.
func (r *jobRecord) submittedTime() time.Time {
	sec := int64(r.Submitted)
	nsec := int64((r.Submitted - float64(sec)) * 1e9)
	return time.Unix(sec, nsec)
}
