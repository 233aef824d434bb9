package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"halfprice/internal/chaos"
)

// runChild runs this binary (or another program) to completion and
// returns its trimmed standard output; standard error passes through.
func runChild(prog string, args ...string) (string, error) {
	cmd := exec.Command(prog, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", err
	}
	return strings.TrimSpace(out.String()), nil
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rssSampler records the process's resident set every rssPeriod, so a
// run can report the median of several windows' peaks: one window's
// peak depends on where garbage collections happen to fall.
type rssSampler struct {
	mu      sync.Mutex
	at      []time.Time
	mb      []float64
	stop    chan struct{}
	stopped chan struct{}
}

const rssPeriod = 5 * time.Millisecond

// startRSS starts sampling; stop it with close. Where /proc/self/statm
// cannot be read, it records nothing and peak falls back to the whole
// process's peak.
func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), stopped: make(chan struct{})}
	go func() {
		defer close(s.stopped)
		t := time.NewTicker(rssPeriod)
		defer t.Stop()
		for {
			if mb, ok := residentMB(); ok {
				s.mu.Lock()
				s.at = append(s.at, time.Now())
				s.mb = append(s.mb, mb)
				s.mu.Unlock()
			}
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) close() {
	close(s.stop)
	<-s.stopped
}

// peak returns the largest resident set sampled in [from, to], in MB.
func (s *rssSampler) peak(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.mb) == 0 {
		return peakRSSMB()
	}
	m := 0.0
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			m = math.Max(m, s.mb[i])
		}
	}
	return m
}

// residentMB reads the process's current resident set.
func residentMB() (float64, bool) {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, false
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0, false
	}
	pages, err := strconv.ParseUint(f[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(pages) * float64(os.Getpagesize()) / (1 << 20), true
}

// gcSample reads the Go runtime's cumulative GC and total CPU estimates.
type gcSample struct{ gc, total float64 }

func readGC() gcSample {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return gcSample{gc: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// gcFrac is the share of the runtime's CPU estimate spent in GC since a.
func gcFrac(a gcSample) float64 {
	b := readGC()
	return ratio(b.gc-a.gc, b.total-a.total)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// digest is a short content hash for golden comparisons.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s;", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// timedFS wraps a chaos.FS and accumulates the wall time spent inside
// it, file reads, writes, syncs and closes included.
type timedFS struct {
	base chaos.FS
	ns   *atomic.Int64
}

func newTimedFS() timedFS { return timedFS{base: chaos.OS{}, ns: new(atomic.Int64)} }

func (f timedFS) since(t time.Time) { f.ns.Add(int64(time.Since(t))) }

func (f timedFS) MkdirAll(path string, perm os.FileMode) error {
	defer f.since(time.Now())
	return f.base.MkdirAll(path, perm)
}

func (f timedFS) Open(name string) (chaos.File, error) {
	defer f.since(time.Now())
	return f.wrap(f.base.Open(name))
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (chaos.File, error) {
	defer f.since(time.Now())
	return f.wrap(f.base.OpenFile(name, flag, perm))
}

func (f timedFS) CreateTemp(dir, pattern string) (chaos.File, error) {
	defer f.since(time.Now())
	return f.wrap(f.base.CreateTemp(dir, pattern))
}

func (f timedFS) ReadFile(name string) ([]byte, error) {
	defer f.since(time.Now())
	return f.base.ReadFile(name)
}

func (f timedFS) Rename(oldpath, newpath string) error {
	defer f.since(time.Now())
	return f.base.Rename(oldpath, newpath)
}

func (f timedFS) Remove(name string) error {
	defer f.since(time.Now())
	return f.base.Remove(name)
}

func (f timedFS) Stat(name string) (os.FileInfo, error) {
	defer f.since(time.Now())
	return f.base.Stat(name)
}

func (f timedFS) wrap(file chaos.File, err error) (chaos.File, error) {
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, fs: f}, nil
}

func (f timedFS) ms() float64 { return float64(f.ns.Load()) / 1e6 }

type timedFile struct {
	chaos.File
	fs timedFS
}

func (t timedFile) Read(p []byte) (int, error) {
	defer t.fs.since(time.Now())
	return t.File.Read(p)
}

func (t timedFile) Write(p []byte) (int, error) {
	defer t.fs.since(time.Now())
	return t.File.Write(p)
}

func (t timedFile) Sync() error {
	defer t.fs.since(time.Now())
	return t.File.Sync()
}

func (t timedFile) Close() error {
	defer t.fs.since(time.Now())
	return t.File.Close()
}
