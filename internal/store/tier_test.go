package store

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"halfprice/internal/uarch"
)

// memLen reports how many calls the tier's memory holds.
func memLen(t *Tier) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.calls)
}

// counted returns a compute that yields st and counts its calls.
func counted(st *uarch.Stats, n *atomic.Int64) func() (*uarch.Stats, error) {
	return func() (*uarch.Stats, error) {
		n.Add(1)
		return st, nil
	}
}

// TestTierSources walks one key down the chain: a compute, a memory hit
// on the same tier, and a disk hit from a fresh tier over the same
// directory — the restart case — with Lookup agreeing at each step.
func TestTierSources(t *testing.T) {
	dir := t.TempDir()
	want := simStats(t, "gzip")
	var computes atomic.Int64

	tier := NewTier(open(t, dir, "fp"), 0)
	if _, _, ok := tier.Lookup("k"); ok {
		t.Fatal("Lookup on an empty tier must miss")
	}
	st, src, err := tier.Do("k", counted(want, &computes))
	if err != nil || src != Computed || st != want {
		t.Fatalf("first Do: src=%v err=%v", src, err)
	}
	st, src, err = tier.Do("k", counted(want, &computes))
	if err != nil || src != Memory || st != want {
		t.Fatalf("second Do: src=%v err=%v, want a memory hit on the same *Stats", src, err)
	}
	if _, src, ok := tier.Lookup("k"); !ok || src != Memory {
		t.Fatalf("Lookup after Do: ok=%v src=%v, want Memory", ok, src)
	}

	fresh := NewTier(open(t, dir, "fp"), 0)
	if _, src, ok := fresh.Lookup("k"); !ok || src != Disk {
		t.Fatalf("fresh Lookup: ok=%v src=%v, want Disk", ok, src)
	}
	st, src, err = fresh.Do("k", counted(want, &computes))
	if err != nil || src != Disk {
		t.Fatalf("fresh Do: src=%v err=%v, want Disk", src, err)
	}
	if st.Cycles != want.Cycles || st.Committed != want.Committed {
		t.Fatal("disk hit diverged from the computed result")
	}
	if got := computes.Load(); got != 1 {
		t.Fatalf("computed %d times, want 1", got)
	}
}

// TestTierSingleflight: concurrent Do calls on one key compute once;
// the leader reports Computed, every other caller Memory, and all of
// them share the leader's *Stats.
func TestTierSingleflight(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			var st *Store
			if disk {
				st = open(t, t.TempDir(), "fp")
			}
			tier := NewTier(st, 0)
			want := simStats(t, "mcf")
			gate := make(chan struct{})
			var computes atomic.Int64
			compute := func() (*uarch.Stats, error) {
				computes.Add(1)
				<-gate
				return want, nil
			}

			const n = 16
			var wg sync.WaitGroup
			results := make([]*uarch.Stats, n)
			sources := make([]Source, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					st, src, err := tier.Do("k", compute)
					if err != nil {
						t.Error(err)
					}
					results[i], sources[i] = st, src
				}(i)
			}
			close(gate)
			wg.Wait()
			if got := computes.Load(); got != 1 {
				t.Fatalf("computed %d times, want 1", got)
			}
			leaders := 0
			for i := range results {
				if results[i] != want {
					t.Fatalf("caller %d got a different *Stats", i)
				}
				if sources[i] == Computed {
					leaders++
				} else if sources[i] != Memory {
					t.Fatalf("caller %d source %v, want Computed or Memory", i, sources[i])
				}
			}
			if leaders != 1 {
				t.Fatalf("%d callers reported Computed, want 1", leaders)
			}
		})
	}
}

// TestTierBoundedEviction: with memCap 3, a tier serving many distinct
// keys keeps at most three completed results, evicted oldest-first,
// while resident entries still dedup — and a call still in flight is
// never evicted, however many others complete around it.
func TestTierBoundedEviction(t *testing.T) {
	tier := NewTier(nil, 3)
	var computes atomic.Int64
	key := func(i int) string { return fmt.Sprintf("k%d", i) }
	st := &uarch.Stats{}
	const runs = 10
	for i := 0; i < runs; i++ {
		if _, _, err := tier.Do(key(i), counted(st, &computes)); err != nil {
			t.Fatal(err)
		}
	}
	if got := memLen(tier); got != 3 {
		t.Fatalf("memory holds %d entries after %d distinct runs, want cap 3", got, runs)
	}
	if got := computes.Load(); got != runs {
		t.Fatalf("computed %d times, want %d", got, runs)
	}

	// A resident key is a memory hit...
	if _, src, _ := tier.Do(key(runs-1), counted(st, &computes)); src != Memory {
		t.Fatalf("resident key source %v, want Memory", src)
	}
	if got := computes.Load(); got != runs {
		t.Fatalf("resident key recomputed: %d computes, want %d", got, runs)
	}
	// ...an evicted one computes again, and memory stays bounded.
	if _, src, _ := tier.Do(key(0), counted(st, &computes)); src != Computed {
		t.Fatalf("evicted key source %v, want Computed", src)
	}
	if got := memLen(tier); got != 3 {
		t.Fatalf("memory grew past its cap: %d", got)
	}

	// An in-flight call survives any number of completions.
	started, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan Source, 1)
	go func() {
		_, src, _ := tier.Do("slow", func() (*uarch.Stats, error) {
			close(started)
			<-gate
			return st, nil
		})
		leader <- src
	}()
	<-started
	for i := runs; i < runs+5; i++ {
		if _, _, err := tier.Do(key(i), counted(st, &computes)); err != nil {
			t.Fatal(err)
		}
	}
	joined := make(chan Source, 1)
	go func() {
		_, src, _ := tier.Do("slow", func() (*uarch.Stats, error) {
			t.Error("in-flight call was evicted: a duplicate computed it again")
			return st, nil
		})
		joined <- src
	}()
	close(gate)
	if src := <-leader; src != Computed {
		t.Fatalf("slow leader source %v, want Computed", src)
	}
	if src := <-joined; src != Memory {
		t.Fatalf("duplicate of the in-flight call source %v, want Memory", src)
	}
	if got := memLen(tier); got != 3 {
		t.Fatalf("memory holds %d entries, want cap 3", got)
	}
}

// TestTierFailureReachesOnlyLeader: a failed compute's error goes to
// its own caller only. Callers waiting on it retry, one of them
// computes, and all of them succeed; nothing about the failure is
// remembered.
func TestTierFailureReachesOnlyLeader(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			var s *Store
			if disk {
				s = open(t, t.TempDir(), "fp")
			}
			tier := NewTier(s, 0)
			boom := errors.New("deadline spent")
			started, gate := make(chan struct{}), make(chan struct{})
			leaderErr := make(chan error, 1)
			go func() {
				_, _, err := tier.Do("k", func() (*uarch.Stats, error) {
					close(started)
					<-gate
					return nil, boom
				})
				leaderErr <- err
			}()
			<-started

			want := &uarch.Stats{Cycles: 42}
			var computes atomic.Int64
			const n = 8
			var wg sync.WaitGroup
			sources := make([]Source, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					st, src, err := tier.Do("k", counted(want, &computes))
					if err != nil || st.Cycles != want.Cycles {
						t.Errorf("waiter %d: st=%v err=%v, want the retried success", i, st, err)
					}
					sources[i] = src
				}(i)
			}
			// The assertions below hold whether a waiter joined the
			// failing call or arrived after it; the pause only makes
			// the join-then-retry path the one usually taken.
			time.Sleep(20 * time.Millisecond)
			close(gate)
			if err := <-leaderErr; !errors.Is(err, boom) {
				t.Fatalf("leader error %v, want %v", err, boom)
			}
			wg.Wait()
			if got := computes.Load(); got != 1 {
				t.Fatalf("waiters computed %d times after the failure, want 1", got)
			}
			leaders := 0
			for _, src := range sources {
				if src == Computed {
					leaders++
				}
			}
			if leaders != 1 {
				t.Fatalf("%d waiters reported Computed, want exactly 1 new leader", leaders)
			}
		})
	}
}

// TestTierPanicIsError: a panicking compute returns "simulation panic"
// to its caller, is not memoised, releases any disk lock, and leaves
// the tier usable for the next call on the same key.
func TestTierPanicIsError(t *testing.T) {
	for _, disk := range []bool{false, true} {
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			var s *Store
			if disk {
				s = open(t, t.TempDir(), "fp")
			}
			tier := NewTier(s, 0)
			_, _, err := tier.Do("k", func() (*uarch.Stats, error) { panic("bad kernel") })
			if err == nil || !strings.Contains(err.Error(), "simulation panic: bad kernel") {
				t.Fatalf("panic surfaced as %v, want a simulation panic error", err)
			}
			if _, _, ok := tier.Lookup("k"); ok {
				t.Fatal("a panicked compute must not be memoised")
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				st, src, err := tier.Do("k", func() (*uarch.Stats, error) { return &uarch.Stats{}, nil })
				if err != nil || st == nil || src != Computed {
					t.Errorf("Do after a panic: st=%v src=%v err=%v", st, src, err)
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("Do after a panic blocked; the panicked call was never resolved")
			}
		})
	}
}
