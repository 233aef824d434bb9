package store

import (
	"fmt"
	"sync"

	"halfprice/internal/uarch"
)

// Source reports which layer of a Tier served a result.
type Source int

const (
	// Computed means the caller's own compute produced the result.
	Computed Source = iota
	// Memory means the result came from the tier's memory, possibly
	// after waiting for another caller's compute of the same key.
	Memory
	// Disk means the result came from the durable store: an earlier run,
	// or another process sharing the directory, committed it.
	Disk
)

// DaemonMemCap bounds the memory tier of the long-lived daemons (sweepd
// workers and hpserve): enough to serve a whole sweep's worth of
// duplicates, small enough that a daemon serving many sweeps holds a
// bounded number of Stats.
const DaemonMemCap = 512

// Tier is the sweep engine's one read-through result chain: memory,
// then disk (the Store, when one is given), then the caller's compute.
// Concurrent calls for one key share a single compute (singleflight).
//
// Failure policy: a success is memoised and shared with every caller; a
// failure — a returned error, or a panic recovered as the error
// "simulation panic: <v>" — reaches only the caller whose compute
// produced it and is never memoised. Callers that were waiting on a
// failed compute retry, and one of them becomes the next leader, so one
// caller's expired deadline never fails another's identical request.
//
// Methods are safe for concurrent use.
type Tier struct {
	disk   *Store
	memCap int

	mu    sync.Mutex
	calls map[string]*call
	done  []string // completed keys, oldest first; kept only when memCap > 0
}

// call is one singleflight slot: done closes once st or err is valid.
// Only successful calls stay in the map after done closes.
type call struct {
	done chan struct{}
	st   *uarch.Stats
	err  error
}

// NewTier returns a tier over disk; a nil disk makes it memory only.
// memCap > 0 bounds how many completed results memory keeps, evicting
// the oldest completed first; in-flight calls are never evicted, so
// concurrent duplicates always find their leader. memCap <= 0 keeps
// every result.
func NewTier(disk *Store, memCap int) *Tier {
	return &Tier{disk: disk, memCap: memCap, calls: make(map[string]*call)}
}

// Do returns key's result from memory, else from disk, else by calling
// compute, and reports which of the three served it. Disk reads, the
// cross-process lock election and writes go through Store.GetOrCompute.
func (t *Tier) Do(key string, compute func() (*uarch.Stats, error)) (*uarch.Stats, Source, error) {
	for {
		t.mu.Lock()
		c, ok := t.calls[key]
		if !ok {
			c = &call{done: make(chan struct{})}
			t.calls[key] = c
		}
		t.mu.Unlock()
		if !ok {
			return t.lead(key, c, compute)
		}
		<-c.done
		if c.err == nil {
			return c.st, Memory, nil
		}
		// The leader's failure is its own: retry, and the first waiter
		// back in becomes the next leader.
	}
}

// lead runs the disk and compute layers for the call this goroutine
// registered, then publishes the outcome: a success stays in memory
// (subject to memCap), a failure leaves the map so the next caller
// starts afresh.
func (t *Tier) lead(key string, c *call, compute func() (*uarch.Stats, error)) (*uarch.Stats, Source, error) {
	src := Computed
	if t.disk != nil {
		var cached bool
		c.st, cached, c.err = t.disk.GetOrCompute(key, recovered(compute))
		if cached {
			src = Disk
		}
	} else {
		c.st, c.err = recovered(compute)()
	}
	t.mu.Lock()
	if c.err != nil {
		delete(t.calls, key)
	} else if t.memCap > 0 {
		t.done = append(t.done, key)
		for len(t.done) > t.memCap {
			delete(t.calls, t.done[0])
			t.done = t.done[1:]
		}
	}
	t.mu.Unlock()
	close(c.done)
	if c.err != nil {
		return nil, Computed, c.err
	}
	return c.st, src, nil
}

// Lookup returns key's result if memory or disk already holds it,
// without computing or waiting on a compute in flight.
func (t *Tier) Lookup(key string) (*uarch.Stats, Source, bool) {
	t.mu.Lock()
	c, ok := t.calls[key]
	t.mu.Unlock()
	if ok {
		select {
		case <-c.done:
			return c.st, Memory, true
		default:
		}
	}
	if t.disk != nil {
		if st, ok := t.disk.Get(key); ok {
			return st, Disk, true
		}
	}
	return nil, Computed, false
}

// recovered wraps compute so a panic inside it becomes that caller's
// error instead of unwinding through the tier with the call unresolved.
func recovered(compute func() (*uarch.Stats, error)) func() (*uarch.Stats, error) {
	return func() (st *uarch.Stats, err error) {
		defer func() {
			if p := recover(); p != nil {
				st, err = nil, fmt.Errorf("simulation panic: %v", p)
			}
		}()
		return compute()
	}
}
