// Package dist distributes the experiment sweep across processes and
// machines: a worker daemon (cmd/sweepd) exposes an HTTP/JSON API that
// executes serialized simulation requests, and a Coordinator implements
// the experiments.Backend seam over a fleet of such workers, so every
// sweep-driving command gains a -workers flag with zero changes to
// experiment code.
//
// Wire protocol (all JSON):
//
//   - POST /run — body is one experiments.Request; the response is an
//     NDJSON stream of Messages: "start" and "finish" progress events
//     (the progress.Event wire format, re-merged into the coordinator's
//     display) followed by a terminal "result" line carrying the
//     uarch.Stats, or an "error" line.
//   - GET /healthz — worker liveness; 200 with a Health body while
//     serving, 503 once draining. The coordinator's health checker
//     evicts workers that stop answering and re-admits them when they
//     recover.
//   - POST /drain — stop accepting new /run requests (in-flight runs
//     complete); used for graceful decommissioning.
//
// Fleet security: a worker started with -token (or $HALFPRICE_TOKEN)
// requires "Authorization: Bearer <token>" on /run and /drain and
// answers 401 otherwise, so an exposed worker cannot be fed arbitrary
// work; /healthz stays open for probes. With -tls-cert/-tls-key the
// worker serves HTTPS, and the coordinator reaches it through an
// https:// address (trusting a self-signed fleet cert via -tls-ca).
//
// Fleet membership: besides the static -workers list, a coordinator
// can follow a registry (-registry) — a file listing one worker
// address per line — re-read on every health interval, so
// workers join and leave a running sweep. sweepd -register makes a
// worker self-announce in a file registry on start and leave it on
// drain.
//
// Determinism: a worker executes requests through exactly the same
// in-process path as a local sweep (experiments.Execute), every run owns
// its seeded RNG, and uarch.Stats round-trips losslessly through JSON —
// so remote results are bit-identical to local ones. The coordinator is
// fault-tolerant on top: per-request timeouts, bounded retries with
// exponential backoff and jitter, health-check-driven worker eviction,
// re-dispatch of work lost to a dead worker, and graceful degradation to
// local execution when no worker is reachable. Requests shard by key
// onto a preferred worker (memo affinity); retries and optional hedges
// walk on round the worker ring from there. None of it affects results,
// only where they are computed.
package dist

import (
	"hash/fnv"

	"halfprice/internal/progress"
	"halfprice/internal/uarch"
)

// Endpoint paths of the sweepd worker API.
const (
	RunPath     = "/run"
	HealthzPath = "/healthz"
	DrainPath   = "/drain"
)

// Message is one NDJSON line of a /run response stream. Progress lines
// ("start", "finish") embed the progress.Event wire format — T and the
// counters are worker-local and informational; the coordinator re-bases
// forwarded events onto its own tracker. The terminal line is either
// "result" with Stats set or "error" with Error set.
type Message struct {
	progress.Event
	Stats *uarch.Stats `json:"stats,omitempty"`
	Error string       `json:"error,omitempty"`
}

// Kind returns the message's event kind ("start", "finish", "result",
// "error").
func (m Message) Kind() string { return m.Event.Event }

// Health is the /healthz (and /drain) response body.
type Health struct {
	OK       bool   `json:"ok"`
	Draining bool   `json:"draining"`
	Running  int64  `json:"running"` // requests holding a simulation slot
	Done     uint64 `json:"done"`    // requests completed since start
	Sims     uint64 `json:"sims"`    // simulations actually executed (memo misses)
}

// shard maps a canonical request key onto a stable 32-bit shard value.
// The coordinator uses it to give every request key a preferred worker, so
// repeated and concurrent requests for the same simulation land on the
// same machine (fleet-level singleflight affinity: that worker's memo
// cache already holds or is computing the result).
func shard(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}
