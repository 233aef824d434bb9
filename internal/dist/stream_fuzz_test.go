package dist

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"testing"
	"time"

	"halfprice/internal/experiments"
)

// roundTripFunc adapts a function to http.RoundTripper.
type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// FuzzWorkerStream feeds arbitrary bytes to the coordinator's NDJSON
// reader as a worker's 200 /run response. Whatever a worker sends,
// runOn must not panic, must return either Stats or an error, and must
// forward at most one start and one finish to the observer. The seed
// corpus under testdata/fuzz holds a real worker stream and its
// truncated, corrupt, error and stat-less variants.
func FuzzWorkerStream(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		c := NewCoordinator(nil, Options{
			HealthInterval: time.Hour,
			Logf:           func(string, ...any) {},
			Transport: roundTripFunc(func(r *http.Request) (*http.Response, error) {
				return &http.Response{
					StatusCode: http.StatusOK,
					Header:     http.Header{},
					Body:       io.NopCloser(bytes.NewReader(body)),
					Request:    r,
				}, nil
			}),
		})
		defer c.Close()
		req := experiments.Request{Bench: "gzip", Config: testConfig(), Budget: 2000}
		obs := &countingObserver{}
		fw := &forwarder{obs: obs, bench: req.Bench, label: req.Label(), insts: req.Budget}
		st, err := c.runOn(context.Background(), c.pool.newWorker("stub:1"), req, fw)
		if (st == nil) == (err == nil) {
			t.Fatalf("runOn returned stats %v and error %v; want exactly one", st != nil, err)
		}
		if s, fin := obs.started.Load(), obs.finished.Load(); s > 1 || fin > 1 {
			t.Fatalf("observer saw %d starts / %d finishes, want at most one each", s, fin)
		}
	})
}
