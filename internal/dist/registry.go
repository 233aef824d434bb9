package dist

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Registry is a dynamic worker-membership source: a local file, or an
// HTTP(S) endpoint answering GET, listing one worker address per line
// ("host:port" or a full URL; blank lines and #-comments ignored). The
// coordinator re-reads it on every health interval, so workers join and
// leave a running sweep without restarting it; sweepd's -register flag
// makes a worker self-announce in a file registry on start and leave it
// again on drain.
type Registry struct {
	spec string
	hc   *http.Client
}

// NewRegistry returns a registry over spec — an http(s):// URL or a
// file path.
func NewRegistry(spec string) *Registry {
	return &Registry{
		spec: strings.TrimSpace(spec),
		hc:   &http.Client{Timeout: 2 * time.Second},
	}
}

// endpoint reports whether the registry is remote (an HTTP GET away)
// rather than a local file.
func (r *Registry) endpoint() bool {
	return strings.HasPrefix(r.spec, "http://") || strings.HasPrefix(r.spec, "https://")
}

// Addrs reads the current membership. A missing registry file is an
// empty fleet, not an error: workers that register later create it.
func (r *Registry) Addrs() ([]string, error) {
	var data []byte
	if r.endpoint() {
		resp, err := r.hc.Get(r.spec)
		if err != nil {
			return nil, fmt.Errorf("registry %s: %v", r.spec, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("registry %s: status %d", r.spec, resp.StatusCode)
		}
		// A truncated or oversize listing is an error, never a smaller
		// fleet: the caller keeps its current membership instead of
		// evicting every worker past the cut.
		data, err = io.ReadAll(io.LimitReader(resp.Body, 1<<20+1))
		if err != nil {
			return nil, fmt.Errorf("registry %s: reading listing: %v", r.spec, err)
		}
		if len(data) > 1<<20 {
			return nil, fmt.Errorf("registry %s: response over 1MiB", r.spec)
		}
	} else {
		var err error
		data, err = os.ReadFile(r.spec)
		if os.IsNotExist(err) {
			return nil, nil
		}
		if err != nil {
			return nil, fmt.Errorf("registry: %v", err)
		}
	}
	return parseAddrs(string(data)), nil
}

// parseAddrs splits a registry listing into its worker addresses:
// one per line, trimmed, blank lines and #-comments skipped,
// duplicates collapsed in first-seen order.
func parseAddrs(data string) []string {
	var addrs []string
	seen := map[string]bool{}
	for _, line := range strings.Split(data, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" || seen[line] {
			continue
		}
		seen[line] = true
		addrs = append(addrs, line)
	}
	return addrs
}

// Register announces addr in a file registry by appending one line
// (O_APPEND, so concurrent workers self-announcing do not tear each
// other's lines). Registering an address that is already listed is a
// no-op. Endpoint registries are read-only from here: whatever serves
// them owns membership.
func (r *Registry) Register(addr string) error {
	if r.endpoint() {
		return fmt.Errorf("registry %s: cannot register against an HTTP registry (membership is owned by the endpoint)", r.spec)
	}
	addr = strings.TrimSpace(addr)
	if addr == "" {
		return fmt.Errorf("registry: empty address")
	}
	current, err := r.Addrs()
	if err != nil {
		return err
	}
	for _, a := range current {
		if a == addr {
			return nil
		}
	}
	f, err := os.OpenFile(r.spec, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("registry: %v", err)
	}
	_, werr := f.WriteString(addr + "\n")
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("registry: %v", werr)
	}
	return nil
}

// Deregister removes addr from a file registry, rewriting it atomically
// (tmp + rename) so concurrent readers always see a complete listing.
// A missing file or an unlisted address is a no-op.
func (r *Registry) Deregister(addr string) error {
	if r.endpoint() {
		return fmt.Errorf("registry %s: cannot deregister against an HTTP registry (membership is owned by the endpoint)", r.spec)
	}
	addr = strings.TrimSpace(addr)
	current, err := r.Addrs()
	if err != nil || current == nil {
		return err
	}
	kept := current[:0]
	for _, a := range current {
		if a != addr {
			kept = append(kept, a)
		}
	}
	if len(kept) == len(current) {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(r.spec), ".registry-*")
	if err != nil {
		return fmt.Errorf("registry: %v", err)
	}
	defer os.Remove(tmp.Name())
	for _, a := range kept {
		if _, err := fmt.Fprintln(tmp, a); err != nil {
			tmp.Close()
			return fmt.Errorf("registry: %v", err)
		}
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: %v", err)
	}
	if err := os.Rename(tmp.Name(), r.spec); err != nil {
		return fmt.Errorf("registry: %v", err)
	}
	return nil
}
