package dist

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Registry is a dynamic worker-membership file listing one worker
// address per line ("host:port" or a full URL; blank lines and
// #-comments ignored). The coordinator re-reads it on every health
// interval, so workers join and leave a running sweep without
// restarting it; sweepd's -register flag makes a worker self-announce
// in it on start and leave it again on drain.
type Registry struct {
	spec string
}

// NewRegistry returns a registry over the file at spec.
func NewRegistry(spec string) *Registry {
	return &Registry{spec: strings.TrimSpace(spec)}
}

// Addrs reads the current membership. A missing registry file is an
// empty fleet, not an error: workers that register later create it.
func (r *Registry) Addrs() ([]string, error) {
	data, err := os.ReadFile(r.spec)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("registry: %v", err)
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

// Register announces addr in the registry by appending one line
// (O_APPEND, so concurrent workers self-announcing do not tear each
// other's lines). Registering an address that is already listed is a
// no-op.
func (r *Registry) Register(addr string) error {
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

// Deregister removes addr from the registry, rewriting it atomically
// (tmp + rename) so concurrent readers always see a complete listing.
// A missing file or an unlisted address is a no-op.
func (r *Registry) Deregister(addr string) error {
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
