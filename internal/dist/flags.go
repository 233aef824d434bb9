package dist

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"
)

// Flags is the coordinator-side flag bundle shared by every
// sweep-driving command (figures, report, calibrate, halfprice):
// AddFlags registers the -workers/-registry/-worker-timeout/-token/
// -tls-ca/-health-interval set on the default FlagSet, and Coordinator
// turns the parsed values into a backend.
type Flags struct {
	Workers        string
	Registry       string
	Timeout        time.Duration
	Token          string
	TLSCA          string
	HealthInterval time.Duration
	Hedge          bool
}

// AddFlags registers the distributed-execution flags on the default
// flag set and returns the struct their parsed values land in.
func AddFlags() *Flags {
	f := &Flags{}
	flag.StringVar(&f.Workers, "workers", "", "comma-separated sweepd worker addresses (host:port or URL, https:// for TLS); empty = in-process execution")
	flag.StringVar(&f.Registry, "registry", "", "worker registry file listing one worker address per line, re-read while the sweep runs so workers join and leave")
	flag.DurationVar(&f.Timeout, "worker-timeout", 5*time.Minute, "per-request timeout against remote workers")
	flag.StringVar(&f.Token, "token", os.Getenv(TokenEnv), "shared auth token presented to workers (default $"+TokenEnv+")")
	flag.StringVar(&f.TLSCA, "tls-ca", "", "PEM file with CA certificate(s) to trust for https:// workers (e.g. the fleet's self-signed cert)")
	flag.DurationVar(&f.HealthInterval, "health-interval", 5*time.Second, "fleet health-probe and registry re-read period")
	flag.BoolVar(&f.Hedge, "hedge", false, "hedge slow requests: once a dispatch outlives the fleet's p95 latency estimate, race the next attempt on the next worker in ring order (first result wins)")
	return f
}

// Enabled reports whether the flags select distributed execution at
// all; when false, Coordinator returns nil and the sweep runs
// in-process.
func (f *Flags) Enabled() bool {
	return strings.TrimSpace(f.Workers) != "" || strings.TrimSpace(f.Registry) != ""
}

// Coordinator builds the coordinator the parsed flags describe. With
// neither -workers nor -registry set it returns a nil coordinator
// (leave Options.Backend nil) and a no-op closer. A -registry URL is an
// error: the registry is a file, and reading one named "http:" would
// silently yield an empty fleet. Result caching is the caller's:
// commands put a store.Tier (the Runner's, or their own) above the
// coordinator, so results are checkpointed exactly once.
func (f *Flags) Coordinator() (*Coordinator, func(), error) {
	if !f.Enabled() {
		return nil, func() {}, nil
	}
	if reg := strings.TrimSpace(f.Registry); strings.HasPrefix(reg, "http://") || strings.HasPrefix(reg, "https://") {
		return nil, nil, fmt.Errorf("-registry %s: the registry must be a file, not a URL", reg)
	}
	opts := Options{
		Timeout:        f.Timeout,
		Registry:       f.Registry,
		Token:          f.Token,
		HealthInterval: f.HealthInterval,
		Hedge:          f.Hedge,
	}
	if f.TLSCA != "" {
		tc, err := TLSConfigFromCA(f.TLSCA)
		if err != nil {
			return nil, nil, err
		}
		opts.TLS = tc
	}
	var addrs []string
	if strings.TrimSpace(f.Workers) != "" {
		addrs = strings.Split(f.Workers, ",")
	}
	c := NewCoordinator(addrs, opts)
	return c, c.Close, nil
}
