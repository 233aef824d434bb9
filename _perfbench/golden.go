package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"halfprice/internal/experiments"
)

// golden.json holds the committed outputs every run is checked
// against. Regenerate it with -generate only when a change is meant to
// alter simulation results.
//
//go:embed golden.json
var goldenJSON []byte

type golden struct {
	// PaperFull maps "ID/label" to the digest of that series of the
	// paper-full sweep. Stats must stay bit-identical.
	PaperFull map[string]string `json:"paper_full"`
	// SampledRef maps refKey(request) to the full-detail IPC of every
	// request the paper-sampled sweep makes, at its budget.
	SampledRef map[string]float64 `json:"paper_sampled_ref_ipc"`
	// ServeMenu maps menuEntry.key() to the digest of the job's Stats.
	ServeMenu map[string]string `json:"serve_menu"`
}

var (
	goldenOnce sync.Once
	goldenVal  *golden
	goldenErr  error
)

func loadGolden() (*golden, error) {
	goldenOnce.Do(func() {
		var g golden
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			goldenErr = fmt.Errorf("golden.json: %w", err)
			return
		}
		goldenVal = &g
	})
	return goldenVal, goldenErr
}

// generateGolden recomputes golden.json: the paper-full series digests,
// the full-detail reference IPC of every paper-sampled request, and the
// digest of every serve-mixed menu entry.
func generateGolden(path string) error {
	var g golden
	full := runSweep(paperFull, nil)
	g.PaperFull = seriesDigests(full.results)

	// The sampled sweep's requests are the full-detail sweep's requests
	// plus a sample spec; run the latter at the same budget.
	ref := paperSampled
	ref.sampled = false
	refSweep := runSweep(ref, nil)
	g.SampledRef = map[string]float64{}
	for _, r := range refSweep.recs {
		g.SampledRef[refKey(r.req)] = r.st.IPC()
	}

	menu := serveMenu()
	digests := make([]string, len(menu))
	if err := parallel(len(menu), func(i int) (err error) { digests[i], err = menuDigest(menu[i]); return }); err != nil {
		return err
	}
	g.ServeMenu = map[string]string{}
	for i, m := range menu {
		g.ServeMenu[m.key()] = digests[i]
	}

	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d paper-full series, %d sampled references, %d serve menu entries\n",
		path, len(g.PaperFull), len(g.SampledRef), len(g.ServeMenu))
	return nil
}

// menuDigest simulates one menu entry and hashes its Stats.
func menuDigest(m menuEntry) (string, error) {
	req, err := m.request()
	if err != nil {
		return "", err
	}
	st, err := experiments.Execute(req)
	if err != nil {
		return "", err
	}
	return statsDigest(st)
}
