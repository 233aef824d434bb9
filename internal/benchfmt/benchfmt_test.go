package benchfmt

import (
	"testing"

	"halfprice/internal/uarch"
)

func TestSchemeConfig(t *testing.T) {
	for _, width := range []int{4, 8} {
		for _, scheme := range Schemes() {
			cfg, err := SchemeConfig(width, scheme)
			if err != nil {
				t.Fatalf("%d-wide %s: %v", width, scheme, err)
			}
			if cfg.Width != width {
				t.Errorf("%d-wide %s: Width = %d", width, scheme, cfg.Width)
			}
		}
	}
	cfg, _ := SchemeConfig(4, "halfprice")
	if cfg.Wakeup != uarch.WakeupSequential || cfg.Regfile != uarch.RFSequential {
		t.Errorf("halfprice: wakeup %v, regfile %v", cfg.Wakeup, cfg.Regfile)
	}
	if _, err := SchemeConfig(6, "base"); err == nil {
		t.Error("width 6 accepted")
	}
	if _, err := SchemeConfig(4, "warp"); err == nil {
		t.Error("unknown scheme accepted")
	}
}
