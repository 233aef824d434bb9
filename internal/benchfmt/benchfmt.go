// Package benchfmt names the scheduler/register-file schemes a user can
// ask for and maps a (machine width, scheme) pair to a full machine
// description. hpserve's job submissions and the _perfbench harness both
// resolve through it, so the two agree on what "halfprice at 8 wide"
// means.
//
// The package keeps its name, which no longer fits, because the
// _perfbench module imports it under that path.
package benchfmt

import (
	"fmt"

	"halfprice/internal/uarch"
)

// Schemes names the scheduler/register-file configurations SchemeConfig
// understands, in canonical order.
func Schemes() []string {
	return []string{"base", "halfprice", "tagelim", "pipelined-rf"}
}

// SchemeConfig applies a named scheme to a width's Table 1 machine.
// It is the one mapping from the user-facing (width, scheme) pair to a
// full machine description.
func SchemeConfig(width int, scheme string) (uarch.Config, error) {
	var cfg uarch.Config
	switch width {
	case 4:
		cfg = uarch.Config4Wide()
	case 8:
		cfg = uarch.Config8Wide()
	default:
		return cfg, fmt.Errorf("benchfmt: unsupported width %d (want 4 or 8)", width)
	}
	switch scheme {
	case "base":
		// Conventional wakeup, two-port register file.
	case "halfprice":
		cfg.Wakeup = uarch.WakeupSequential
		cfg.Regfile = uarch.RFSequential
	case "tagelim":
		cfg.Wakeup = uarch.WakeupTagElim
	case "pipelined-rf":
		cfg.Regfile = uarch.RFExtraStage
	default:
		return cfg, fmt.Errorf("benchfmt: unknown scheme %q (known: %v)", scheme, Schemes())
	}
	return cfg, nil
}
