package topo

import (
	"testing"

	"genima/internal/sim"
)

func TestDefaultIsValidAndPaperShaped(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.Nodes != 4 || cfg.ProcsPerNode != 4 {
		t.Errorf("default cluster %dx%d, want the paper's 4x4", cfg.Nodes, cfg.ProcsPerNode)
	}
	if cfg.PageSize != 4096 || cfg.MaxPacket != 4096 {
		t.Errorf("page/packet = %d/%d, want 4096/4096", cfg.PageSize, cfg.MaxPacket)
	}
	if cfg.NumProcs() != 16 {
		t.Errorf("NumProcs = %d", cfg.NumProcs())
	}
}

func TestCostCalibrationAnchors(t *testing.T) {
	c := DefaultCosts()
	if c.PostOverhead != sim.Micro(2) {
		t.Errorf("post overhead = %v, paper says ~2 us", c.PostOverhead)
	}
	// The interrupt path must dwarf the NI firmware services — the
	// paper's whole premise.
	if c.Interrupt < 5*c.NILockService {
		t.Errorf("interrupt (%v) not much larger than NI lock service (%v)", c.Interrupt, c.NILockService)
	}
	if c.MprotectPerPage >= c.MprotectBase {
		t.Error("coalesced mprotect page cost should be below the base call cost")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.ProcsPerNode = 0 },
		func(c *Config) { c.PageSize = 1001 },     // not a word multiple
		func(c *Config) { c.PageSize = 3 * 1024 }, // a word multiple, not a power of two
		func(c *Config) { c.MaxPacket = 1 },
		func(c *Config) { c.PostQueueDepth = 0 },
		func(c *Config) { c.SendPipelining = 0 },
	}
	for i, mutate := range bad {
		cfg := Default()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}
