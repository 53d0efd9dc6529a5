package topo

import (
	"strings"
	"testing"
)

func TestParseTopoVocabulary(t *testing.T) {
	for s, want := range map[string]TopoKind{
		"xbar": TopoXbar, "xbar8": TopoXbar,
		"clos2": TopoClos2, "fattree": TopoFatTree,
	} {
		got, err := ParseTopo(s)
		if err != nil || got != want {
			t.Errorf("ParseTopo(%q) = %v, %v", s, got, err)
		}
		if rt, _ := ParseTopo(got.String()); rt != got {
			t.Errorf("%v does not round-trip through String", got)
		}
	}
	if _, err := ParseTopo("torus"); err == nil || !strings.Contains(err.Error(), "torus") {
		t.Errorf("bad topology accepted: %v", err)
	}
}

// TestValidateFabricErrorMessages pins the actionable content of each
// new rejection: the message must name the offending knob and value.
func TestValidateFabricErrorMessages(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"odd radix", func(c *Config) { c.Topo = TopoClos2; c.SwitchRadix = 7 },
			"even SwitchRadix >= 4, got 7"},
		{"tiny radix", func(c *Config) { c.Topo = TopoFatTree; c.SwitchRadix = 2 },
			"even SwitchRadix >= 4, got 2"},
		{"over clos2 capacity", func(c *Config) { c.Topo = TopoClos2; c.SwitchRadix = 4; c.Nodes = 9 },
			"holds at most 8 nodes, got Nodes = 9"},
		{"over fattree capacity", func(c *Config) { c.Topo = TopoFatTree; c.SwitchRadix = 4; c.Nodes = 17 },
			"holds at most 16 nodes, got Nodes = 17"},
		{"unknown kind", func(c *Config) { c.Topo = TopoKind(9) },
			"Topo = 9 invalid"},
		{"arity", func(c *Config) { c.Collectives = true; c.CollectiveArity = 1 },
			"CollectiveArity >= 2, got 1"},
		{"vector vs packet", func(c *Config) {
			c.Collectives = true
			c.Topo = TopoClos2
			c.SwitchRadix = 64
			c.Nodes = 1024
		}, "8*Nodes = 8192 bytes"},
		{"zero lookahead", func(c *Config) { c.IntraRunWorkers = 4; c.Costs.SwitchFixed = 0 },
			"lookahead"},
	}
	for _, tc := range cases {
		cfg := Default()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q lacks %q", tc.name, err, tc.want)
		}
	}
}

// route returns the switch ids of the src->dst route, in order.
func route(d *FabricDesc, src, dst int) []int16 {
	var r [MaxRoute]int16
	return r[:d.Route(src, dst, &r)]
}

// checkAllPairs verifies reachability and structural sanity of every
// route: correct endpoints, in-range switch ids, stages
// climbing then descending, and hop counts within the diameter.
func checkAllPairs(t *testing.T, d *FabricDesc, nodes int) {
	t.Helper()
	for s := 0; s < nodes; s++ {
		for dst := 0; dst < nodes; dst++ {
			r := route(d, s, dst)
			if len(r) < 1 || len(r) > d.MaxHops() {
				t.Fatalf("route %d->%d has %d hops (max %d)", s, dst, len(r), d.MaxHops())
			}
			if r[0] != d.FirstSwitch(s) {
				t.Fatalf("route %d->%d enters %d, FirstSwitch says %d", s, dst, r[0], d.FirstSwitch(s))
			}
			if last := r[len(r)-1]; last != d.FirstSwitch(dst) {
				t.Fatalf("route %d->%d exits %d, not dst's edge %d", s, dst, last, d.FirstSwitch(dst))
			}
			for i, sw := range r {
				if sw < 0 || int(sw) >= d.NumSwitches {
					t.Fatalf("route %d->%d hop %d: switch %d out of range", s, dst, i, sw)
				}
				// Stages rise to the apex then fall: stage(hop i) equals
				// min(i, len-1-i) for every shortest path here.
				want := i
				if o := len(r) - 1 - i; o < want {
					want = o
				}
				if int(d.SwitchStage[sw]) != want {
					t.Fatalf("route %d->%d hop %d: switch %d stage %d, want %d",
						s, dst, i, sw, d.SwitchStage[sw], want)
				}
			}
		}
	}
}

func TestRoutingAllPairs(t *testing.T) {
	cases := []struct {
		topo  TopoKind
		radix int
		nodes int
	}{
		{TopoXbar, 0, 8},
		{TopoClos2, 4, 4},    // partially populated leaves
		{TopoClos2, 4, 8},    // full
		{TopoClos2, 8, 21},   // ragged last leaf
		{TopoFatTree, 4, 16}, // full 3-level
		{TopoFatTree, 4, 10}, // ragged pods
	}
	for _, tc := range cases {
		cfg := Default()
		cfg.Topo, cfg.SwitchRadix, cfg.Nodes = tc.topo, tc.radix, tc.nodes
		d := cfg.Fabric()
		if d.Kind != tc.topo {
			t.Errorf("%v: built kind %v", tc.topo, d.Kind)
		}
		checkAllPairs(t, d, tc.nodes)
	}
}

func TestFabricCapacity(t *testing.T) {
	for _, tc := range []struct {
		kind  TopoKind
		radix int
		want  int
	}{
		{TopoXbar, 8, 0}, // unlimited
		{TopoClos2, 8, 32},
		{TopoClos2, 32, 512},
		{TopoFatTree, 8, 128},
		{TopoFatTree, 16, 1024},
	} {
		if got := FabricCapacity(tc.kind, tc.radix); got != tc.want {
			t.Errorf("FabricCapacity(%v, %d) = %d, want %d", tc.kind, tc.radix, got, tc.want)
		}
	}
}
