package topo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// TestRoutesGolden pins every route of a set of fabric shapes, with
// each node's FirstSwitch and every switch's stage, as one hash per
// shape. The structural checks in fabric_test.go accept any valid
// shortest path; this test pins the routing rule itself (which spine,
// which aggregation and core switch), which no trace golden does: a
// rotated spine or aggregation choice keeps barrierbench and svmkv
// contention symmetric, so their hashes do not move.
func TestRoutesGolden(t *testing.T) {
	cases := []struct {
		name  string
		topo  TopoKind
		radix int
		nodes int
		want  string
	}{
		{"xbar8/8", TopoXbar, 0, 8, "c931550cbc76c0eb"},
		{"clos2-r8/30", TopoClos2, 8, 30, "8b056e485faae4b1"},
		{"clos2-r8/32", TopoClos2, 8, 32, "c6fef0e00a10789e"},
		{"clos2-r16/128", TopoClos2, 16, 128, "532f9c455b552a2f"},
		{"clos2-r32/64", TopoClos2, 32, 64, "4d7339799ba2e575"},
		{"fattree-r4/13", TopoFatTree, 4, 13, "5c80e419bc679cb7"},
		{"fattree-r4/16", TopoFatTree, 4, 16, "a5ccd6775b56f29d"},
		{"fattree-r8/100", TopoFatTree, 8, 100, "5af4639336cf6cff"},
		{"fattree-r8/128", TopoFatTree, 8, 128, "ec9bb74f28a6b10d"},
		{"fattree-r16/512", TopoFatTree, 16, 512, "a38632b69b252a56"},
	}
	for _, tc := range cases {
		cfg := Default()
		cfg.Topo, cfg.SwitchRadix, cfg.Nodes = tc.topo, tc.radix, tc.nodes
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		d := cfg.Fabric()
		h := sha256.New()
		put := func(v int) { h.Write(binary.LittleEndian.AppendUint32(nil, uint32(v))) }
		put(d.NumSwitches)
		put(d.NumStages)
		put(d.MaxHops())
		for _, st := range d.SwitchStage {
			put(int(st))
		}
		for s := 0; s < tc.nodes; s++ {
			put(int(d.FirstSwitch(s)))
			for dst := 0; dst < tc.nodes; dst++ {
				r := route(d, s, dst)
				put(len(r))
				for _, sw := range r {
					put(int(sw))
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != tc.want {
			t.Errorf("%s: routes hash %s, want %s", tc.name, got, tc.want)
		}
	}
}
