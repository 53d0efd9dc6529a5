package genima

// White-box pin for the scale sweep's protocol set.

import (
	"fmt"
	"testing"

	"genima/internal/apps"
	"genima/internal/checkpoint"
)

// TestScaleSweepDWMatchesGeNIMA pins why ScaleSweep runs GeNIMA and not
// DW: on barrierbench, at every TestScale sweep point, flat and tree,
// the two rungs produce the same canonical trace hash, which folds in
// Elapsed and Events. If this fails, DW belongs back in the sweep.
func TestScaleSweepDWMatchesGeNIMA(t *testing.T) {
	for _, nodes := range ScaleSweepNodes(TestScale) {
		for _, tree := range []bool{false, true} {
			t.Run(fmt.Sprintf("%dn/tree=%v", nodes, tree), func(t *testing.T) {
				t.Parallel()
				kinds := []Protocol{DW, GeNIMA}
				var hashes [2]string
				var runs [2]*Result
				if err := parallelFor(2, 2, func(i int) error {
					e, _ := apps.ByName(TestScale, "barrierbench")
					h := checkpoint.NewTraceHasher()
					res, _, err := RunTraced(scaleSweepConfig(nodes, 32, tree, 1), kinds[i], e.App, h.Add)
					if err != nil {
						return fmt.Errorf("%v: %w", kinds[i], err)
					}
					hashes[i], runs[i] = h.Final(res.Elapsed, res.Events), res
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if hashes[0] != hashes[1] {
					t.Errorf("DW trace %s (%d ns, %d events) != GeNIMA %s (%d ns, %d events)",
						hashes[0], runs[0].Elapsed, runs[0].Events,
						hashes[1], runs[1].Elapsed, runs[1].Events)
				}
			})
		}
	}
}
