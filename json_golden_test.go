package genima_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	genima "genima"
	"genima/internal/apps"
)

// TestResultJSONGolden pins the `genima-run -json` document of three
// test-scale runs: svmkv under GeNIMA with 1% faults (every section
// populated), fft under Base on clean links (no latency, zero faults)
// and fft on the hardware-DSM model (no NI monitor, no traffic). Both
// sides are decoded to plain values before comparing, so the pin
// covers every key and value but not the key order. `go test -run
// TestResultJSONGolden -update .` rewrites testdata/result_json.
func TestResultJSONGolden(t *testing.T) {
	faulted := genima.DefaultConfig()
	faulted.Faults = genima.FaultMix(0.01, 1)
	cases := []struct {
		name string
		app  string
		run  func(genima.App) (*genima.Result, *genima.Workspace, error)
	}{
		{"svmkv_genima_faults", "svmkv", func(a genima.App) (*genima.Result, *genima.Workspace, error) {
			return genima.Run(faulted, genima.GeNIMA, a)
		}},
		{"fft_base", "fft", func(a genima.App) (*genima.Result, *genima.Workspace, error) {
			return genima.Run(genima.DefaultConfig(), genima.Base, a)
		}},
		{"fft_hw", "fft", func(a genima.App) (*genima.Result, *genima.Workspace, error) {
			return genima.RunHardware(genima.DefaultConfig(), a)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			entry, ok := apps.ByName(apps.Test, c.app)
			if !ok {
				t.Fatalf("%s not registered", c.app)
			}
			res, _, err := c.run(entry.App)
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(genima.NewResultJSON(res), "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "result_json", c.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var gotV, wantV any
			if err := json.Unmarshal(got, &gotV); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(want, &wantV); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotV, wantV) {
				t.Fatalf("-json document differs from %s:\n got %s\nwant %s", path, got, want)
			}
		})
	}
}
