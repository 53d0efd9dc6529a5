package genima_test

// TestDeterminismLint type-checks the non-test Go files of the root
// package and of every package under internal/ and rejects the
// constructs that make a simulation depend on something other than its
// inputs: ranging over a map (Go randomizes the order), reading the
// wall clock (time.Now), math/rand (unseeded or shared generators;
// the simulator draws from internal/rng), sync.Pool (its per-P caches
// hand out records in scheduling-dependent order) and go statements
// (the engine is single-threaded by design). The few sites where one
// of these is harmless are listed, each with the reason it cannot leak
// into a result.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// determinismAllowed maps "file: construct in function" to the reason
// the site is safe.
var determinismAllowed = map[string]string{
	"internal/nic/monitor.go: range over map in Monitor.TopKinds": "the rows are sorted by (packets, kind) before they are returned",
	"internal/sim/digest.go: range over map in SortedKeys":        "the keys are sorted before they are returned",
	"soak.go: time.Now in Soak":                                   "wall-clock telemetry for SoakRecord.WallMS, kept out of the verification chain",
	"parallel.go: go statement in parallelFor":                    "the across-run worker pool; each run is share-nothing and its result lands by index",
	"internal/sim/plp.go: go statement in Cluster.runRound":       "intra-run PDES workers; each LP runs single-threaded and the barrier merges in key order",
}

// listedPackage is the part of `go list -json` output the lint reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

func TestDeterminismLint(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the lint needs the go command to find export data: %v", err)
	}
	cmd := exec.Command(goBin, "list", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", ".", "./internal/...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	var targets []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard && (p.ImportPath == "genima" || strings.HasPrefix(p.ImportPath, "genima/internal/")) {
			targets = append(targets, p)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok || f == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	found := map[string][]string{} // site -> positions
	for _, p := range targets {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
		if _, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			rel, err := filepath.Rel(root, fset.File(f.Pos()).Name())
			if err != nil {
				t.Fatal(err)
			}
			report := func(pos token.Pos, what, fn string) {
				site := fmt.Sprintf("%s: %s in %s", filepath.ToSlash(rel), what, fn)
				found[site] = append(found[site], fset.Position(pos).String())
			}
			for _, is := range f.Imports {
				if path := strings.Trim(is.Path.Value, `"`); path == "math/rand" || path == "math/rand/v2" {
					report(is.Pos(), "import of "+path, "file scope")
				}
			}
			for _, d := range f.Decls {
				fn := "package scope"
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn = funcName(fd)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.RangeStmt:
						if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
							report(n.Pos(), "range over map", fn)
						}
					case *ast.GoStmt:
						report(n.Pos(), "go statement", fn)
					case *ast.Ident:
						if obj := info.Uses[n]; obj != nil && obj.Pkg() != nil {
							switch obj.Pkg().Path() + "." + obj.Name() {
							case "time.Now":
								report(n.Pos(), "time.Now", fn)
							case "sync.Pool":
								report(n.Pos(), "sync.Pool", fn)
							}
						}
					}
					return true
				})
			}
		}
	}

	var sites []string
	for site := range found {
		sites = append(sites, site)
	}
	sort.Strings(sites)
	for _, site := range sites {
		if _, ok := determinismAllowed[site]; !ok {
			t.Errorf("%s (%s)", site, strings.Join(found[site], ", "))
		}
	}
	for site := range determinismAllowed {
		if _, ok := found[site]; !ok {
			t.Errorf("allowlisted site no longer exists, remove it: %s", site)
		}
	}
	if t.Failed() {
		t.Log("a map range, wall-clock read, math/rand, sync.Pool or go statement can make runs differ; " +
			"use a sorted slice, virtual time, internal/rng or sim.FreeList, or list the site with its reason")
	}
}

// funcName names a function declaration as Recv.Name for methods.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	typ := fd.Recv.List[0].Type
	if star, ok := typ.(*ast.StarExpr); ok {
		typ = star.X
	}
	if idx, ok := typ.(*ast.IndexExpr); ok {
		typ = idx.X
	}
	if idx, ok := typ.(*ast.IndexListExpr); ok {
		typ = idx.X
	}
	if id, ok := typ.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}
