package pgti

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// reachAllow lists the exported internal/ symbols that no entry point
// reaches but that stay in non-test code, each with the reason. Entries may
// only be removed: a listed symbol that becomes reachable, or disappears,
// fails TestReachability just as an unlisted unreachable one does.
var reachAllow = map[string]string{
	"internal/autograd.MSELoss":               "loss of the nn and shard pipeline training tests",
	"internal/autograd.MeanAll":               "scalar loss of the ddp and nn tests",
	"internal/autograd.SumAll":                "scalar loss of the nn fuzz test and the LayerNorm benchmark",
	"internal/autograd.Variable.RequiresGrad": "core's robustness test checks the masked-loss leaf",
	"internal/memsim.Tracker.Capacity":        "batching and device tests read the modeled capacity",
	"internal/memsim.Tracker.Current":         "batching, device and shard tests read live modeled bytes",
	"internal/memsim.Tracker.MustAlloc":       "batching tests fill a tracker to its cap",
	"internal/nn.NewA3TGCN":                   "autograd's model gradient tests and shard tests build it on a CSR",
	"internal/nn.NewDCRNN":                    "autograd's model gradient tests and shard tests build it on CSRs",
	"internal/nn.ZeroGrads":                   "ddp's gradient-sync tests reset replicas",
	"internal/parallel.SetWorkers":            "tests and benchmarks of tensor, sparse, nn, shard and the root pin the pool width",
	"internal/shard.HaloSyncBlocking":         "the modeled goldens and shard tests price the blocking halo schedule",
	"internal/sparse.CSR.At":                  "graph, dataset, autograd and other tests read single entries",
	"internal/sparse.CSR.NumBytes":            "dataset's dynamic-graph test code sizes its graphs",
	"internal/sparse.CSR.Scale":               "autograd's ownership test scales a support",
	"internal/sparse.CSR.ToDense":             "graph and dataset tests compare adjacencies densely",
	"internal/sparse.FromDense":               "autograd's SpMM gradient test builds its matrix",
	"internal/sparse.Identity":                "autograd ownership and nn tests use the identity support",
	"internal/tensor.RNG.Perm":                "sparse's SpMM tests shuffle rows",
	"internal/tensor.Rand":                    "autograd's gradient tests draw positive inputs",
	"internal/tensor.Tensor.AddScalar":        "autograd's gradient tests shift inputs away from zero",
	"internal/tensor.Tensor.AllClose":         "tolerance comparison in autograd, batching, nn and sparse tests",
	"internal/tensor.Tensor.Equal":            "bitwise comparison in most packages' tests",
	"internal/tensor.Tensor.Fill":             "autograd's ownership and batching tests",
	"internal/tensor.Tensor.Strides":          "autograd's ownership test checks gradient layout",
	"internal/trace.Summary.SpanTotal":        "ddp's trace test sums span kinds",
}

// TestReachability fails on any exported symbol of an internal/ package
// that no entry point reaches: not the pgti package, not a command under
// cmd/ or examples/, not the nested benchmark module. Code only tests use
// belongs in the _test.go files of its package (or in no file at all).
//
// Reachability is walked over declarations, type-checked from source with
// go/types; the standard library comes in as export data from one
// `go list -export`. A method counts as reached when it is selected by
// reached code, or when its type is reached and satisfies an interface that
// reached code names (or one the standard library looks up dynamically,
// such as fmt.Stringer).
func TestReachability(t *testing.T) {
	l, err := loadModule(".", "benchmark")
	if err != nil {
		t.Fatal(err)
	}
	unreached := l.unreached()
	var missing []string
	for _, s := range unreached {
		if _, ok := reachAllow[s]; !ok {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		t.Errorf("%d exported symbols no entry point reaches; delete each, move it into a _test.go file, "+
			"or (if another package's tests need it) list it in reachAllow with the reason:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
	for s, why := range reachAllow {
		switch {
		case !slices.Contains(unreached, s):
			t.Errorf("reachAllow lists %s, which is reachable or gone; remove the entry", s)
		case strings.TrimSpace(why) == "":
			t.Errorf("reachAllow lists %s without a reason", s)
		}
	}
}

// listedPackage is the part of `go list -json` the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

// reachLoader type-checks the module's packages from source, shares one
// object per declaration across them, and walks the declaration graph.
type reachLoader struct {
	fset   *token.FileSet
	listed map[string]*listedPackage
	std    types.Importer
	pkgs   map[string]*checkedPackage
	order  []*checkedPackage
}

type checkedPackage struct {
	pkg   *types.Package
	info  *types.Info
	files []*ast.File
	root  bool
}

// loadModule lists and type-checks every package of the module at root and
// of the nested module in root/nested, whose one package is an entry point.
func loadModule(root, nested string) (*reachLoader, error) {
	nestedDir := filepath.Join(root, nested)
	bp, err := build.Default.ImportDir(nestedDir, 0)
	if err != nil {
		return nil, err
	}
	args := []string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard", "./..."}
	for _, imp := range bp.Imports {
		if imp != "pgti" && !strings.HasPrefix(imp, "pgti/") {
			args = append(args, imp) // the standard library the nested module adds
		}
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOPROXY=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.Bytes())
	}
	l := &reachLoader{
		fset:   token.NewFileSet(),
		listed: map[string]*listedPackage{},
		pkgs:   map[string]*checkedPackage{},
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, err
		}
		l.listed[p.ImportPath] = p
	}
	l.listed["pgti/benchmark"] = &listedPackage{ImportPath: "pgti/benchmark", Dir: nestedDir, GoFiles: bp.GoFiles}
	l.std = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		p := l.listed[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	for path, p := range l.listed {
		if !p.Standard {
			if _, err := l.check(path); err != nil {
				return nil, err
			}
		}
	}
	return l, nil
}

// Import implements types.Importer: module packages come from source,
// everything else from export data.
func (l *reachLoader) Import(path string) (*types.Package, error) {
	if p := l.listed[path]; p != nil && !p.Standard {
		c, err := l.check(path)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	}
	return l.std.Import(path)
}

func (l *reachLoader) check(path string) (*checkedPackage, error) {
	if c := l.pkgs[path]; c != nil {
		return c, nil
	}
	p := l.listed[path]
	c := &checkedPackage{root: !strings.HasPrefix(path, "pgti/internal/")}
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		c.files = append(c.files, f)
	}
	c.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, c.files, c.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	c.pkg = pkg
	l.pkgs[path] = c
	l.order = append(l.order, c)
	return c, nil
}

// dynamicMethods are the methods the standard library finds by a type
// assertion on an interface value (fmt, encoding/json), not by any
// interface a signature names.
var dynamicMethods = map[string]bool{
	"Error": true, "String": true, "GoString": true, "Format": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// unreached returns the exported internal/ symbols, as
// "internal/pkg.Name" or "internal/pkg.Type.Method", that no root reaches.
func (l *reachLoader) unreached() []string {
	type decl struct {
		node ast.Node
		info *types.Info
	}
	decls := map[types.Object][]decl{}
	var work []types.Object
	reached := map[types.Object]bool{}
	reach := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if obj != nil && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	var exported []types.Object
	for _, c := range l.order {
		for _, f := range c.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := c.info.Defs[d.Name]
					decls[obj] = append(decls[obj], decl{d, c.info})
					if c.root || (d.Recv == nil && d.Name.Name == "init") {
						reach(obj)
					}
					if !c.root && d.Name.IsExported() && (d.Recv == nil || exportedRecv(obj)) {
						exported = append(exported, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							obj := c.info.Defs[n]
							if obj == nil {
								continue
							}
							decls[obj] = append(decls[obj], decl{s, c.info})
							if c.root || n.Name == "_" {
								reach(obj)
							}
							if !c.root && n.IsExported() {
								exported = append(exported, obj)
							}
						}
					}
				}
			}
		}
	}

	var named []*types.Named      // reached module types with methods
	var ifaces []*types.Interface // interfaces reached code names
	seenIface := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && !seenIface[it] {
			seenIface[it] = true
			ifaces = append(ifaces, it)
		}
	}
	for {
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if tn, ok := obj.(*types.TypeName); ok {
				addIface(tn.Type())
				if n, ok := tn.Type().(*types.Named); ok && n.NumMethods() > 0 {
					named = append(named, n)
				}
			}
			if fn, ok := obj.(*types.Func); ok && len(decls[obj]) == 0 {
				// Outside the module: the interfaces its signature takes.
				sig := fn.Type().(*types.Signature)
				for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
					for i := 0; i < tup.Len(); i++ {
						addIface(tup.At(i).Type())
					}
				}
			}
			for _, d := range decls[obj] {
				ast.Inspect(d.node, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						reach(d.info.Uses[n])
					case *ast.SelectorExpr:
						if sel := d.info.Selections[n]; sel != nil {
							reach(sel.Obj())
						}
					case *ast.InterfaceType:
						addIface(d.info.Types[n].Type)
					}
					return true
				})
			}
		}
		// A reached type's method is reached when the type satisfies a
		// reached interface that declares it, or fmt/json may call it.
		for _, n := range named {
			ptr := types.NewPointer(n)
			for i := 0; i < n.NumMethods(); i++ {
				m := n.Method(i)
				if reached[m] {
					continue
				}
				if dynamicMethods[m.Name()] {
					reach(m)
					continue
				}
				for _, it := range ifaces {
					if declares(it, m.Name()) && (n.TypeParams().Len() > 0 || types.Implements(ptr, it)) {
						reach(m)
						break
					}
				}
			}
		}
		if len(work) == 0 {
			break
		}
	}

	var out []string
	for _, obj := range exported {
		if reached[obj] {
			continue
		}
		name := strings.TrimPrefix(obj.Pkg().Path(), "pgti/") + "." + obj.Name()
		if fn, ok := obj.(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
				name = strings.TrimPrefix(obj.Pkg().Path(), "pgti/") + "." + recvName(recv.Type()) + "." + obj.Name()
			}
		}
		out = append(out, name)
	}
	slices.Sort(out)
	return out
}

func declares(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func recvName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Obj().Name()
}

// exportedRecv reports whether a method's receiver type is exported, so the
// method is part of the package's surface.
func exportedRecv(obj types.Object) bool {
	recv := obj.Type().(*types.Signature).Recv()
	return recv != nil && ast.IsExported(recvName(recv.Type()))
}
