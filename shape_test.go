package qfe_test

import (
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the api/ files from the tree")

// TestTreeShape holds the production tree to its committed shape. Four
// checks, each against a file under api/:
//
//   - surface: api/<dir with / as _>.txt lists the exported surface of each
//     production package — every package under cmd/ and internal/ except the
//     harness (internal/bench/...) and the benchmark (cmd/bench);
//     the root and examples/ are not production either. A line is a
//     top-level exported const, var, func or type, an exported method (on
//     any type, exported or not), or an exported field or embedded type of
//     an exported struct or interface. A package with no such name has no
//     file.
//   - deps: api/deps.txt lists, per binary, the qfe/ packages go list -deps
//     names for it (standard-library packages are left out, so a toolchain
//     bump does not change the file).
//   - flags: api/flags.txt lists each binary's flag names, read off its
//     flag.FlagSet (or flag package) define calls.
//   - budgets: each budget's packages stay at or under its ceiling. A
//     package's size is every line of its non-test .go files — the newline
//     count, as wc -l gives it, comments and blank lines included — for
//     the files the default build context selects. Run with -v to print
//     every package's count (the harness's too), the totals of the
//     repository and of all but internal/bench, and each budget's total.
//
// Any difference fails and prints it. After a deliberate change, rewrite the
// files with
//
//	go test . -run TestTreeShape -update
//
// and commit the diff; the budgets are not rewritten.
func TestTreeShape(t *testing.T) {
	pkgs := packageDirs(t, true)
	t.Run("surface", func(t *testing.T) {
		want := map[string][]string{}
		var names []string // in package order, for a stable report
		for _, dir := range pkgs {
			if lines := surface(t, dir); len(lines) > 0 {
				want[surfaceFile(dir)] = lines
				names = append(names, surfaceFile(dir))
			}
		}
		old, _ := filepath.Glob(filepath.Join("api", "*.txt"))
		for _, f := range old {
			name := filepath.Base(f)
			if _, ok := want[name]; !ok && !slices.Contains([]string{"deps.txt", "flags.txt", "quality.txt"}, name) {
				checkFile(t, name, nil)
			}
		}
		for _, name := range names {
			checkFile(t, name, want[name])
		}
	})
	t.Run("deps", func(t *testing.T) {
		checkFile(t, "deps.txt", deps(t))
	})
	t.Run("flags", func(t *testing.T) {
		var lines []string
		for _, dir := range pkgs {
			if strings.HasPrefix(dir, "cmd/") {
				names, _ := flags(t, dir)
				lines = append(lines, names...)
			}
		}
		checkFile(t, "flags.txt", lines)
	})
	t.Run("budgets", func(t *testing.T) {
		count := map[string]int{}
		all, notHarness := 0, 0
		for _, dir := range packageDirs(t, false) {
			n := countLines(t, dir)
			count[dir] = n
			all += n
			if !strings.HasPrefix(dir+"/", "internal/bench/") {
				notHarness += n
			}
			t.Logf("%5d %s", n, dir)
		}
		t.Logf("%5d repository, %d of it outside internal/bench", all, notHarness)
		for _, b := range budgets {
			total := 0
			for _, dir := range b.dirs {
				n, ok := count[dir]
				if !ok {
					t.Errorf("budget %q names %s, which holds no package", b.name, dir)
				}
				total += n
			}
			t.Logf("%5d budget %s (ceiling %d)", total, b.name, b.ceiling)
			if total > b.ceiling {
				t.Errorf("budget %q: %d lines, over its ceiling of %d", b.name, total, b.ceiling)
			}
		}
	})
}

// budgets are the line ceilings the tree is held to (DESIGN §10): the
// daemon's serving, persistence and feedback packages, and the paper's
// featurizers, estimator and gradient-boosted trees. A ceiling is lowered by hand when a package
// shrinks for good.
var budgets = []struct {
	name    string
	ceiling int
	dirs    []string
}{
	{"daemon", 5529, []string{
		"internal/serve", "internal/store", "internal/journal", "internal/jsonenc",
		"internal/replay", "internal/resilience", "internal/resilience/faultinject",
		"internal/clock", "internal/cli",
	}},
	{"core", 1531, []string{"internal/core"}},
	{"estimator", 991, []string{"internal/estimator"}},
	{"gb", 949, []string{"internal/ml/gb"}},
}

// binaries are the programs whose qfe/ dependencies api/deps.txt lists:
// the serving, estimating, replay, data-generating and benchmark binaries.
var binaries = []string{"cmd/bench", "cmd/cardest", "cmd/cardestd", "cmd/datagen", "cmd/replay"}

// packageDirs returns the slash-separated directories, relative to the
// module root, of the production packages, or of every package.
func packageDirs(t *testing.T, production bool) []string {
	t.Helper()
	dirs := []string{"."}
	roots := []string{"cmd", "examples", "internal"}
	if production {
		dirs, roots = nil, []string{"cmd", "internal"}
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			dir := filepath.ToSlash(path)
			if d.Name() == "testdata" || production && (dir == "internal/bench" || dir == "cmd/bench") {
				return filepath.SkipDir
			}
			if len(sourceFiles(t, dir)) > 0 {
				dirs = append(dirs, dir)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return dirs
}

// sourceFiles returns the non-test .go files of dir that the default build
// context selects.
func sourceFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			t.Fatal(err)
		} else if ok {
			files = append(files, filepath.Join(dir, name))
		}
	}
	return files
}

func parseDir(t *testing.T, dir string) []*ast.File {
	t.Helper()
	fset := token.NewFileSet()
	var files []*ast.File
	for _, path := range sourceFiles(t, dir) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

func surfaceFile(dir string) string { return strings.ReplaceAll(dir, "/", "_") + ".txt" }

// surface returns the sorted exported surface of the package in dir.
func surface(t *testing.T, dir string) []string {
	var out []string
	for _, f := range parseDir(t, dir) {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				if d.Recv == nil {
					out = append(out, "func "+d.Name.Name+typeParams(d.Type.TypeParams)+signature(d.Type))
				} else {
					recv := types.ExprString(d.Recv.List[0].Type)
					out = append(out, "method ("+recv+") "+d.Name.Name+signature(d.Type))
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					out = append(out, specSurface(d.Tok, spec)...)
				}
			}
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

func specSurface(tok token.Token, spec ast.Spec) []string {
	var out []string
	switch s := spec.(type) {
	case *ast.ValueSpec:
		for _, n := range s.Names {
			if !n.IsExported() {
				continue
			}
			line := tok.String() + " " + n.Name
			if s.Type != nil {
				line += " " + typeString(s.Type)
			}
			out = append(out, line)
		}
	case *ast.TypeSpec:
		if !s.Name.IsExported() {
			return nil
		}
		head := "type " + s.Name.Name + typeParams(s.TypeParams)
		if s.Assign.IsValid() {
			head += " ="
		}
		switch u := s.Type.(type) {
		case *ast.StructType:
			head += " struct"
			out = append(out, head)
			for _, fl := range u.Fields.List {
				out = append(out, members(head, fl)...)
			}
		case *ast.InterfaceType:
			head += " interface"
			out = append(out, head)
			for _, fl := range u.Methods.List {
				out = append(out, members(head, fl)...)
			}
		default:
			out = append(out, head+" "+typeString(s.Type))
		}
	}
	return out
}

// members lists the exported names one struct field or interface element
// declares, each under its type's head line.
func members(head string, fl *ast.Field) []string {
	if len(fl.Names) == 0 {
		return []string{head + ", embedded " + types.ExprString(fl.Type)}
	}
	var out []string
	for _, n := range fl.Names {
		if !n.IsExported() {
			continue
		}
		if ft, ok := fl.Type.(*ast.FuncType); ok && strings.HasSuffix(head, "interface") {
			out = append(out, head+", "+n.Name+signature(ft))
		} else {
			out = append(out, head+", "+n.Name+" "+typeString(fl.Type))
		}
	}
	return out
}

// signature renders a function type without its parameter and result
// names, so renaming a parameter does not change the surface.
func signature(ft *ast.FuncType) string {
	return strings.TrimPrefix(typeString(ft), "func")
}

// typeString renders a type expression on one line, dropping the names of
// every parameter and result in it.
func typeString(e ast.Expr) string {
	return types.ExprString(unnamed(e))
}

func unnamed(e ast.Expr) ast.Expr {
	switch x := e.(type) {
	case *ast.FuncType:
		return &ast.FuncType{Params: unnamedFields(x.Params), Results: unnamedFields(x.Results)}
	case *ast.StarExpr:
		return &ast.StarExpr{X: unnamed(x.X)}
	case *ast.ArrayType:
		return &ast.ArrayType{Len: x.Len, Elt: unnamed(x.Elt)}
	case *ast.MapType:
		return &ast.MapType{Key: unnamed(x.Key), Value: unnamed(x.Value)}
	case *ast.ChanType:
		return &ast.ChanType{Dir: x.Dir, Value: unnamed(x.Value)}
	case *ast.Ellipsis:
		return &ast.Ellipsis{Elt: unnamed(x.Elt)}
	}
	return e
}

func unnamedFields(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		for range max(1, len(f.Names)) {
			out.List = append(out.List, &ast.Field{Type: unnamed(f.Type)})
		}
	}
	return out
}

func typeParams(fl *ast.FieldList) string {
	if fl == nil {
		return ""
	}
	var parts []string
	for _, f := range fl.List {
		var names []string
		for _, n := range f.Names {
			names = append(names, n.Name)
		}
		parts = append(parts, strings.Join(names, ", ")+" "+types.ExprString(f.Type))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// deps returns "<binary> <qfe package>" for every qfe/ package each binary
// depends on, itself included.
func deps(t *testing.T) []string {
	args := []string{"list", "-f", `{{.ImportPath}}{{range .Deps}} {{.}}{{end}}`}
	for _, b := range binaries {
		args = append(args, "./"+b)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	var lines []string
	for _, row := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		fields := strings.Fields(row)
		bin := strings.TrimPrefix(fields[0], "qfe/")
		for _, p := range fields {
			if strings.HasPrefix(p, "qfe/") {
				lines = append(lines, bin+" "+p)
			}
		}
	}
	slices.Sort(lines)
	return lines
}

// flagDefiners are the flag.FlagSet methods (and flag package functions)
// that define a flag; the name is the first argument, or the second for the
// ...Var forms. The default, where the form takes one, is the argument after
// the name.
var flagDefiners = map[string]int{
	"Bool": 0, "BoolFunc": 0, "Duration": 0, "Float64": 0, "Func": 0, "Int": 0,
	"Int64": 0, "String": 0, "Uint": 0, "Uint64": 0,
	"BoolVar": 1, "DurationVar": 1, "Float64Var": 1, "Int64Var": 1, "IntVar": 1,
	"StringVar": 1, "TextVar": 1, "Uint64Var": 1, "UintVar": 1, "Var": 1,
}

// flags returns "<binary> -<name>" for every flag the binary in dir defines
// on the flag package or on a flag.NewFlagSet value, and each flag's default
// as it is written in the define call, by "-<name>" (none for Func, BoolFunc
// and Var, which take no default).
func flags(t *testing.T, dir string) ([]string, map[string]string) {
	var out []string
	defaults := map[string]string{}
	for _, f := range parseDir(t, dir) {
		sets := map[string]bool{"flag": true}
		ast.Inspect(f, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && isCall(as.Rhs[0], "flag", "NewFlagSet") {
					sets[id.Name] = true
				}
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			recv, ok := sel.X.(*ast.Ident)
			arg, define := flagDefiners[sel.Sel.Name]
			if !ok || !sets[recv.Name] || !define || len(call.Args) <= arg {
				return true
			}
			lit, ok := call.Args[arg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				t.Errorf("%s: flag defined with a non-literal name in %s", dir, types.ExprString(call))
				return true
			}
			name, _ := strconv.Unquote(lit.Value)
			out = append(out, dir+" -"+name)
			if !slices.Contains([]string{"Func", "BoolFunc", "Var"}, sel.Sel.Name) && len(call.Args) > arg+1 {
				defaults["-"+name] = types.ExprString(call.Args[arg+1])
			}
			return true
		})
	}
	slices.Sort(out)
	return out, defaults
}

func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && id.Name == pkg && sel.Sel.Name == fn
}

// countLines is the budgets' size of the package in dir: the newlines in
// its non-test .go files.
func countLines(t *testing.T, dir string) int {
	n := 0
	for _, path := range sourceFiles(t, dir) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		n += bytes.Count(b, []byte("\n"))
	}
	return n
}

// checkFile compares lines with api/name, or with -update writes them there
// (a nil lines removes the file). It reports every line only one side has,
// and names the test that writes the file (t's top-level test) to rerun.
func checkFile(t *testing.T, name string, lines []string) {
	t.Helper()
	path := filepath.Join("api", name)
	if *update {
		err := os.MkdirAll("api", 0o755)
		if err != nil {
			t.Fatal(err)
		}
		if lines == nil {
			err = os.Remove(path)
		} else {
			err = os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
		return
	}
	committed := apiLines(t, name)
	var diff []string
	for _, l := range committed {
		if !slices.Contains(lines, l) {
			diff = append(diff, "-"+l)
		}
	}
	for _, l := range lines {
		if !slices.Contains(committed, l) {
			diff = append(diff, "+"+l)
		}
	}
	if len(diff) > 0 {
		owner, _, _ := strings.Cut(t.Name(), "/")
		t.Errorf("%s differs from the tree (- committed, + tree):\n%s\nrun go test . -run %s -update if the change is meant",
			path, strings.Join(diff, "\n"), owner)
	}
}

// apiLines returns the lines of the committed api/name, none if it is absent.
func apiLines(t *testing.T, name string) []string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("api", name))
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	if len(b) == 0 {
		return nil
	}
	return strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
}
