package analysis

import (
	"bufio"
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
	"strings"
)

// Loader parses and type-checks the module's packages from source, resolving
// imports (standard library and intra-module alike) through compiled export
// data obtained from one `go list -export -deps` invocation. This keeps the
// module itself dependency-free: no golang.org/x/tools, just the go command
// the repo already builds with.
type Loader struct {
	Dir          string // module root
	IncludeTests bool   // load _test.go files as test-variant packages
	fset         *token.FileSet
	exports      map[string]string // import path -> export data file
	imp          types.Importer
}

// NewLoader prepares a loader rooted at the module directory. It asks the go
// command for the export data of every dependency of every package in the
// module, so later Load and CheckSource calls type-check without touching
// the network or GOPATH.
func NewLoader(dir string) (*Loader, error) { return newLoader(dir, false) }

// NewLoaderWithTests is NewLoader plus test loading: the export-data listing
// runs with -test (so `testing` and the test-variant export data — which
// includes export_test.go symbols — are available), and Load returns
// ForTest-marked test-variant packages alongside the production ones.
func NewLoaderWithTests(dir string) (*Loader, error) { return newLoader(dir, true) }

func newLoader(dir string, includeTests bool) (*Loader, error) {
	l := &Loader{Dir: dir, IncludeTests: includeTests, fset: token.NewFileSet(), exports: make(map[string]string)}
	args := []string{"-e", "-export", "-deps"}
	if includeTests {
		args = append(args, "-test")
	}
	args = append(args, "-f", "{{.ImportPath}}\t{{.Export}}", "./...")
	out, err := goList(dir, args...)
	if err != nil {
		return nil, fmt.Errorf("analysis: listing export data: %w", err)
	}
	testVariant := make(map[string]bool)
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 2)
		if len(parts) != 2 || parts[1] == "" {
			continue
		}
		path := parts[0]
		// "foo [foo.test]" is foo's test variant: a superset of foo's
		// exports (export_test.go included). Prefer it over the plain
		// export so _test packages resolve their imports. "foo [bar.test]"
		// is foo recompiled against bar's test variant, without foo's own
		// export_test.go; it must not shadow foo's.
		if i := strings.IndexByte(path, ' '); i >= 0 {
			base := path[:i]
			if path[i+1:] != "["+base+".test]" {
				continue
			}
			l.exports[base] = parts[1]
			testVariant[base] = true
			continue
		}
		if strings.HasSuffix(path, ".test") {
			continue // generated test main packages
		}
		if !testVariant[path] {
			l.exports[path] = parts[1]
		}
	}
	l.imp = importer.ForCompiler(l.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := l.exports[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	})
	return l, nil
}

// Fset returns the loader's file set (shared by every loaded package).
func (l *Loader) Fset() *token.FileSet { return l.fset }

// Load parses and type-checks the packages matching the given go package
// patterns (default ./...). Without IncludeTests, _test.go files are
// excluded: the analyzers check production code first. With IncludeTests
// (kwlint -tests), every package with tests additionally yields ForTest
// variants — the in-package variant (production + _test.go files, with
// TestFiles naming the test sources so only their findings are reported)
// and the external _test package when present. Determinism findings in
// tests break the suite's reproducibility just like production ones.
func (l *Loader) Load(patterns ...string) ([]*Pkg, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	format := "{{.ImportPath}}\t{{.Dir}}\t{{range .GoFiles}}{{.}} {{end}}\t{{range .TestGoFiles}}{{.}} {{end}}\t{{range .XTestGoFiles}}{{.}} {{end}}"
	args := append([]string{"-e", "-f", format}, patterns...)
	out, err := goList(l.Dir, args...)
	if err != nil {
		return nil, fmt.Errorf("analysis: listing packages: %w", err)
	}
	var pkgs []*Pkg
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 5)
		if len(parts) != 5 || parts[0] == "" {
			continue
		}
		importPath, dir := parts[0], parts[1]
		abs := func(field string) []string {
			var files []string
			for _, f := range strings.Fields(field) {
				files = append(files, filepath.Join(dir, f))
			}
			return files
		}
		files, testFiles, xtestFiles := abs(parts[2]), abs(parts[3]), abs(parts[4])
		if len(files) > 0 {
			pkg, err := l.check(importPath, importPath, files, nil)
			if err != nil {
				return nil, err
			}
			pkgs = append(pkgs, pkg)
		}
		if !l.IncludeTests {
			continue
		}
		if len(testFiles) > 0 {
			pkg, err := l.check(importPath, importPath, append(append([]string{}, files...), testFiles...), nil)
			if err != nil {
				return nil, err
			}
			pkg.ForTest = true
			pkg.TestFiles = fileSet(testFiles)
			pkgs = append(pkgs, pkg)
		}
		if len(xtestFiles) > 0 {
			// The external test package type-checks under its own path (it
			// imports the package under test) but keeps the base import
			// path as its label so package-scoped analyzer rules apply.
			pkg, err := l.check(importPath, importPath+"_test", xtestFiles, nil)
			if err != nil {
				return nil, err
			}
			pkg.ForTest = true
			pkg.TestFiles = fileSet(xtestFiles)
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

func fileSet(files []string) map[string]bool {
	m := make(map[string]bool, len(files))
	for _, f := range files {
		m[f] = true
	}
	return m
}

// CheckSource type-checks in-memory sources as a package with the given
// import path. Tests use it to prove each analyzer fires on a minimal bad
// program without committing bad code to the tree.
func (l *Loader) CheckSource(importPath string, sources ...string) (*Pkg, error) {
	var names []string
	srcs := make(map[string]string, len(sources))
	for i, src := range sources {
		name := fmt.Sprintf("%s_src%d.go", strings.ReplaceAll(importPath, "/", "_"), i)
		names = append(names, name)
		srcs[name] = src
	}
	return l.check(importPath, importPath, names, srcs)
}

// check parses the files (from disk, or from the overlay when non-nil) and
// type-checks them as one package. labelPath becomes Pkg.Path (what the
// analyzers' package-scoped rules match on); checkPath is handed to the type
// checker and differs only for external _test packages.
func (l *Loader) check(labelPath, checkPath string, files []string, overlay map[string]string) (*Pkg, error) {
	pkg := &Pkg{Path: labelPath, Fset: l.fset}
	for _, fname := range files {
		var src any
		if overlay != nil {
			src = overlay[fname]
		}
		f, err := parser.ParseFile(l.fset, fname, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parsing %s: %w", fname, err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	pkg.Info = &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(checkPath, l.fset, pkg.Files, pkg.Info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", checkPath, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}

func goList(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go list %s: %v: %s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out), nil
}
