// Package lint is this repository's own analyzer suite — the
// analogue, one level up, of the ASL lint suite in internal/vm/analysis
// (the agents' code is vetted by ajanta-vet, the platform's code by
// repolint). Since the type-aware rebuild the suite runs on
// internal/lint/analysis, a stdlib-only re-statement of the
// golang.org/x/tools/go/analysis contract, with full go/types
// information loaded offline by internal/lint/load. Six analyzers
// mechanize the invariants that used to live only in docs and review:
//
//	resourceimpl  concrete resource.ResourceImpl stays behind NewImpl
//	lockorder     the //lock:order mutex partial order (§8.5)
//	cowsnapshot   never mutate through atomic.Pointer.Load (§8.1)
//	coarseclock   no raw time.Timer/Ticker in internal/ hot paths (§8.2)
//	errclass      send-path errors are transient/permanent-classified (§7)
//	fusedwire     vm.Prepare (fused execution copies) stays in vm/loader
//
// A finding is silenced only by an inline annotation on the flagged
// line (or the line above):
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a bare //lint:allow does not suppress.
// See docs/ANALYZERS.md.
package lint

import (
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/analyzers/coarseclock"
	"repro/internal/lint/analyzers/cowsnapshot"
	"repro/internal/lint/analyzers/errclass"
	"repro/internal/lint/analyzers/fusedwire"
	"repro/internal/lint/analyzers/lockorder"
	"repro/internal/lint/analyzers/resourceimpl"
	"repro/internal/lint/load"
)

// Analyzers is the active suite, in reporting order.
var Analyzers = []*analysis.Analyzer{
	resourceimpl.Analyzer,
	lockorder.Analyzer,
	cowsnapshot.Analyzer,
	coarseclock.Analyzer,
	errclass.Analyzer,
	fusedwire.Analyzer,
}

// Finding is one reported rule violation.
type Finding struct {
	File string `json:"file"` // path as reported by the loader
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Rule string `json:"rule"`
	Msg  string `json:"msg"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Msg)
}

// CheckDir loads every package under root (a module root or any
// directory inside one) and applies the suite, returning the findings
// that no //lint:allow annotation suppresses, sorted by position.
func CheckDir(root string) ([]Finding, error) {
	return CheckPackages(root, "./...")
}

// CheckPackages runs the suite over the packages matched by patterns,
// resolved relative to dir.
func CheckPackages(dir string, patterns ...string) ([]Finding, error) {
	return CheckPackagesWith(dir, Analyzers, patterns...)
}

// CheckPackagesWith runs an explicit analyzer list (the linttest
// harness runs one analyzer at a time) with the same loading,
// suppression and ordering behaviour as the full suite.
func CheckPackagesWith(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Finding, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	sup := newSuppressions()
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			diags, err := RunAnalyzer(a, pkg)
			if err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.PkgPath, err)
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				f := Finding{
					File: pos.Filename,
					Line: pos.Line,
					Col:  pos.Column,
					Rule: a.Name,
					Msg:  d.Message,
				}
				if sup.allows(f) {
					continue
				}
				findings = append(findings, f)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	})
	return findings, nil
}

// RunAnalyzer applies one analyzer to one loaded package and returns
// its raw (unsuppressed) diagnostics.
func RunAnalyzer(a *analysis.Analyzer, pkg *load.Package) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	pass := &analysis.Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		TypesInfo: pkg.Info,
		Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
	}
	if err := a.Run(pass); err != nil {
		return nil, err
	}
	return diags, nil
}

// --- suppressions ------------------------------------------------------

// allowRe matches one suppression comment: analyzer name, then a
// mandatory free-text reason.
var allowRe = regexp.MustCompile(`//lint:allow\s+([A-Za-z0-9_-]+)\s+\S`)

// suppressions lazily reads source files and answers whether a finding
// is annotated away on its own line or the line above.
type suppressions struct {
	lines map[string][]string // file -> lines
}

func newSuppressions() *suppressions {
	return &suppressions{lines: make(map[string][]string)}
}

func (s *suppressions) fileLines(path string) []string {
	if l, ok := s.lines[path]; ok {
		return l
	}
	var l []string
	if data, err := os.ReadFile(path); err == nil {
		l = strings.Split(string(data), "\n")
	}
	s.lines[path] = l
	return l
}

func (s *suppressions) allows(f Finding) bool {
	lines := s.fileLines(f.File)
	for _, ln := range []int{f.Line, f.Line - 1} {
		if ln < 1 || ln > len(lines) {
			continue
		}
		for _, m := range allowRe.FindAllStringSubmatch(lines[ln-1], -1) {
			if m[1] == f.Rule {
				return true
			}
		}
	}
	return false
}
