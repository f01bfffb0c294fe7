package doclint

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// repoRoot resolves the repository root from this source file's location,
// so the lint runs over the whole tree regardless of the test working
// directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate source file")
	}
	return filepath.Clean(filepath.Join(filepath.Dir(file), "..", ".."))
}

// Every relative markdown link and heading anchor in the repository must
// resolve; this is the gate that keeps ARCHITECTURE.md's file pointers
// current.
func TestMarkdownLinks(t *testing.T) {
	root := repoRoot(t)
	files, err := MarkdownFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("only %d markdown files found under %s — wrong root?", len(files), root)
	}
	complaints, err := CheckMarkdownLinks(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Error(c)
	}
}

// Every test the living documents name must exist, so that a test renamed
// or folded into another leaves no stale pointer behind. CHANGES.md is
// history and may name tests that are gone.
func TestDocsNameExistingTests(t *testing.T) {
	root := repoRoot(t)
	defined := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllStringSubmatch(string(src), -1) {
			defined[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	docs, err := filepath.Glob(filepath.Join(root, "internal", "*", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	docs = append(append(docs, more...), filepath.Join(root, "ROADMAP.md"), filepath.Join(root, ".claude", "skills", "verify", "SKILL.md"))
	for _, doc := range docs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range regexp.MustCompile(`\bTest[A-Z]\w*`).FindAllString(string(src), -1) {
			if !defined[name] {
				t.Errorf("%s names %s, which no _test.go defines", doc, name)
			}
		}
	}
}

// Every exported declaration must carry a doc comment; godoc is part of the
// documentation layer and silently undocumented API is how it rots.
func TestDocComments(t *testing.T) {
	complaints, err := CheckDocComments(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Error(c)
	}
}

// Unit checks for the anchor slugger, pinned to GitHub's behavior.
func TestAnchorSlug(t *testing.T) {
	cases := map[string]string{
		"## Batch worker model":              "batch-worker-model",
		"# internal/relation":                "internalrelation",
		"### What may differ, and what not!": "what-may-differ-and-what-not",
		"## The ε trade-off":                 "the-ε-trade-off",
		"## BENCH_update.json format":        "bench_updatejson-format",
	}
	for heading, want := range cases {
		trimmed := heading
		for len(trimmed) > 0 && (trimmed[0] == '#' || trimmed[0] == ' ') {
			trimmed = trimmed[1:]
		}
		if got := anchorSlug(trimmed); got != want {
			t.Errorf("anchorSlug(%q) = %q, want %q", heading, got, want)
		}
	}
}

// Every exported name of the public package must be discoverable from its
// narrative documentation: the package comment or an example. godoc's
// declaration list alone does not teach anyone when to reach for a name.
func TestAPIMentions(t *testing.T) {
	complaints, err := CheckAPIMentions(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Error(c)
	}
}

// PAPERS.md must stay a citation index: no retrieval debris, no
// non-canonical links.
func TestPapersIndex(t *testing.T) {
	complaints, err := CheckPapersIndex(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Error(c)
	}
}

// Unit coverage for the PAPERS.md linter: each debris class is flagged on
// the right line, clean content and canonical arXiv links pass, and a
// missing file is not an error.
func TestCheckPapersIndexUnit(t *testing.T) {
	dir := t.TempDir()
	dirty := `# PAPERS

- A paper — https://arxiv.org/pdf/1234.56789
  > (figure omitted in retrieval)

` + "```" + `
A. Author,<sup>2</sup> B. Author<sup>3</sup>
` + "```" + `
- Good citation. https://arxiv.org/abs/1907.01988
`
	if err := os.WriteFile(filepath.Join(dir, "PAPERS.md"), []byte(dirty), 0o666); err != nil {
		t.Fatal(err)
	}
	complaints, err := CheckPapersIndex(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{"PAPERS.md:3: link https://arxiv.org/pdf/1234.56789",
		"PAPERS.md:4: dead figure stub",
		"PAPERS.md:6: code fence",
		"PAPERS.md:7: raw author-list debris",
		"PAPERS.md:8: code fence"}
	if len(complaints) != len(wants) {
		t.Fatalf("complaints = %v, want %d of them", complaints, len(wants))
	}
	for i, want := range wants {
		if !strings.HasPrefix(complaints[i], want) {
			t.Errorf("complaint %d = %q, want prefix %q", i, complaints[i], want)
		}
	}

	if complaints, err := CheckPapersIndex(t.TempDir()); err != nil || complaints != nil {
		t.Fatalf("missing PAPERS.md: complaints %v, err %v, want none", complaints, err)
	}
}

// Every -run alternative of `make race` must select a test of the packages
// its line runs; a renamed or deleted test would otherwise leave the race
// suites without a failure.
func TestMakeRaceRunsExistingTests(t *testing.T) {
	complaints, err := checkRaceRuns(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Error(c)
	}
}

// Unit coverage for the race-target check on a synthetic tree: alternatives
// that match (grouped, anchored, with a subtest level, in a subdirectory
// under "/...") pass; one matching nothing, one matching only a nested
// module's test, and one that does not compile are flagged; other targets
// are not read.
func TestCheckRaceRunsUnit(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("Makefile", "race:\n"+
		"\t$(GO) test -race ./internal/...\n"+
		"\t$(GO) test -race -run 'TestAlpha/sub|Gone|^TestB(One|Two)$$' .\n"+
		"\t$(GO) test -race -count=3 -run 'Deep|InModule|Bad(' ./...\n"+
		"\nother:\n\t$(GO) test -run 'Elsewhere' .\n")
	write("a_test.go", "package a\n\nfunc TestAlpha(t *testing.T) {}\nfunc TestBOne(t *testing.T) {}\n")
	write("sub/b_test.go", "package sub\n\nfunc TestDeepSub(t *testing.T) {}\n")
	write("mod/go.mod", "module mod\n")
	write("mod/c_test.go", "package mod\n\nfunc TestInModule(t *testing.T) {}\n")
	complaints, err := checkRaceRuns(root)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{`"Gone" matches no test in .`, `"InModule" matches no test in ./...`, `"Bad("`}
	if len(complaints) != len(wants) {
		t.Fatalf("complaints = %q, want %d of them", complaints, len(wants))
	}
	for i, want := range wants {
		if !strings.Contains(complaints[i], want) {
			t.Errorf("complaint %d = %q, want it to contain %q", i, complaints[i], want)
		}
	}
}

// raceRun matches a recipe line that runs selected tests: its -run pattern
// and the package pattern after it, the line's last field.
var raceRun = regexp.MustCompile(`-run '([^']*)'.*\s(\S+)\s*$`)

// testFunc matches a top-level Test function declaration.
var testFunc = regexp.MustCompile(`(?m)^func (Test\w+)\(`)

// checkRaceRuns checks root's Makefile `race` target: every alternative of
// every -run pattern its recipe passes must match a Test function of the
// packages that line runs, so renaming or deleting a test the race suites
// name fails here instead of silently dropping its race coverage. A
// pattern's subtest levels (after a '/') are not checked.
func checkRaceRuns(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		return nil, err
	}
	var complaints []string
	inRace, runs := false, 0
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "\t") {
			inRace = strings.HasPrefix(line, "race:")
			continue
		}
		m := raceRun.FindStringSubmatch(line)
		if !inRace || m == nil {
			continue
		}
		runs++
		tests, err := funcsIn(root, m[2], testFunc)
		if err != nil {
			return nil, err
		}
		for _, alt := range alternatives(strings.ReplaceAll(m[1], "$$", "$")) {
			alt, _, _ = strings.Cut(alt, "/")
			re, err := regexp.Compile(alt)
			if err != nil {
				complaints = append(complaints, fmt.Sprintf("Makefile race: -run alternative %q: %v", alt, err))
			} else if !slices.ContainsFunc(tests, re.MatchString) {
				complaints = append(complaints, fmt.Sprintf("Makefile race: -run alternative %q matches no test in %s", alt, m[2]))
			}
		}
	}
	if runs == 0 {
		complaints = append(complaints, "Makefile: no race target line with a -run pattern")
	}
	return complaints, nil
}

// alternatives splits a regular expression at its top-level '|'s.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i, c := range pattern {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// funcsIn lists the functions decl matches in the test files of the
// packages a `go test` package pattern under root names: one directory, or
// with a "/..." suffix every directory below it that the go command would
// visit — not one holding another module, nor one it ignores by name.
func funcsIn(root, pkg string, decl *regexp.Regexp) ([]string, error) {
	dir, recursive := strings.CutSuffix(pkg, "...")
	dir = filepath.Join(root, dir)
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			n := d.Name()
			if _, err := os.Stat(filepath.Join(path, "go.mod")); !recursive || err == nil ||
				strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") || n == "testdata" {
				return fs.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			names = append(names, m[1])
		}
		return err
	})
	return names, err
}

// Every fuzz step of the CI workflow must select exactly one fuzz target:
// `go test -fuzz` with a pattern that matches none prints "no fuzz tests to
// fuzz" and passes, so a renamed or deleted target would leave its step
// fuzzing nothing. Conversely, every fuzz target must be selected by some
// step, or a new target is never fuzzed in CI.
func TestCIFuzzTargetsExist(t *testing.T) {
	complaints, err := checkCIFuzzTargets(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range complaints {
		t.Error(c)
	}
}

// Unit coverage for the fuzz-step check on a synthetic tree: patterns that
// select one target (plain, quoted and anchored, in a subdirectory) pass;
// one matching two targets, one matching none and one that does not compile
// are flagged, and a line that only runs tests is not read. A target no step
// selects is flagged: one no pattern matches, and one only the step that
// matches two targets names, since that step fuzzes nothing.
func TestCheckCIFuzzTargetsUnit(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write(".github/workflows/ci.yml", "jobs:\n  fuzz:\n    steps:\n"+
		"      - run: go test -fuzz=FuzzAlpha -fuzztime=20s -run '^$' ./a\n"+
		"      - run: go test -fuzz='^FuzzSeal$' -fuzztime=20s -run '^$' ./a\n"+
		"      - run: go test -fuzz=FuzzSeal -fuzztime=20s -run '^$' ./a\n"+
		"      - run: go test -fuzz=FuzzGone -fuzztime=20s -run '^$' ./a\n"+
		"      - run: go test -fuzz=FuzzDeep -fuzztime=20s -run '^$' ./a/sub\n"+
		"      - run: go test -fuzz='Bad(' -fuzztime=20s -run '^$' ./a\n"+
		"      - run: go test -run 'FuzzNone' ./a\n")
	write("a/a_test.go", "package a\n\nfunc FuzzAlpha(f *testing.F) {}\nfunc FuzzSeal(f *testing.F) {}\nfunc FuzzSealDelta(f *testing.F) {}\n")
	write("a/sub/b_test.go", "package sub\n\nfunc FuzzDeep(f *testing.F) {}\nfunc FuzzOrphan(f *testing.F) {}\n")
	complaints, err := checkCIFuzzTargets(root)
	if err != nil {
		t.Fatal(err)
	}
	wants := []string{`"FuzzSeal" matches 2 fuzz targets in ./a`, `"FuzzGone" matches 0 fuzz targets in ./a`, `"Bad("`,
		"fuzz target FuzzSealDelta", "fuzz target FuzzOrphan"}
	if len(complaints) != len(wants) {
		t.Fatalf("complaints = %q, want %d of them", complaints, len(wants))
	}
	for i, want := range wants {
		if !strings.Contains(complaints[i], want) {
			t.Errorf("complaint %d = %q, want it to contain %q", i, complaints[i], want)
		}
	}
}

// fuzzRun matches a workflow line that fuzzes: its -fuzz pattern, quoted or
// not, and the package after it, the line's last field.
var fuzzRun = regexp.MustCompile(`go test -fuzz=('[^']*'|\S+)\s.*\s(\S+)\s*$`)

// fuzzFunc matches a top-level Fuzz function declaration.
var fuzzFunc = regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)

// checkCIFuzzTargets checks root's CI workflow: the -fuzz pattern of every
// `go test -fuzz` line must match exactly one Fuzz function of the package
// that line names, as `go test -fuzz` needs to fuzz anything, and every Fuzz
// function of the module must be the one some line selects. Targets are
// told apart by name, not by package.
func checkCIFuzzTargets(root string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, ".github", "workflows", "ci.yml"))
	if err != nil {
		return nil, err
	}
	var complaints []string
	runs := 0
	selected := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		m := fuzzRun.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		runs++
		pattern := strings.Trim(m[1], "'")
		re, err := regexp.Compile(pattern)
		if err != nil {
			complaints = append(complaints, fmt.Sprintf("ci.yml: -fuzz pattern %q: %v", pattern, err))
			continue
		}
		targets, err := funcsIn(root, m[2], fuzzFunc)
		if err != nil {
			return nil, err
		}
		if targets = slices.DeleteFunc(targets, func(name string) bool { return !re.MatchString(name) }); len(targets) != 1 {
			complaints = append(complaints, fmt.Sprintf("ci.yml: -fuzz pattern %q matches %d fuzz targets in %s, want 1", pattern, len(targets), m[2]))
		} else {
			selected[targets[0]] = true
		}
	}
	if runs == 0 {
		complaints = append(complaints, "ci.yml: no go test -fuzz line")
	}
	all, err := funcsIn(root, "./...", fuzzFunc)
	if err != nil {
		return nil, err
	}
	for _, name := range all {
		if !selected[name] {
			complaints = append(complaints, fmt.Sprintf("ci.yml: fuzz target %s is selected by no go test -fuzz line", name))
		}
	}
	return complaints, nil
}

// Unit coverage for the mention scanner on a synthetic package: names
// mentioned in the package doc, named by an Example, referenced from an
// example body, and not mentioned at all.
func TestCheckAPIMentionsUnit(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("p.go", `// Package p frobnicates. Use Alpha to start.
package p

// Alpha starts.
func Alpha() {}

// Beta stops.
func Beta() {}

// Gamma pauses.
func Gamma() {}

// Delta is never mentioned anywhere.
func Delta() {}

// Betamax must not count as a mention of Beta.
func Betamax() {}
`)
	write("p_test.go", `package p

// ExampleBeta covers Beta by name.
func ExampleBeta() {}

// An example whose body references Gamma and whose name covers Betamax.
func ExampleBetamax() {
	Gamma()
}
`)
	complaints, err := CheckAPIMentions(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(complaints) != 1 || !strings.Contains(complaints[0], "Delta") {
		t.Fatalf("complaints = %v, want exactly one about Delta", complaints)
	}
}
