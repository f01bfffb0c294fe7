package doclint

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
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
		for _, m := range regexp.MustCompile(`(?m)^func (Test\w+)\(`).FindAllStringSubmatch(string(src), -1) {
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
