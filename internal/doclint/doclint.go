// Package doclint keeps the repository's documentation from rotting: it
// checks that every relative link (and heading anchor) in the markdown
// files resolves, that every exported Go declaration carries a doc comment,
// that every exported name of the public package is reachable from its
// narrative docs (mentioned in the package comment or exercised by an
// example), that PAPERS.md stays a citation index rather than a dump of
// retrieval output, that every test `make race` names exists, and that
// every CI fuzz step selects one fuzz target. It runs as an ordinary test
// (`go test ./internal/doclint/`, or `make docs-check`), so the CI docs job
// fails the moment ARCHITECTURE.md points at a file that was renamed or a
// new exported API lands undocumented.
package doclint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"unicode"
)

// mdLink matches inline markdown links and images: [text](target) — the
// target is captured without surrounding whitespace or a trailing title.
var mdLink = regexp.MustCompile(`!?\[[^\]\n]*\]\(\s*<?([^)\s>]+)>?(?:\s+"[^"]*")?\s*\)`)

var fencedBlock = regexp.MustCompile("(?s)```.*?```|~~~.*?~~~")

// MarkdownFiles returns every .md file under root, skipping VCS and vendor
// directories, relative to root.
func MarkdownFiles(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "vendor", "node_modules", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if strings.EqualFold(filepath.Ext(path), ".md") {
			rel, err := filepath.Rel(root, path)
			if err != nil {
				return err
			}
			out = append(out, rel)
		}
		return nil
	})
	return out, err
}

// anchorSlug converts a heading line to its GitHub-style anchor: lowercase,
// spaces to hyphens, everything but letters, digits, hyphens, and
// underscores dropped (GitHub preserves underscores — headings naming files
// like BENCH_update.json anchor with them intact).
func anchorSlug(heading string) string {
	heading = strings.TrimSpace(heading)
	var b strings.Builder
	for _, r := range strings.ToLower(heading) {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_':
			b.WriteRune(r)
		case r == ' ' || r == '-':
			b.WriteByte('-')
		}
	}
	return b.String()
}

// anchorsOf returns the set of heading anchors of a markdown document,
// including the -1, -2 suffixes GitHub appends to duplicates.
func anchorsOf(content string) map[string]bool {
	out := map[string]bool{}
	seen := map[string]int{}
	for _, line := range strings.Split(fencedBlock.ReplaceAllString(content, ""), "\n") {
		trimmed := strings.TrimSpace(line)
		if !strings.HasPrefix(trimmed, "#") {
			continue
		}
		heading := strings.TrimLeft(trimmed, "#")
		if heading == trimmed || (heading != "" && heading[0] != ' ') {
			continue // not a heading: no space after the #s (or no #s)
		}
		slug := anchorSlug(heading)
		if n := seen[slug]; n > 0 {
			out[fmt.Sprintf("%s-%d", slug, n)] = true
		} else {
			out[slug] = true
		}
		seen[slug]++
	}
	return out
}

// external reports whether a link target leaves the repository.
func external(target string) bool {
	return strings.Contains(target, "://") ||
		strings.HasPrefix(target, "mailto:") ||
		strings.HasPrefix(target, "//")
}

// CheckMarkdownLinks verifies every relative link and anchor in every
// markdown file under root, returning one human-readable complaint per
// broken link.
func CheckMarkdownLinks(root string) ([]string, error) {
	files, err := MarkdownFiles(root)
	if err != nil {
		return nil, err
	}
	anchors := map[string]map[string]bool{} // md file (rel) -> anchor set
	contents := map[string]string{}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(root, f))
		if err != nil {
			return nil, err
		}
		contents[f] = string(data)
		anchors[f] = anchorsOf(string(data))
	}
	var complaints []string
	for _, f := range files {
		body := fencedBlock.ReplaceAllString(contents[f], "")
		for _, m := range mdLink.FindAllStringSubmatch(body, -1) {
			target := m[1]
			if external(target) {
				continue
			}
			path, frag, _ := strings.Cut(target, "#")
			if path == "" { // same-file anchor
				if frag != "" && !anchors[f][frag] {
					complaints = append(complaints, fmt.Sprintf("%s: broken anchor #%s", f, frag))
				}
				continue
			}
			resolved := filepath.Join(filepath.Dir(f), filepath.FromSlash(path))
			abs := filepath.Join(root, resolved)
			st, err := os.Stat(abs)
			if err != nil {
				complaints = append(complaints, fmt.Sprintf("%s: broken link %s (no such file)", f, target))
				continue
			}
			if frag != "" {
				if st.IsDir() {
					complaints = append(complaints, fmt.Sprintf("%s: anchor on directory link %s", f, target))
					continue
				}
				a, ok := anchors[filepath.ToSlash(resolved)]
				if !ok {
					// Anchor into a non-markdown file (e.g. source): cannot
					// verify; GitHub renders these as plain files, so flag it.
					complaints = append(complaints, fmt.Sprintf("%s: anchor into non-markdown file %s", f, target))
					continue
				}
				if !a[frag] {
					complaints = append(complaints, fmt.Sprintf("%s: broken anchor %s", f, target))
				}
			}
		}
	}
	return complaints, nil
}

// CheckDocComments parses every non-test Go file under root and returns one
// complaint per exported top-level declaration (functions, methods, types,
// and var/const groups introducing exported names) that has no doc comment.
func CheckDocComments(root string) ([]string, error) {
	fset := token.NewFileSet()
	var complaints []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "vendor", "node_modules", "testdata":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Name.IsExported() && dd.Doc.Text() == "" {
					complaints = append(complaints,
						fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
							rel, fset.Position(dd.Pos()).Line, declKind(dd), dd.Name.Name))
				}
			case *ast.GenDecl:
				if dd.Tok != token.TYPE && dd.Tok != token.VAR && dd.Tok != token.CONST {
					continue
				}
				groupDoc := dd.Doc.Text() != ""
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() && !groupDoc && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
							complaints = append(complaints,
								fmt.Sprintf("%s:%d: exported type %s has no doc comment",
									rel, fset.Position(sp.Pos()).Line, sp.Name.Name))
						}
					case *ast.ValueSpec:
						for _, name := range sp.Names {
							if name.IsExported() && !groupDoc && sp.Doc.Text() == "" && sp.Comment.Text() == "" {
								complaints = append(complaints,
									fmt.Sprintf("%s:%d: exported %s %s has no doc comment",
										rel, fset.Position(sp.Pos()).Line, dd.Tok, name.Name))
							}
						}
					}
				}
			}
		}
		return nil
	})
	return complaints, err
}

func declKind(fd *ast.FuncDecl) string {
	if fd.Recv != nil {
		return "method"
	}
	return "function"
}

// papersURL matches any absolute URL, for vetting PAPERS.md's links.
var papersURL = regexp.MustCompile(`https?://[^\s)>\]]+`)

// CheckPapersIndex lints root's PAPERS.md as a citation index. Retrieval
// pipelines tend to leave transcript debris behind — dead "(figure omitted
// in retrieval)" stubs, pasted author lists full of <sup> affiliation
// markers, fenced blocks of raw paper text — and links to anything but a
// paper's canonical arXiv abstract page rot or were never real. One
// complaint per offending line; a missing PAPERS.md is not an error (not
// every checkout carries the index).
func CheckPapersIndex(root string) ([]string, error) {
	const name = "PAPERS.md"
	data, err := os.ReadFile(filepath.Join(root, name))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var complaints []string
	for i, line := range strings.Split(string(data), "\n") {
		at := func(format string, args ...any) {
			complaints = append(complaints,
				fmt.Sprintf("%s:%d: %s", name, i+1, fmt.Sprintf(format, args...)))
		}
		if strings.Contains(line, "figure omitted") {
			at("dead figure stub left over from retrieval")
		}
		if strings.Contains(line, "<sup>") {
			at("raw author-list debris (<sup> affiliation markup)")
		}
		if t := strings.TrimSpace(line); strings.HasPrefix(t, "```") || strings.HasPrefix(t, "~~~") {
			at("code fence — PAPERS.md is a citation index, not a paper transcript")
		}
		for _, u := range papersURL.FindAllString(line, -1) {
			if !strings.HasPrefix(u, "https://arxiv.org/abs/") {
				at("link %s is not a canonical arXiv abstract page (https://arxiv.org/abs/<id>)", u)
			}
		}
	}
	return complaints, nil
}

// CheckAPIMentions checks that every exported top-level name of the Go
// package in dir (methods excluded) is discoverable from its narrative
// documentation: mentioned in the package doc comment, named by an
// Example<Name> function, or referenced from the doc or body of some
// example in the package's _test.go files. A name failing all three is API
// that godoc lists but nothing explains in context — the gap this linter
// exists to catch.
func CheckAPIMentions(dir string) ([]string, error) {
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type export struct {
		name, kind string
		line       int
	}
	var exports []export
	var pkgDoc strings.Builder
	var exampleText strings.Builder // example names, docs, and bodies, concatenated
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		file, err := parser.ParseFile(fset, path, src, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if strings.HasSuffix(name, "_test.go") {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Example") {
					continue
				}
				exampleText.WriteString(fd.Name.Name)
				exampleText.WriteByte('\n')
				exampleText.WriteString(fd.Doc.Text())
				if fd.Body != nil {
					body := src[fset.Position(fd.Body.Lbrace).Offset:fset.Position(fd.Body.Rbrace).Offset]
					exampleText.Write(body)
					exampleText.WriteByte('\n')
				}
			}
			continue
		}
		pkgDoc.WriteString(file.Doc.Text())
		for _, decl := range file.Decls {
			switch dd := decl.(type) {
			case *ast.FuncDecl:
				if dd.Recv == nil && dd.Name.IsExported() {
					exports = append(exports, export{dd.Name.Name, "function", fset.Position(dd.Pos()).Line})
				}
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							exports = append(exports, export{sp.Name.Name, "type", fset.Position(sp.Pos()).Line})
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								exports = append(exports, export{n.Name, dd.Tok.String(), fset.Position(n.Pos()).Line})
							}
						}
					}
				}
			}
		}
	}
	doc, examples := pkgDoc.String(), exampleText.String()
	var complaints []string
	for _, ex := range exports {
		word := regexp.MustCompile(`\b` + regexp.QuoteMeta(ex.name) + `\b`)
		if word.MatchString(doc) || word.MatchString(examples) {
			continue
		}
		complaints = append(complaints, fmt.Sprintf(
			"%s: exported %s %s is mentioned neither in the package documentation nor in any example",
			filepath.Base(dir), ex.kind, ex.name))
	}
	return complaints, nil
}
