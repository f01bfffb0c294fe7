// Package apilock locks the library's exported API surface: Dump renders
// every exported declaration of a package directory — functions, methods,
// types with their exported fields, and var/const names — into a stable,
// sorted, textual form, and the package's test diffs that dump against the
// committed golden file (ivmeps.golden). A PR that changes the public API
// therefore has to regenerate the golden file (`make api-update`), turning
// every API change into an explicit, reviewable diff instead of a silent
// drift — the same discipline gorelease applies to released modules,
// without the module-proxy machinery.
//
// The dump is source-based (go/parser, no type checking), so it renders
// declarations as written: a field whose type names an internal package
// shows that spelling. That is deliberate — the golden file tracks the
// declared surface, and any change to it, including a swap from a concrete
// type to an alias, is exactly what should show up in review.
//
// An exported struct may embed only exported types. An unexported type it
// embeds is one of this package, or predeclared like error, and would
// promote methods into the exported struct that have no line of their own,
// so the lock could pass over a change to them. Dump refuses such a struct
// with an error naming both types; an exported embed renders as an "embed"
// line, whose type is locked where it is declared.
package apilock

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Dump renders the exported API of the single Go package in dir (non-test
// files only) as one sorted block of text, one line per declaration. It
// fails on an exported struct that embeds an unexported type.
func Dump(dir string) (string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return "", err
		}
		files = append(files, file)
	}
	var lines []string
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if l, ok := funcLine(d); ok {
					lines = append(lines, l)
				}
			case *ast.GenDecl:
				ls, err := genLines(d)
				if err != nil {
					return "", err
				}
				lines = append(lines, ls...)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n", nil
}

// funcLine renders one exported function or method, e.g.
// "func (*Engine) Commit(b *Batch) error". Methods on unexported
// receivers are skipped with their type.
func funcLine(d *ast.FuncDecl) (string, bool) {
	if !d.Name.IsExported() {
		return "", false
	}
	var b strings.Builder
	b.WriteString("func ")
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := types.ExprString(d.Recv.List[0].Type)
		if !ast.IsExported(strings.TrimLeft(recv, "*")) {
			return "", false
		}
		fmt.Fprintf(&b, "(%s) ", recv)
	}
	b.WriteString(d.Name.Name)
	// ExprString renders the signature as "func(args) results"; strip the
	// leading keyword so the name slots in.
	sig := types.ExprString(d.Type)
	b.WriteString(strings.TrimPrefix(sig, "func"))
	return b.String(), true
}

func genLines(d *ast.GenDecl) ([]string, error) {
	var lines []string
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			ls, err := typeLines(ts)
			if err != nil {
				return nil, err
			}
			lines = append(lines, ls...)
		}
	case token.VAR, token.CONST:
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for _, name := range vs.Names {
				if !name.IsExported() {
					continue
				}
				l := fmt.Sprintf("%s %s", d.Tok, name.Name)
				if vs.Type != nil {
					l += " " + types.ExprString(vs.Type)
				}
				lines = append(lines, l)
			}
		}
	}
	return lines, nil
}

// typeLines renders one exported type: structs get one line per exported
// field ("type Options struct; field Epsilon float64") and per embedded
// type, interfaces one per method, and everything else a single line with
// the underlying spelling. It refuses a struct that embeds an unexported
// type.
func typeLines(ts *ast.TypeSpec) ([]string, error) {
	name := ts.Name.Name
	assign := ""
	if ts.Assign != token.NoPos {
		assign = "= " // alias declarations are part of the surface
	}
	switch t := ts.Type.(type) {
	case *ast.StructType:
		lines := []string{fmt.Sprintf("type %s %sstruct", name, assign)}
		for _, f := range t.Fields.List {
			ft := types.ExprString(f.Type)
			if len(f.Names) == 0 { // embedded
				// The embedded type's name: "*front[S]" gives "front",
				// "sync.Mutex" gives "Mutex".
				base, _, _ := strings.Cut(strings.TrimPrefix(ft, "*"), "[")
				if !ast.IsExported(base[strings.LastIndex(base, ".")+1:]) {
					return nil, fmt.Errorf("apilock: exported struct %s embeds unexported type %s, whose promoted methods the dump does not render", name, ft)
				}
				lines = append(lines, fmt.Sprintf("type %s struct; embed %s", name, ft))
				continue
			}
			for _, fn := range f.Names {
				if fn.IsExported() {
					lines = append(lines, fmt.Sprintf("type %s struct; field %s %s", name, fn.Name, ft))
				}
			}
		}
		return lines, nil
	case *ast.InterfaceType:
		lines := []string{fmt.Sprintf("type %s %sinterface", name, assign)}
		for _, m := range t.Methods.List {
			mt := types.ExprString(m.Type)
			if len(m.Names) == 0 {
				lines = append(lines, fmt.Sprintf("type %s interface; embed %s", name, mt))
				continue
			}
			for _, mn := range m.Names {
				if mn.IsExported() {
					lines = append(lines, fmt.Sprintf("type %s interface; method %s%s",
						name, mn.Name, strings.TrimPrefix(mt, "func")))
				}
			}
		}
		return lines, nil
	default:
		return []string{fmt.Sprintf("type %s %s%s", name, assign, types.ExprString(ts.Type))}, nil
	}
}
