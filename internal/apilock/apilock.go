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
// When the dumped directory is a module root, an alias of a type declared
// in another package of the module (type ArityError = relation.ArityError)
// is followed into the package that declares it: the target's exported
// fields and methods render under the alias's name, so the lock covers them
// as if they were declared here, and only the head line ("type ArityError
// = struct") says it is an alias. An alias of a type outside the module
// renders as one line.
//
// An exported struct may embed only exported types. An unexported type it
// embeds is one of this package, or predeclared like error, and would
// promote methods into the exported struct that have no line of their own,
// so the lock could pass over a change to them. Dump refuses such a struct
// with an error naming both types; an exported embed renders as an "embed"
// line, whose type is locked where it is declared.
package apilock

import (
	"cmp"
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
	lines, err := module{modulePath(dir), dir}.pkgLines(dir, "", "")
	if err != nil {
		return "", err
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n", nil
}

// module is the module whose root is the dumped directory: its path, empty
// when the directory holds no go.mod, and the directory.
type module struct{ path, dir string }

// modulePath reads the module path off the go.mod in dir, if there is one.
func modulePath(dir string) string {
	data, _ := os.ReadFile(filepath.Join(dir, "go.mod")) // none: follow no alias
	for _, l := range strings.Split(string(data), "\n") {
		if p, ok := strings.CutPrefix(l, "module "); ok {
			return strings.Trim(strings.TrimSpace(p), `"`)
		}
	}
	return ""
}

// pkgLines renders the exported declarations of the package in dir: all of
// them when only is empty, else the type only and its methods, under the
// name as.
func (m module) pkgLines(dir, only, as string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var lines []string
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if l, ok := funcLine(d, only, as); ok {
					lines = append(lines, l)
				}
			case *ast.GenDecl:
				ls, err := m.genLines(file, d, only, as)
				if err != nil {
					return nil, err
				}
				lines = append(lines, ls...)
			}
		}
	}
	return lines, nil
}

// funcLine renders one exported function or method, e.g.
// "func (*Engine) Commit(b *Batch) error". Methods on unexported
// receivers are skipped with their type. With only set, it renders just
// the methods of the type only, their receiver named as.
func funcLine(d *ast.FuncDecl, only, as string) (string, bool) {
	recv := ""
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv = types.ExprString(d.Recv.List[0].Type)
	}
	base := strings.TrimLeft(recv, "*")
	if !d.Name.IsExported() || recv != "" && !ast.IsExported(base) || only != "" && base != only {
		return "", false
	}
	var b strings.Builder
	b.WriteString("func ")
	if only != "" {
		recv = strings.TrimSuffix(recv, base) + as
	}
	if recv != "" {
		fmt.Fprintf(&b, "(%s) ", recv)
	}
	b.WriteString(d.Name.Name)
	// ExprString renders the signature as "func(args) results"; strip the
	// leading keyword so the name slots in.
	sig := types.ExprString(d.Type)
	b.WriteString(strings.TrimPrefix(sig, "func"))
	return b.String(), true
}

// genLines renders one declaration group of file: its exported types, an
// alias into the module followed to the package that declares its target,
// and its exported vars and consts. With only set, it renders just the
// type only, as an alias named as.
func (m module) genLines(file *ast.File, d *ast.GenDecl, only, as string) ([]string, error) {
	var lines []string
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() || only != "" && ts.Name.Name != only {
				continue
			}
			name, alias := cmp.Or(as, ts.Name.Name), as != "" || ts.Assign != token.NoPos
			var ls []string
			var err error
			if dir, target, ok := m.aliasTarget(file, ts); ok {
				ls, err = m.pkgLines(dir, target, name)
			} else {
				ls, err = typeLines(ts, name, alias)
			}
			if err != nil {
				return nil, err
			}
			lines = append(lines, ls...)
		}
	case token.VAR, token.CONST:
		for _, spec := range d.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok || only != "" {
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

// aliasTarget resolves an alias of a type in another package of the
// module — type X = pkg.Y — to that package's directory and Y.
func (m module) aliasTarget(file *ast.File, ts *ast.TypeSpec) (dir, name string, ok bool) {
	sel, _ := ts.Type.(*ast.SelectorExpr)
	if ts.Assign == token.NoPos || sel == nil || m.path == "" {
		return "", "", false
	}
	pkg := types.ExprString(sel.X)
	for _, imp := range file.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		sub, inModule := strings.CutPrefix(path, m.path+"/")
		if inModule && (imp.Name == nil && strings.HasSuffix("/"+path, "/"+pkg) || imp.Name != nil && imp.Name.Name == pkg) {
			return filepath.Join(m.dir, sub), sel.Sel.Name, true
		}
	}
	return "", "", false
}

// typeLines renders one exported type under the name name: structs get one
// line per exported field ("type Options struct; field Epsilon float64")
// and per embedded type, interfaces one per method, and everything else a
// single line with the underlying spelling; an alias's head reads "= ". It
// refuses a struct that embeds an unexported type.
func typeLines(ts *ast.TypeSpec, name string, alias bool) ([]string, error) {
	assign := ""
	if alias {
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
