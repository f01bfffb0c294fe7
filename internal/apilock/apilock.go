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
// One piece of the surface is not written where it shows: the methods an
// exported struct gets by embedding an unexported struct type of the same
// package. The dump lists those under the exported type, as godoc does —
// "func (*Engine) Load(…)" whether Load is declared on Engine or promoted
// into it — and omits the embed line of the unexported type itself, so
// moving a method body between an exported type and a struct it embeds
// leaves the dump unchanged, and dropping the method does not.
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
// files only) as one sorted block of text, one line per declaration.
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
	// First pass: the package's struct types and the methods declared on
	// each type, which promotion needs across files.
	p := pkgIndex{structs: map[string]*ast.StructType{}, methods: map[string][]*ast.FuncDecl{}}
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil && len(d.Recv.List) == 1 {
					recv, _ := baseTypeName(d.Recv.List[0].Type)
					p.methods[recv] = append(p.methods[recv], d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if ts, ok := spec.(*ast.TypeSpec); ok {
						if st, ok := ts.Type.(*ast.StructType); ok {
							p.structs[ts.Name.Name] = st
						}
					}
				}
			}
		}
	}
	var lines []string
	for _, file := range files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if l, ok := funcLine(d, ""); ok {
					lines = append(lines, l)
				}
			case *ast.GenDecl:
				lines = append(lines, p.genLines(d)...)
			}
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n", nil
}

// pkgIndex is what promotion needs to know about the package as a whole:
// every struct type by name, and the methods declared on each type name.
type pkgIndex struct {
	structs map[string]*ast.StructType
	methods map[string][]*ast.FuncDecl
}

// baseTypeName reduces a receiver or embedded-field type to the name it
// declares or instantiates — "*front[S]" and "front[*core.Snapshot]" both
// give "front" — and reports whether it was a pointer. Types of
// other packages give "".
func baseTypeName(e ast.Expr) (name string, ptr bool) {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e, ptr = t.X, true
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t.Name, ptr
		default:
			return "", ptr
		}
	}
}

// unexportedStruct reports whether an embedded field's type is an
// unexported struct type of this package, and its name.
func (p *pkgIndex) unexportedStruct(f *ast.Field) (name string, ptr, ok bool) {
	name, ptr = baseTypeName(f.Type)
	_, ok = p.structs[name]
	return name, ptr, ok && !ast.IsExported(name)
}

// promotedLines renders the exported methods that the exported struct
// outer gets from the unexported struct types it embeds, directly or
// through further unexported embedding. Go's selector rule applies: a name
// declared at a shallower depth — a field or method of outer, or of an
// embedded struct nearer to it — shadows deeper ones, and a name two
// embedded structs of one depth both provide is promoted from neither.
func (p *pkgIndex) promotedLines(outer string, st *ast.StructType) []string {
	type embed struct {
		name string
		ptr  bool // reached through a pointer: value-receiver spelling
	}
	shadow := map[string]bool{}
	for _, m := range p.methods[outer] {
		shadow[m.Name.Name] = true
	}
	// scan records st's field names as taken at this depth and queues its
	// unexported struct embeds for the next one.
	scan := func(st *ast.StructType, viaPtr bool, taken map[string]bool) (next []embed) {
		for _, f := range st.Fields.List {
			for _, fn := range f.Names {
				taken[fn.Name] = true
			}
			if len(f.Names) == 0 {
				name, ptr, ok := p.unexportedStruct(f)
				taken[name] = true
				if ok {
					next = append(next, embed{name, viaPtr || ptr})
				}
			}
		}
		return next
	}
	level := scan(st, false, shadow)
	var lines []string
	for len(level) > 0 {
		found := map[string][]string{}
		taken := map[string]bool{}
		var next []embed
		for _, em := range level {
			for _, m := range p.methods[em.name] {
				name := m.Name.Name
				if !m.Name.IsExported() || shadow[name] {
					taken[name] = true
					continue
				}
				recv := outer
				if _, ptr := baseTypeName(m.Recv.List[0].Type); ptr && !em.ptr {
					recv = "*" + outer
				}
				l, _ := funcLine(m, recv)
				found[name] = append(found[name], l)
			}
			next = append(next, scan(p.structs[em.name], em.ptr, taken)...)
		}
		for name, ls := range found {
			if len(ls) == 1 && !taken[name] {
				lines = append(lines, ls[0])
			}
			shadow[name] = true
		}
		for name := range taken {
			shadow[name] = true
		}
		level = next
	}
	return lines
}

// funcLine renders one exported function or method, e.g.
// "func (*Engine) Commit(b *Batch) error". Methods on unexported
// receivers are skipped with their type — unless recvAs names the exported
// type they are promoted into, which then stands as the receiver.
func funcLine(d *ast.FuncDecl, recvAs string) (string, bool) {
	if !d.Name.IsExported() {
		return "", false
	}
	var b strings.Builder
	b.WriteString("func ")
	if d.Recv != nil && len(d.Recv.List) == 1 {
		recv := recvAs
		if recv == "" {
			recv = types.ExprString(d.Recv.List[0].Type)
		}
		if !exportedTypeName(recv) {
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

// exportedTypeName reports whether a receiver spelling like "*Engine" or
// "Batch" names an exported type.
func exportedTypeName(s string) bool {
	s = strings.TrimLeft(s, "*")
	return s != "" && ast.IsExported(s)
}

func (p *pkgIndex) genLines(d *ast.GenDecl) []string {
	var lines []string
	switch d.Tok {
	case token.TYPE:
		for _, spec := range d.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok || !ts.Name.IsExported() {
				continue
			}
			lines = append(lines, p.typeLines(ts)...)
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
	return lines
}

// typeLines renders one exported type: structs get one line per exported
// field ("type Options struct; field Epsilon float64") and per embedded
// type — for an unexported struct of this package, the methods it promotes
// instead — interfaces one per method, and everything else a single line
// with the underlying spelling.
func (p *pkgIndex) typeLines(ts *ast.TypeSpec) []string {
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
				if _, _, ok := p.unexportedStruct(f); !ok {
					lines = append(lines, fmt.Sprintf("type %s struct; embed %s", name, ft))
				}
				continue
			}
			for _, fn := range f.Names {
				if fn.IsExported() {
					lines = append(lines, fmt.Sprintf("type %s struct; field %s %s", name, fn.Name, ft))
				}
			}
		}
		return append(lines, p.promotedLines(name, t)...)
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
		return lines
	default:
		return []string{fmt.Sprintf("type %s %s%s", name, assign, types.ExprString(ts.Type))}
	}
}
