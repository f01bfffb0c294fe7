package apilock

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// -update regenerates the golden file from the current source instead of
// diffing against it: `make api-update`.
var update = flag.Bool("update", false, "rewrite ivmeps.golden from the current exported API")

const golden = "ivmeps.golden"

// TestAPILock diffs the exported API of the public ivmeps package (the
// repository root) against the committed golden file. A mismatch means the
// public surface changed: eyeball the diff below, and if the change is
// intended, commit the regenerated golden (`make api-update`) alongside it.
func TestAPILock(t *testing.T) {
	got, err := Dump("../..")
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", golden, strings.Count(got, "\n"))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run `make api-update` once): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimRight(got, "\n"), "\n") {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(strings.TrimRight(want, "\n"), "\n") {
		wantSet[l] = true
	}
	for l := range wantSet {
		if !gotSet[l] {
			t.Errorf("removed from exported API: %s", l)
		}
	}
	for l := range gotSet {
		if !wantSet[l] {
			t.Errorf("added to exported API:     %s", l)
		}
	}
	t.Fatalf("exported API changed; if intended, regenerate the lock with `make api-update` and commit %s", golden)
}

// TestDumpRendersCoreShapes sanity-checks the renderer on the live package:
// the dump must contain a function, a method, a struct field, and a
// sentinel var in the expected spellings (if these specific lines are
// renamed, update the expectations — the point is the shapes).
func TestDumpRendersCoreShapes(t *testing.T) {
	got, err := Dump("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"func ParseQuery(s string) (*Query, error)",
		"func (*Engine) Commit(b *Batch) error",
		"type Options struct; field Epsilon float64",
		"var ErrNotBuilt",
	} {
		if !strings.Contains(got, want+"\n") {
			t.Errorf("dump is missing %q", want)
		}
	}
}

// TestDumpRefusesUnexportedEmbed pins the refusal rule: an exported struct
// that embeds an unexported type of its package, generic or through a
// pointer, fails the dump with an error naming both types, while exported
// embeds still render as embed lines.
func TestDumpRefusesUnexportedEmbed(t *testing.T) {
	dump := func(src string) (string, error) {
		t.Helper()
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return Dump(dir)
	}
	const shared = `
type front[S any] struct{ s S }

func (f *front[S]) Load(rel string) error { return nil }

type unexported struct{}

func (unexported) Close() {}
`
	for _, c := range []struct{ outer, inner, fields string }{
		{"Engine", "front[int]", "front[int]"},
		{"Sharded", "*unexported", "*unexported\n\tStats int"},
	} {
		got, err := dump("package p\n\ntype " + c.outer + " struct {\n\t" + c.fields + "\n}\n" + shared)
		if err == nil {
			t.Errorf("%s embeds %s, yet Dump passed:\n%s", c.outer, c.inner, got)
		} else if !strings.Contains(err.Error(), c.outer) || !strings.Contains(err.Error(), c.inner) {
			t.Errorf("Dump error %q does not name %s and %s", err, c.outer, c.inner)
		}
	}

	got, err := dump(`package p

import "sync"

type Options struct{ Epsilon float64 }

type Engine struct {
	Options
	sync.Mutex
	name string
}
`)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"type Engine struct",
		"type Engine struct; embed Options",
		"type Engine struct; embed sync.Mutex",
		"type Options struct",
		"type Options struct; field Epsilon float64",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}

// TestDumpRefusesPredeclaredEmbed pins the other half of the rule: a
// predeclared unexported type such as error also promotes a method with no
// line of its own, so an exported struct embedding it is refused too, while
// an unexported struct may embed it, since the dump skips that struct.
func TestDumpRefusesPredeclaredEmbed(t *testing.T) {
	dir := t.TempDir()
	src := "package p\n\ntype Wrapped struct {\n\terror\n\tCode int\n}\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Dump(dir)
	if err == nil {
		t.Errorf("Wrapped embeds error, yet Dump passed:\n%s", got)
	} else if !strings.Contains(err.Error(), "Wrapped") || !strings.Contains(err.Error(), "error") {
		t.Errorf("Dump error %q does not name Wrapped and error", err)
	}

	src = "package p\n\ntype wrapped struct {\n\terror\n}\n\ntype Code int\n"
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err = Dump(dir)
	if err != nil {
		t.Fatalf("an unexported struct's embed was refused: %v", err)
	}
	if want := "type Code int\n"; got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}

// TestDumpFollowsModuleAlias pins the alias rule on a synthetic module: a
// root alias to an internal struct renders that struct's exported fields
// and methods under the alias's name, with only the head line marking the
// alias; an alias outside the module renders as one line; and changing a
// field's type in the internal package changes the dump.
func TestDumpFollowsModuleAlias(t *testing.T) {
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
	write("go.mod", "module example.com/m\n\ngo 1.24\n")
	write("p.go", `package p

import (
	"time"

	rel "example.com/m/internal/relation"
)

// RowError is the relation layer's.
type RowError = rel.RowError

// Wait is time's.
type Wait = time.Duration
`)
	internal := func(rowType string) {
		write("internal/relation/relation.go", `package relation

// RowError reports a row.
type RowError struct {
	Relation string
	Row      `+rowType+`
	hidden   int
}

// Error formats it.
func (e *RowError) Error() string { return e.Relation }

func (e *RowError) unexported() {}

// Other is not aliased.
type Other struct{ X int }

// New is not a method.
func New() *RowError { return nil }
`)
	}
	internal("[]int64")
	got, err := Dump(root)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"func (*RowError) Error() string",
		"type RowError = struct",
		"type RowError struct; field Relation string",
		"type RowError struct; field Row []int64",
		"type Wait = time.Duration",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
	internal("[]int32")
	if changed, err := Dump(root); err != nil {
		t.Fatal(err)
	} else if changed == got || !strings.Contains(changed, "type RowError struct; field Row []int32\n") {
		t.Errorf("dump after the internal field's type changed:\n%s", changed)
	}
}
