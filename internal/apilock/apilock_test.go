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

// TestDumpPromotedMethods pins the one part of the surface that is not
// written where it shows: methods promoted into an exported struct from the
// unexported struct types it embeds — listed under the exported type,
// across files, through generic and nested embedding, minus shadowed and
// ambiguous names — while the unexported embed itself is not listed.
func TestDumpPromotedMethods(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", `package p

type Engine struct {
	front[int]
	Options
	name string
}

type Sharded struct {
	*front[string]
	Stats int
}

type Both struct {
	left
	right
}

// Build shadows the promoted one.
func (e *Engine) Build() error { return nil }
`)
	write("b.go", `package p

type Options struct{ Epsilon float64 }

type front[S any] struct {
	deep
	s S
}

func (f *front[S]) Load(rel string, rows ...[]int64) error { return nil }
func (f *front[S]) Build() error                           { return nil }
func (f front[S]) N() int                                  { return 0 }
func (f *front[S]) Stats() int                             { return 0 }
func (f *front[S]) hidden()                                {}

type deep struct{}

func (deep) Close() {}
func (deep) N() int { return 1 }

type left struct{}

func (left) Shared() {}
func (left) Left()   {}

type right struct{}

func (right) Shared() {}
`)
	got, err := Dump(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"func (*Engine) Build() error",
		"func (*Engine) Load(rel string, rows ...[]int64) error",
		"func (*Engine) Stats() int",
		"func (Both) Left()",
		"func (Engine) Close()",
		"func (Engine) N() int",
		"func (Sharded) Build() error",
		"func (Sharded) Close()",
		"func (Sharded) Load(rel string, rows ...[]int64) error",
		"func (Sharded) N() int",
		"type Both struct",
		"type Engine struct",
		"type Engine struct; embed Options",
		"type Options struct",
		"type Options struct; field Epsilon float64",
		"type Sharded struct",
		"type Sharded struct; field Stats int",
	}, "\n") + "\n"
	if got != want {
		t.Errorf("dump:\n%s\nwant:\n%s", got, want)
	}
}
