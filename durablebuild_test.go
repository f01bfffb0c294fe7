package ivmeps_test

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"ivmeps"
	"ivmeps/internal/wal"
	"ivmeps/internal/wal/faultfs"
)

// A durable Build writes its initial checkpoint on a goroutine of its own,
// from the sealed base relations, while it indexes them and materializes the
// views (core's Preprocess alongside). These tests hold that overlap to what
// the serial Build wrote: under -race, on inputs large enough that the
// indexing and the light parts run while the checkpoint streams out; byte
// for byte; and with no goroutine left behind, whether the checkpoint
// succeeded or failed.

// durableLoad loads rows into a new durable engine: the first half of each
// relation one row a Load, the rest in one Load.
func durableLoad(t *testing.T, query string, d ivmeps.Durability, rows map[string][][]int64) *ivmeps.Engine {
	t.Helper()
	e, err := ivmeps.New(ivmeps.MustParseQuery(query), ivmeps.Options{Epsilon: 0.5, Durability: d})
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"R", "S"} {
		rs := rows[rel]
		for _, r := range rs[:len(rs)/2] {
			if err := e.Load(rel, r); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Load(rel, rs[len(rs)/2:]...); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestBuildCheckpointsAlongside builds durable engines over 60 000 rows a
// relation — the star query, whose views are sums off the base indexes, and
// the two-path query, whose light parts (Partition.Rebuild) and base indexes
// are built while the checkpoint reads the same relations — and holds the
// initial checkpoint to the loaded rows and Open's recovery to the built
// result. Run under -race, it is the overlap's race check.
func TestBuildCheckpointsAlongside(t *testing.T) {
	rows := spreadRows(60000)
	for _, query := range []string{"Q(A, B, C) = R(A, B), S(A, C)", twoPath} {
		t.Run(query, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "log")
			d := ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways}
			e := durableLoad(t, query, d, rows)
			if err := e.Build(); err != nil {
				t.Fatal(err)
			}
			built, err := bag(e.All())
			if err != nil {
				t.Fatal(err)
			}
			n := e.N()
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}

			ck, err := wal.LoadCheckpointFS(wal.OSFS, filepath.Join(dir, fmt.Sprintf("ckpt-%020d.ckpt", 1)))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ck.Rels {
				var want state
				if want, err = bag(pairs(rows[r.Name], ones(len(rows[r.Name])))); err != nil {
					t.Fatal(err)
				}
				got := state{}
				for i, m := range r.Mults {
					got[key(r.Vals[i*r.Arity:(i+1)*r.Arity])] = m
				}
				if err := diff(got, want); err != nil {
					t.Fatalf("checkpointed %s: %v", r.Name, err)
				}
			}

			o, err := ivmeps.Open(ivmeps.MustParseQuery(query), ivmeps.Options{Epsilon: 0.5, Durability: d})
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			recovered, err := bag(o.All())
			if err != nil {
				t.Fatal(err)
			}
			if err := diff(recovered, built); err != nil {
				t.Fatalf("Open recovered another result: %v", err)
			}
			if o.N() != n || o.Epoch() != 1 {
				t.Fatalf("Open recovered N %d at epoch %d, want %d at 1", o.N(), o.Epoch(), n)
			}
		})
	}
}

// spreadRows returns n distinct rows of R(A, B) and of S(B, C) over 20 000
// join values, ten of them heavy in R at ε = 0.5 (a sixth of R's rows), so
// the two-path query has light parts and heavy keys and its result, a few
// rows a join value, can be enumerated whole.
func spreadRows(n int) map[string][][]int64 {
	rng := rand.New(rand.NewSource(7))
	rows := map[string][][]int64{}
	for i := range int64(n) {
		b := rng.Int63n(20000)
		if i%6 == 0 {
			b = rng.Int63n(10)
		}
		rows["R"] = append(rows["R"], []int64{i, b})
		rows["S"] = append(rows["S"], []int64{rng.Int63n(20000), i})
	}
	return rows
}

// ones is n multiplicities of 1.
func ones(n int) []int64 {
	m := make([]int64, n)
	for i := range m {
		m[i] = 1
	}
	return m
}

// TestInitialCheckpointBytes pins the initial checkpoint of a fixed load,
// repeats and all, by its SHA-256: the file a durable Build writes beside
// materialization is the one the serial Build wrote before it.
func TestInitialCheckpointBytes(t *testing.T) {
	rows := twoPathRows(3000)
	rows["R"] = append(rows["R"], rows["R"][:100]...)
	dir := filepath.Join(t.TempDir(), "log")
	e := durableLoad(t, "Q(A, B, C) = R(A, B), S(A, C)", ivmeps.Durability{Dir: dir}, rows)
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%020d.ckpt", 1)))
	if err != nil {
		t.Fatal(err)
	}
	const want = "596e652c04e72b54facca60066aac0b59cc680541cb987ec597eb6d6742fc90e"
	if sum := sha256.Sum256(data); hex.EncodeToString(sum[:]) != want {
		t.Fatalf("initial checkpoint of %d bytes has SHA-256 %x, want %s", len(data), sum, want)
	}
}

// TestBuildLeavesNoGoroutine holds a durable Build to its goroutines: when it
// returns — with the checkpoint written, or with the error of a checkpoint
// whose rename failed — every goroutine it started has returned. A goroutine
// that has done its work may still be unwinding when Build returns, so the
// check waits a moment for the runtime to reap it, as a leak check must.
func TestBuildLeavesNoGoroutine(t *testing.T) {
	rows := twoPathRows(20000)
	for _, fault := range []bool{false, true} {
		t.Run(fmt.Sprintf("fault=%t", fault), func(t *testing.T) {
			fs := faultfs.New(nil)
			if fault {
				fs.Inject(faultfs.Rename, 1) // the checkpoint's: New renames nothing
			}
			d := ivmeps.Durability{Dir: filepath.Join(t.TempDir(), "log"), Sync: ivmeps.SyncAlways}
			ivmeps.SetDurabilityFS(&d, fs)
			e := durableLoad(t, twoPath, d, rows)
			defer e.Close()
			err := e.Build()
			if fault != (err != nil) || fault && !fs.Tripped() {
				t.Fatalf("Build = %v with the checkpoint's rename failing: %t", err, fault)
			}
			if fault {
				if err := e.Insert("R", []int64{1, 1}); !errors.Is(err, faultfs.ErrInjected) {
					t.Fatalf("Insert after a failed initial checkpoint = %v, want Build's error", err)
				}
			}
			left := childGoroutines()
			for deadline := time.Now().Add(5 * time.Second); len(left) > 0 && time.Now().Before(deadline); left = childGoroutines() {
				time.Sleep(time.Millisecond)
			}
			if len(left) > 0 {
				t.Fatalf("goroutines Build started are still running:\n%s", strings.Join(left, "\n\n"))
			}
		})
	}
}

// gatedFS holds the checkpoint's rename until the test releases it.
type gatedFS struct {
	wal.VFS
	renaming, release chan struct{}
}

func (g gatedFS) Rename(oldpath, newpath string) error {
	close(g.renaming)
	<-g.release
	return g.VFS.Rename(oldpath, newpath)
}

// TestBuildReturnsOnceDurable holds a durable Build until its initial
// checkpoint's rename, on the goroutine that writes it beside the
// materialization, is let through: Build must not return before, and does
// return after.
func TestBuildReturnsOnceDurable(t *testing.T) {
	fs := gatedFS{VFS: wal.OSFS, renaming: make(chan struct{}), release: make(chan struct{})}
	d := ivmeps.Durability{Dir: filepath.Join(t.TempDir(), "log"), Sync: ivmeps.SyncAlways}
	ivmeps.SetDurabilityFS(&d, fs)
	e := durableLoad(t, twoPath, d, spreadRows(20000))
	defer e.Close()
	built := make(chan error, 1)
	go func() { built <- e.Build() }()
	<-fs.renaming
	select {
	case err := <-built:
		close(fs.release)
		t.Fatalf("Build returned (%v) while its checkpoint was still being renamed", err)
	case <-time.After(200 * time.Millisecond): // far longer than the materialization takes
	}
	close(fs.release)
	if err := <-built; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(d.Dir, fmt.Sprintf("ckpt-%020d.ckpt", 1))); err != nil {
		t.Fatalf("Build returned without its checkpoint in place: %v", err)
	}
}

// createdIn matches the line of a goroutine's trace that names the goroutine
// that started it.
var createdIn = regexp.MustCompile(`\ncreated by .* in goroutine (\d+)\n`)

// childGoroutines returns the traces of the goroutines the calling goroutine
// started, and of the ones they started, that are still running.
func childGoroutines() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	traces := strings.Split(string(buf), "\n\n")
	id := func(trace string) string { return strings.Fields(trace)[1] }
	ours := map[string]bool{id(traces[0]): true} // the caller's comes first
	var left []string
	for grew := true; grew; {
		grew = false
		for _, tr := range traces[1:] {
			if m := createdIn.FindStringSubmatch(tr + "\n"); m != nil && ours[m[1]] && !ours[id(tr)] {
				ours[id(tr)] = true
				left = append(left, tr)
				grew = true
			}
		}
	}
	return left
}
