package wal_test

// Wedge-semantics unit tests, at the log layer: the first I/O failure
// latches the sticky wedge, and from then on the log touches NO file
// operation again — asserted by operation counting, which is the
// fsyncgate property (a failed fsync is never retried) in its most
// literal form. These live in an external test package so they can use
// the fault-injecting VFS (internal/wal/faultfs imports wal, so the
// in-package tests cannot).

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ivmeps/internal/wal"
	"ivmeps/internal/wal/faultfs"
)

// newTestLog creates a SyncAlways log on ffs in a temp dir.
func newTestLog(t *testing.T, ffs *faultfs.FS) *wal.Log {
	t.Helper()
	l, err := wal.Create(wal.Options{
		Dir: filepath.Join(t.TempDir(), "log"), Sync: wal.SyncAlways,
		SegmentBytes: 1 << 20, FS: ffs,
	})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	return l
}

// sameCounts reports whether two operation-count maps are equal.
func sameCounts(a, b map[faultfs.Kind]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestLogWedgeStopsAllIO wedges the log with a failed fsync and then
// proves, by counting, that no subsequent operation reaches the files:
// Append and Checkpoint refuse with the original wedge evidence, and
// Close only releases the descriptor.
func TestLogWedgeStopsAllIO(t *testing.T) {
	ffs := faultfs.New(nil)
	l := newTestLog(t, ffs)
	op := []wal.Op{{RelID: 1, Row: []int64{1, 2}, Mult: 1}}
	if err := l.Append(1, op); err != nil {
		t.Fatalf("clean append: %v", err)
	}

	ffs.Inject(faultfs.FileSync, 1)
	err := l.Append(2, op)
	var we *wal.LogWedgedError
	if !errors.As(err, &we) {
		t.Fatalf("append with failing fsync = %v, want LogWedgedError", err)
	}
	if we.Op != "sync" {
		t.Fatalf("wedge op = %q, want \"sync\"", we.Op)
	}

	// From here on, nothing may touch the filesystem. faultfs counts every
	// operation, so equality of counts IS the never-retry property.
	before := ffs.Counts()
	if err2 := l.Append(3, op); err2 != err {
		t.Fatalf("append after wedge = %v, want the latched %v", err2, err)
	}
	if err2 := l.Append(3, op); !errors.As(err2, &we) {
		t.Fatalf("second append after wedge = %v, want LogWedgedError", err2)
	}
	if err2 := l.Checkpoint(1, "Q", nil); !errors.As(err2, &we) {
		t.Fatalf("Checkpoint after wedge = %v, want LogWedgedError", err2)
	}
	if !sameCounts(before, ffs.Counts()) {
		t.Fatalf("wedged log touched the filesystem: ops %v -> %v", before, ffs.Counts())
	}

	// Close on a wedged log writes nothing — no flush, no fsync — and
	// returns nil: it may only release the descriptor.
	if err2 := l.Close(); err2 != nil {
		t.Fatalf("Close on wedged log = %v, want nil", err2)
	}
	after := ffs.Counts()
	if after[faultfs.Write] != before[faultfs.Write] || after[faultfs.FileSync] != before[faultfs.FileSync] {
		t.Fatalf("Close on wedged log wrote or synced: ops %v -> %v", before, after)
	}
	if err2 := l.Close(); err2 != nil {
		t.Fatalf("second Close = %v, want nil", err2)
	}
}

// TestLogWedgeKeepsFirstEvidence checks that the wedge latches the FIRST
// failure and later failures cannot overwrite it.
func TestLogWedgeKeepsFirstEvidence(t *testing.T) {
	ffs := faultfs.New(nil)
	l := newTestLog(t, ffs)
	op := []wal.Op{{RelID: 1, Row: []int64{1}, Mult: 1}}

	// The header write succeeds; the record stays in the bufio buffer and
	// the second file write is its SyncAlways flush, so the failure
	// surfaces as a flush wedge.
	ffs.Inject(faultfs.Write, 2)
	err := l.Append(1, op)
	var we *wal.LogWedgedError
	if !errors.As(err, &we) {
		t.Fatalf("append = %v, want LogWedgedError", err)
	}
	firstOp := we.Op
	if firstOp != "flush" {
		t.Fatalf("wedge op = %q, want \"flush\"", firstOp)
	}
	if err2 := l.Append(2, op); !errors.As(err2, &we) || we.Op != firstOp {
		t.Fatalf("later append rewrote the wedge evidence: %v", err2)
	}
	l.Close()
}

// maskFS fails every file write with errWrite and every Remove with
// errRemove, to prove the checkpoint writer's best-effort temp cleanup
// cannot mask the original failure.
type maskFS struct {
	wal.VFS
}

var (
	errWrite  = errors.New("maskfs: write failed")
	errRemove = errors.New("maskfs: remove failed")
)

// CreateTrunc returns a file whose writes fail.
func (m maskFS) CreateTrunc(path string) (wal.File, error) {
	f, err := m.VFS.CreateTrunc(path)
	if err != nil {
		return nil, err
	}
	return maskFile{f}, nil
}

// Remove always fails.
func (maskFS) Remove(path string) error { return errRemove }

// maskFile fails every Write.
type maskFile struct {
	wal.File
}

// Write always fails.
func (maskFile) Write(p []byte) (int, error) { return 0, errWrite }

// TestCheckpointTempRemoveCannotMaskError drives Log.Checkpoint into a
// write failure on a VFS whose Remove also fails: the returned error must
// be the write failure, never the cleanup failure, and no checkpoint may
// become visible.
func TestCheckpointTempRemoveCannotMaskError(t *testing.T) {
	dir := t.TempDir()
	l, err := wal.Create(wal.Options{Dir: dir, Sync: wal.SyncAlways, FS: maskFS{wal.OSFS}})
	if err != nil {
		t.Fatal(err)
	}
	rels := []wal.CheckpointRel{{
		Name: "R", Arity: 1,
		Rows: func(yield func([]int64, int64)) { yield([]int64{1}, 1) },
		Size: 1,
	}}
	err = l.Checkpoint(7, "Q", rels)
	if !errors.Is(err, errWrite) {
		t.Fatalf("Checkpoint = %v, want the original write error %v", err, errWrite)
	}
	if errors.Is(err, errRemove) {
		t.Fatalf("cleanup error masked the write error: %v", err)
	}
	_, ckpts, _, scanErr := wal.ScanDirFS(wal.OSFS, dir)
	if scanErr != nil {
		t.Fatalf("ScanDirFS: %v", scanErr)
	}
	if len(ckpts) != 0 {
		t.Fatalf("failed checkpoint became visible: %v", ckpts)
	}
}

// TestStaleTempSweep checks that ScanDirFS and BeginRecovery only read —
// the .tmp files a crash left survive them — and that Create and
// Recovery.Continue, where a process takes the directory for appending,
// delete those files, leave unrelated names alone, and stay silent when
// the removal itself fails (a stale temporary is inert).
func TestStaleTempSweep(t *testing.T) {
	// plant writes two stale temporaries and an unrelated file into dir.
	plant := func(t *testing.T, dir string) (stale []string, unrelated string) {
		t.Helper()
		stale = []string{filepath.Join(dir, "ckpt-00000000000000000007.ckpt.tmp"), filepath.Join(dir, "stray.tmp")}
		unrelated = filepath.Join(dir, "README")
		for _, p := range append(stale, unrelated) {
			if err := os.WriteFile(p, []byte("junk"), 0o666); err != nil {
				t.Fatal(err)
			}
		}
		return stale, unrelated
	}
	// present reports which of paths exist.
	present := func(paths ...string) (n int) {
		for _, p := range paths {
			if _, err := os.Stat(p); err == nil {
				n++
			}
		}
		return n
	}

	t.Run("create", func(t *testing.T) {
		dir := t.TempDir()
		stale, unrelated := plant(t, dir)
		segs, ckpts, tmps, err := wal.ScanDirFS(wal.OSFS, dir)
		if err != nil || len(segs) != 0 || len(ckpts) != 0 || len(tmps) != len(stale) {
			t.Fatalf("ScanDirFS = %v, %v, %v, %v; want only the stale temporaries", segs, ckpts, tmps, err)
		}
		if n := present(stale...); n != len(stale) {
			t.Fatalf("ScanDirFS removed %d stale temporaries, want none", len(stale)-n)
		}
		l, err := wal.Create(wal.Options{Dir: dir})
		if err != nil {
			t.Fatalf("Create: %v", err)
		}
		l.Close()
		if n := present(stale...); n != 0 {
			t.Fatalf("%d stale temporaries survived Create", n)
		}
		if present(unrelated) != 1 {
			t.Fatal("Create removed an unrelated file")
		}
		// A failed removal is swallowed, not surfaced.
		plant(t, dir)
		if _, err := wal.Create(wal.Options{Dir: dir, FS: maskFS{wal.OSFS}}); err != nil {
			t.Fatalf("Create with failing Remove = %v, want nil", err)
		}
	})

	t.Run("continue", func(t *testing.T) {
		dir := t.TempDir()
		l, err := wal.Create(wal.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Checkpoint(1, "Q", nil); err != nil {
			t.Fatal(err)
		}
		l.Close()
		stale, unrelated := plant(t, dir)
		rec, err := wal.BeginRecovery(wal.Options{Dir: dir})
		if err != nil {
			t.Fatalf("BeginRecovery: %v", err)
		}
		if err := rec.Replay(true, func(wal.Record) error { return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if n := present(stale...); n != len(stale) {
			t.Fatalf("recovery removed %d stale temporaries before Continue", len(stale)-n)
		}
		if _, err := rec.Continue(); err != nil {
			t.Fatalf("Continue: %v", err)
		}
		if n := present(stale...); n != 0 {
			t.Fatalf("%d stale temporaries survived Continue", n)
		}
		if present(unrelated) != 1 {
			t.Fatal("Continue removed an unrelated file")
		}
		plant(t, dir)
		rec, err = wal.BeginRecovery(wal.Options{Dir: dir, FS: maskFS{wal.OSFS}})
		if err != nil {
			t.Fatal(err)
		}
		if err := rec.Replay(true, func(wal.Record) error { return nil }); err != nil {
			t.Fatal(err)
		}
		if _, err := rec.Continue(); err != nil {
			t.Fatalf("Continue with failing Remove = %v, want nil", err)
		}
	})
}
