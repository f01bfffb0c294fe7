package main

import (
	"os"
	"path/filepath"
	"testing"

	"ivmeps/internal/wal"
)

// buildLogDir writes a small valid log directory: a checkpoint at epoch 1
// and a segment tail with epochs 2 and 3.
func buildLogDir(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "log")
	l, err := wal.Create(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	rels := []wal.CheckpointRel{{
		Name: "R", Arity: 2,
		Rows: func(yield func([]int64, int64)) { yield([]int64{1, 2}, 1) },
		Size: 1,
	}}
	if err := l.Checkpoint(1, "Q(A, C) = R(A, B), S(B, C)", rels); err != nil {
		t.Fatal(err)
	}
	ops := []wal.Op{{RelID: 1, Row: []int64{1, 2}, Mult: 1}}
	for epoch := uint64(2); epoch <= 3; epoch++ {
		if err := l.Append(epoch, ops); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// lastSegment returns the path of the directory's last segment.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, _, _, err := wal.ScanDirFS(wal.OSFS, dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("ScanDirFS: %v (%d segments)", err, len(segs))
	}
	return segs[len(segs)-1].Path
}

// TestVerifyExitCodes drives verify over the three outcomes it
// distinguishes: 0 for a clean log, 1 for a torn tail a crash left (Open
// truncates it), 2 for corruption recovery would refuse.
func TestVerifyExitCodes(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		if code := verify(buildLogDir(t)); code != 0 {
			t.Fatalf("verify(clean) = %d, want 0", code)
		}
	})

	t.Run("torn tail", func(t *testing.T) {
		dir := buildLogDir(t)
		seg := lastSegment(t, dir)
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Cut into the final record: a torn write, recoverable by truncation.
		if err := os.Truncate(seg, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
		if code := verify(dir); code != 1 {
			t.Fatalf("verify(torn tail) = %d, want 1", code)
		}
	})

	t.Run("torn rotation", func(t *testing.T) {
		dir := buildLogDir(t)
		// A crash between segment create and header write leaves a final
		// segment shorter than its header; Open removes it.
		if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000099.seg"), []byte("IVM"), 0o666); err != nil {
			t.Fatal(err)
		}
		if code := verify(dir); code != 1 {
			t.Fatalf("verify(torn rotation) = %d, want 1", code)
		}
	})

	t.Run("corrupt", func(t *testing.T) {
		dir := buildLogDir(t)
		seg := lastSegment(t, dir)
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a byte in the FIRST record while intact records follow: not a
		// torn tail, so recovery must refuse the log.
		data[20] ^= 0xff
		if err := os.WriteFile(seg, data, 0o666); err != nil {
			t.Fatal(err)
		}
		if code := verify(dir); code != 2 {
			t.Fatalf("verify(corrupt) = %d, want 2", code)
		}
	})

	t.Run("unreadable", func(t *testing.T) {
		if code := verify(filepath.Join(t.TempDir(), "nothing-here")); code != 2 {
			t.Fatal("verify(no log) != 2")
		}
	})
}

// TestReadOnlyCommandsKeepStaleTemp checks that inspect and verify change
// nothing: a checkpoint temporary a crash left stays where it is.
func TestReadOnlyCommandsKeepStaleTemp(t *testing.T) {
	dir := buildLogDir(t)
	stale := filepath.Join(dir, "ckpt-00000000000000000003.ckpt.tmp")
	if err := os.WriteFile(stale, []byte("junk"), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := inspect(dir); err != nil {
		t.Fatalf("inspect: %v", err)
	}
	if code := verify(dir); code != 0 {
		t.Fatalf("verify = %d, want 0", code)
	}
	if _, err := os.Stat(stale); err != nil {
		t.Fatalf("inspect or verify removed the stale temporary: %v", err)
	}
}
