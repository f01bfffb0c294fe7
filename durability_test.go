package ivmeps_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivmeps"
	"ivmeps/internal/wal"
)

// The durability tests drive the public surface end to end: New with a log
// directory, commits through every mutation entry point, Checkpoint, Close,
// and Open-based recovery — including the crash-shaped failures (kills at
// arbitrary byte offsets, torn tails, bit flips) the write-ahead log exists
// to survive. They import internal/wal only to *inspect* log directories
// (compute the epoch a cut should recover to, count replayable records),
// never to drive recovery.

const durQuery = "Q(A, C) = R(A, B), S(B, C)"

func durParse(t testing.TB) *ivmeps.Query {
	t.Helper()
	q, err := ivmeps.ParseQuery(durQuery)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// durState captures the committed state of e as (canonical result map,
// snapshot epoch).
func durState(t testing.TB, e *ivmeps.Engine) (map[string]int64, uint64) {
	t.Helper()
	s, err := e.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	defer s.Close()
	return publicResultMap(s.Enumerate), s.Epoch()
}

func sameState(a, b map[string]int64) bool {
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

// copyDir clones the log directory so a simulated crash can mutilate the
// copy while the original stays reusable.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "log")
	if err := os.MkdirAll(dst, 0o777); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// shadowDB mirrors the base relations so the test can generate valid
// deletes, and remembers every committed state by epoch.
type shadowDB struct {
	rows  map[string][][]int64 // live rows per relation (mult folded in by repetition)
	state map[uint64]map[string]int64
}

func TestDurableRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	q := durParse(t)
	opts := ivmeps.Options{Epsilon: 0.5, Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways}}
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load("R", []int64{1, 10}, []int64{2, 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("S", []int64{10, 7}); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	// Exercise every mutation entry point: single-tuple, one-relation batch,
	// multi-relation batch, and a batch whose ops cancel to a net no-op
	// (which still publishes an epoch the log must reproduce).
	if err := e.Insert("R", []int64{3, 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("R", []int64{1, 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.ApplyBatch("S", [][]int64{{10, 8}, {11, 9}}, []int64{2, 1}); err != nil {
		t.Fatal(err)
	}
	b := e.NewBatch()
	b.Insert("R", []int64{4, 11})
	b.Apply("S", []int64{10, 7}, 3)
	if err := e.Commit(b); err != nil {
		t.Fatal(err)
	}
	b = e.NewBatch()
	b.Insert("R", []int64{5, 12})
	b.Delete("R", []int64{5, 12})
	if err := e.Commit(b); err != nil {
		t.Fatal(err)
	}
	want, wantEpoch := durState(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := ivmeps.Open(q, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got, gotEpoch := durState(t, r)
	if gotEpoch != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", gotEpoch, wantEpoch)
	}
	if !sameState(got, want) {
		t.Fatalf("recovered state %v, want %v", got, want)
	}
	if r.Count() == 0 || r.N() == 0 {
		t.Fatalf("recovered engine empty: count=%d N=%d", r.Count(), r.N())
	}
	// The recovered engine keeps committing durably into the same directory.
	if err := r.Insert("S", []int64{12, 13}); err != nil {
		t.Fatal(err)
	}
	want2, wantEpoch2 := durState(t, r)
	if wantEpoch2 != wantEpoch+1 {
		t.Fatalf("post-recovery commit bumped epoch to %d, want %d", wantEpoch2, wantEpoch+1)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := ivmeps.Open(q, opts)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	defer r2.Close()
	got2, gotEpoch2 := durState(t, r2)
	if gotEpoch2 != wantEpoch2 || !sameState(got2, want2) {
		t.Fatalf("second recovery: epoch %d state %v, want epoch %d state %v", gotEpoch2, got2, wantEpoch2, want2)
	}
}

// TestOpenRestoresCheckpointedMultiplicities: a checkpoint row carries its
// multiplicity, and Open loads it with that multiplicity — a weighted load,
// repeated loads of one row, and a later insert of the same row all come
// back summed, from the Build checkpoint and from an explicit one.
func TestOpenRestoresCheckpointedMultiplicities(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	q := durParse(t)
	opts := ivmeps.Options{Epsilon: 0.5, Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways}}
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadWeighted("R", []int64{1, 10}, 3); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("S", []int64{10, 7}, []int64{10, 7}); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	for i, checkpoint := range []bool{false, true} {
		if err := e.Insert("R", []int64{1, 10}); err != nil {
			t.Fatal(err)
		}
		if checkpoint {
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		want, wantEpoch := durState(t, e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if e, err = ivmeps.Open(q, opts); err != nil {
			t.Fatalf("Open: %v", err)
		}
		got, gotEpoch := durState(t, e)
		if gotEpoch != wantEpoch || !sameState(got, want) {
			t.Fatalf("checkpointed=%v: recovered epoch %d state %v, want epoch %d state %v", checkpoint, gotEpoch, got, wantEpoch, want)
		}
		if m, want := got["[1 7]"], int64(3+1+i)*2; m != want { // R(1,10) × S(10,7)
			t.Fatalf("checkpointed=%v: Q(1,7) = %d, want %d", checkpoint, m, want)
		}
	}
	e.Close()
}

// buildDurableHistory creates a durable engine, commits n randomized batches
// (recording the committed state at every epoch), checkpoints once midway,
// closes the engine, and returns the log directory plus the shadow record.
func buildDurableHistory(t *testing.T, dir string, n int, rng *rand.Rand) *shadowDB {
	t.Helper()
	q := durParse(t)
	opts := ivmeps.Options{
		Epsilon:    0.5,
		Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways, SegmentBytes: 512},
	}
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shadowDB{rows: map[string][][]int64{}, state: map[uint64]map[string]int64{}}
	seed := func(rel string, rows ...[]int64) {
		t.Helper()
		for _, row := range rows {
			if err := e.Load(rel, row); err != nil {
				t.Fatal(err)
			}
			sh.rows[rel] = append(sh.rows[rel], row)
		}
	}
	seed("R", []int64{1, 1}, []int64{2, 1})
	seed("S", []int64{1, 3})
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	record := func() {
		t.Helper()
		st, epoch := durState(t, e)
		sh.state[epoch] = st
	}
	record()
	for i := 0; i < n; i++ {
		b := e.NewBatch()
		nops := 1 + rng.Intn(4)
		for j := 0; j < nops; j++ {
			rel := "R"
			if rng.Intn(2) == 1 {
				rel = "S"
			}
			if live := sh.rows[rel]; len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				b.Delete(rel, live[k])
				sh.rows[rel] = append(live[:k], live[k+1:]...)
			} else {
				row := []int64{rng.Int63n(8), rng.Int63n(8)}
				b.Insert(rel, row)
				sh.rows[rel] = append(sh.rows[rel], row)
			}
		}
		if err := e.Commit(b); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
		record()
		if i == n/2 {
			if err := e.Checkpoint(); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return sh
}

// cutPoint describes one simulated kill: every byte of the log written at or
// after the global offset never reached disk.
type cutPoint struct {
	segIdx int   // index into the seq-ordered segment list
	offset int64 // byte length the segment is cut to
}

// applyCut truncates the chosen segment and deletes every later one,
// producing exactly the directory a crash at that write position leaves.
func applyCut(t testing.TB, dir string, cut cutPoint) {
	t.Helper()
	segs, _, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[cut.segIdx].Path, cut.offset); err != nil {
		t.Fatal(err)
	}
	for _, s := range segs[cut.segIdx+1:] {
		if err := os.Remove(s.Path); err != nil {
			t.Fatal(err)
		}
	}
}

// expectEpoch computes the epoch recovery must land on for a cut directory:
// the last record of the longest intact log prefix, or the newest checkpoint
// epoch when that is higher (a checkpoint is only ever written after its
// epoch is in the synced log, so it can outlive a cut tail).
func expectEpoch(t testing.TB, dir string) uint64 {
	t.Helper()
	segs, ckpts, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var epoch uint64
	for _, c := range ckpts {
		if ck, err := wal.LoadCheckpoint(c.Path); err == nil && ck.Epoch > epoch {
			epoch = ck.Epoch
		}
	}
	for _, s := range segs {
		sd, err := wal.ReadSegment(s.Path)
		if err != nil {
			break // torn header: nothing in this segment counts
		}
		if n := len(sd.Records); n > 0 {
			if last := sd.Records[n-1].Epoch; last > epoch {
				epoch = last
			}
		}
		if sd.Tail != nil {
			break
		}
	}
	return epoch
}

// TestCrashRecoveryRandomCut is the durability headline: kill the process at
// an arbitrary byte offset of the log — mid-record, mid-header, on a segment
// boundary — and Open must recover exactly the committed prefix the surviving
// bytes describe, epoch-exact. Each seed draws its own commit history and
// its own cut points.
func TestCrashRecoveryRandomCut(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			testCrashRecoveryRandomCut(t, seed)
		})
	}
}

func testCrashRecoveryRandomCut(t *testing.T, seed int64) {
	dir := filepath.Join(t.TempDir(), "log")
	rng := rand.New(rand.NewSource(seed))
	sh := buildDurableHistory(t, dir, 24, rng)

	segs, _, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cuts []cutPoint
	sizes := make([]int64, len(segs))
	var total int64
	for i, s := range segs {
		fi, err := os.Stat(s.Path)
		if err != nil {
			t.Fatal(err)
		}
		sizes[i] = fi.Size()
		total += fi.Size()
		// Boundary cuts: empty file, bare header, full file.
		cuts = append(cuts, cutPoint{i, 0}, cutPoint{i, min(16, fi.Size())}, cutPoint{i, fi.Size()})
	}
	for len(cuts) < len(segs)*3+24 {
		g := rng.Int63n(total + 1)
		for i := range sizes {
			if g <= sizes[i] {
				cuts = append(cuts, cutPoint{i, g})
				break
			}
			g -= sizes[i]
		}
	}

	q := durParse(t)
	for ci, cut := range cuts {
		work := copyDir(t, dir)
		applyCut(t, work, cut)
		want := expectEpoch(t, work)
		opts := ivmeps.Options{
			Epsilon:    0.5,
			Durability: ivmeps.Durability{Dir: work, Sync: ivmeps.SyncAlways, SegmentBytes: 512},
		}
		r, err := ivmeps.Open(q, opts)
		if err != nil {
			t.Fatalf("cut %d (%+v): Open: %v", ci, cut, err)
		}
		got, epoch := durState(t, r)
		if epoch != want {
			t.Fatalf("cut %d (%+v): recovered epoch %d, want %d", ci, cut, epoch, want)
		}
		wantState, ok := sh.state[epoch]
		if !ok {
			t.Fatalf("cut %d (%+v): recovered epoch %d was never committed", ci, cut, epoch)
		}
		if !sameState(got, wantState) {
			t.Fatalf("cut %d (%+v): recovered state %v, want %v at epoch %d", ci, cut, got, wantState, epoch)
		}
		// Periodically prove the recovered log accepts and survives new
		// commits: commit, close, and recover once more.
		if ci%8 == 0 {
			if err := r.Insert("R", []int64{7, 7}); err != nil {
				t.Fatal(err)
			}
			want2, wantEpoch2 := durState(t, r)
			if wantEpoch2 != epoch+1 {
				t.Fatalf("cut %d: post-recovery epoch %d, want %d", ci, wantEpoch2, epoch+1)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			r2, err := ivmeps.Open(q, opts)
			if err != nil {
				t.Fatalf("cut %d: re-Open: %v", ci, err)
			}
			got2, epoch2 := durState(t, r2)
			if epoch2 != wantEpoch2 || !sameState(got2, want2) {
				t.Fatalf("cut %d: second recovery diverged", ci)
			}
			r2.Close()
		} else {
			r.Close()
		}
	}
}

// TestCheckpointBoundsReplay proves recovery cost is proportional to the
// post-checkpoint tail: after Checkpoint, only the commits made since are
// replayed.
func TestCheckpointBoundsReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	q := durParse(t)
	opts := ivmeps.Options{Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways}}
	e, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load("R", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("S", []int64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := e.Insert("R", []int64{i, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const tail = 5
	for i := int64(0); i < tail; i++ {
		if err := e.Insert("S", []int64{1, 10 + i}); err != nil {
			t.Fatal(err)
		}
	}
	want, wantEpoch := durState(t, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	rec, err := wal.BeginRecovery(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint.Epoch != wantEpoch-tail {
		t.Fatalf("newest checkpoint at epoch %d, want %d", rec.Checkpoint.Epoch, wantEpoch-tail)
	}
	replays := 0
	if err := rec.Replay(false, func(wal.Record) error { replays++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replays != tail {
		t.Fatalf("recovery replays %d records, want only the %d-record tail", replays, tail)
	}

	r, err := ivmeps.Open(q, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	got, epoch := durState(t, r)
	if epoch != wantEpoch || !sameState(got, want) {
		t.Fatalf("recovered epoch %d state %v, want epoch %d state %v", epoch, got, wantEpoch, want)
	}
}

// TestBitFlipRecovery flips single bytes across the log: a flip in the
// physical tail may be truncated away (it is indistinguishable from a torn
// write), anything else must surface as CorruptLogError — never as a
// successfully opened engine with wrong state.
func TestBitFlipRecovery(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log")
	rng := rand.New(rand.NewSource(7))
	sh := buildDurableHistory(t, dir, 12, rng)
	segs, _, err := wal.ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	q := durParse(t)
	for si, seg := range segs {
		data, err := os.ReadFile(seg.Path)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 24; trial++ {
			pos := rng.Intn(len(data))
			work := copyDir(t, dir)
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << uint(rng.Intn(8))
			if err := os.WriteFile(filepath.Join(work, filepath.Base(seg.Path)), mut, 0o666); err != nil {
				t.Fatal(err)
			}
			r, err := ivmeps.Open(q, ivmeps.Options{Epsilon: 0.5, Durability: ivmeps.Durability{Dir: work, Sync: ivmeps.SyncAlways, SegmentBytes: 512}})
			if err != nil {
				var cle *ivmeps.CorruptLogError
				if !errors.As(err, &cle) {
					t.Fatalf("seg %d pos %d: Open failed without CorruptLogError: %v", si, pos, err)
				}
				continue
			}
			// Open succeeded: the flip must have been truncated away as a torn
			// tail, leaving a genuinely committed prefix.
			got, epoch := durState(t, r)
			r.Close()
			want, ok := sh.state[epoch]
			if !ok || !sameState(got, want) {
				t.Fatalf("seg %d pos %d: flip recovered to a state never committed (epoch %d)", si, pos, epoch)
			}
		}
	}
}

func TestDurabilityAPIMisuse(t *testing.T) {
	q := durParse(t)
	dir := filepath.Join(t.TempDir(), "log")

	// Checkpoint without durability.
	e, err := ivmeps.New(q, ivmeps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load("R", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint(); err == nil || !strings.Contains(err.Error(), "durability") {
		t.Fatalf("Checkpoint without durability = %v", err)
	}
	e.Close()

	// Open without a directory, and on a directory New never initialized.
	if _, err := ivmeps.Open(q, ivmeps.Options{}); err == nil {
		t.Fatal("Open without Durability.Dir succeeded")
	}
	if _, err := ivmeps.Open(q, ivmeps.Options{Durability: ivmeps.Durability{Dir: filepath.Join(t.TempDir(), "empty")}}); err == nil {
		t.Fatal("Open on a never-initialized directory succeeded")
	}

	// Build a real log, then misuse it.
	opts := ivmeps.Options{Durability: ivmeps.Durability{Dir: dir, Sync: ivmeps.SyncAlways}}
	d, err := ivmeps.New(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load("R", []int64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Build(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// New refuses a populated directory.
	if _, err := ivmeps.New(q, opts); err == nil {
		t.Fatal("New accepted a directory already holding a log")
	}
	// Open under a different query refuses the mismatch.
	q2, err := ivmeps.ParseQuery("Q(A, B) = R(A, B)")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ivmeps.Open(q2, opts); err == nil || !strings.Contains(err.Error(), "belongs to query") {
		t.Fatalf("Open under the wrong query = %v", err)
	}
	// NewSharded refuses durability outright.
	if _, err := ivmeps.NewSharded(q, ivmeps.ShardedOptions{Shards: 2, Options: ivmeps.Options{Durability: ivmeps.Durability{Dir: filepath.Join(t.TempDir(), "s")}}}); err == nil {
		t.Fatal("NewSharded accepted Durability")
	}
}
