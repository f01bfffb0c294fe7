package wal

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// testOps builds a small deterministic op stream for epoch e.
func testOps(e uint64) []Op {
	return []Op{
		{RelID: 1, Mult: 1, Row: []int64{int64(e), int64(e) * 10}},
		{RelID: 2, Mult: -1, Row: []int64{-int64(e), 7}},
	}
}

// writeTestCheckpoint seeds dir with a minimal checkpoint at epoch.
func writeTestCheckpoint(t *testing.T, dir string, epoch uint64) {
	t.Helper()
	rels := []CheckpointRel{{
		Name:  "R",
		Arity: 2,
		Rows: func(yield func(row []int64, mult int64)) {
			yield([]int64{1, 10}, 2)
			yield([]int64{2, 20}, 1)
		},
	}}
	if err := WriteCheckpointFS(OSFS, dir, epoch, "Q(A, B) = R(A, B)", rels, false); err != nil {
		t.Fatalf("WriteCheckpointFS: %v", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	for e := uint64(2); e < 10; e++ {
		buf = appendRecord(buf, e, testOps(e))
	}
	// An empty op stream must round-trip too (a batch whose ops all carry
	// zero multiplicity still publishes an epoch).
	buf = appendRecord(buf, 10, nil)
	off := 0
	for e := uint64(2); e <= 10; e++ {
		rec, n, err := DecodeRecord(buf[off:])
		if err != nil {
			t.Fatalf("epoch %d: DecodeRecord: %v", e, err)
		}
		if rec.Epoch != e {
			t.Fatalf("epoch %d: decoded epoch %d", e, rec.Epoch)
		}
		want := testOps(e)
		if e == 10 {
			want = nil
		}
		if !reflect.DeepEqual(rec.Ops, want) {
			t.Fatalf("epoch %d: ops %v != %v", e, rec.Ops, want)
		}
		off += n
	}
	if off != len(buf) {
		t.Fatalf("decoded %d of %d bytes", off, len(buf))
	}
}

func TestDecodeRecordCorruption(t *testing.T) {
	whole := appendRecord(nil, 5, testOps(5))
	// Every strict prefix is a torn write: an incomplete-frame error, never
	// a CorruptError, never success.
	for cut := 1; cut < len(whole); cut++ {
		_, _, err := DecodeRecord(whole[:cut])
		if err == nil {
			t.Fatalf("cut %d: decode succeeded on a strict prefix", cut)
		}
		var ce *CorruptError
		if errors.As(err, &ce) {
			t.Fatalf("cut %d: prefix reported corrupt (%v), want short", cut, err)
		}
	}
	// Any single-bit flip in a complete frame is detected: checksum error
	// for payload bits, checksum/length/encoding error for header bits.
	for i := 0; i < len(whole)*8; i++ {
		mut := append([]byte(nil), whole...)
		mut[i/8] ^= 1 << (i % 8)
		rec, n, err := DecodeRecord(mut)
		if err == nil && n == len(whole) && reflect.DeepEqual(rec.Ops, testOps(5)) && rec.Epoch == 5 {
			t.Fatalf("bit %d: flip went undetected", i)
		}
	}
}

func TestSegmentRotationScanAndReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 128})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	writeTestCheckpoint(t, dir, 1)
	const last = 40
	for e := uint64(2); e <= last; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatalf("Append(%d): %v", e, err)
		}
	}
	if got := l.LastEpoch(); got != last {
		t.Fatalf("LastEpoch = %d, want %d", got, last)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, ckpts, err := ScanDirFS(OSFS, dir)
	if err != nil {
		t.Fatalf("ScanDirFS: %v", err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", len(segs))
	}
	if len(ckpts) != 1 || ckpts[0].Epoch != 1 {
		t.Fatalf("checkpoints = %+v", ckpts)
	}

	rec, err := BeginRecoveryFS(OSFS, dir)
	if err != nil {
		t.Fatalf("BeginRecoveryFS: %v", err)
	}
	next := uint64(2)
	if err := rec.Replay(false, func(r Record) error {
		if r.Epoch != next {
			return fmt.Errorf("replayed epoch %d, want %d", r.Epoch, next)
		}
		if !reflect.DeepEqual(r.Ops, testOps(r.Epoch)) {
			return fmt.Errorf("epoch %d: ops mismatch", r.Epoch)
		}
		next++
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if rec.LastEpoch != last {
		t.Fatalf("LastEpoch = %d, want %d", rec.LastEpoch, last)
	}
}

// segPaths returns the segment paths of dir in sequence order.
func segPaths(t *testing.T, dir string) []string {
	t.Helper()
	segs, _, err := ScanDirFS(OSFS, dir)
	if err != nil {
		t.Fatalf("ScanDirFS: %v", err)
	}
	paths := make([]string, len(segs))
	for i, s := range segs {
		paths[i] = s.Path
	}
	return paths
}

func TestTornTailTruncation(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("Create: %v", err)
	}
	writeTestCheckpoint(t, dir, 1)
	const last = 10
	for e := uint64(2); e <= last; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatalf("Append(%d): %v", e, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	paths := segPaths(t, dir)
	if len(paths) != 1 {
		t.Fatalf("expected one segment, got %d", len(paths))
	}
	full, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}

	// Record boundaries from a clean decode of the full file: ends[k] is the
	// offset just past record k.
	ends := []int{segmentHeaderSize}
	for off := segmentHeaderSize; off < len(full); {
		_, n, err := DecodeRecord(full[off:])
		if err != nil || n == 0 {
			t.Fatalf("offset %d: %v", off, err)
		}
		off += n
		ends = append(ends, off)
	}
	if len(ends) != last {
		t.Fatalf("decoded %d records, want %d", len(ends)-1, last-1)
	}

	// Every truncation point recovers a clean prefix: exactly the records
	// whose frames fit below the cut, with anything partial flagged as a
	// torn tail.
	for cut := segmentHeaderSize; cut <= len(full); cut++ {
		work := filepath.Join(t.TempDir(), "wal-0000000000000001.seg")
		if err := os.WriteFile(work, full[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		sd, err := ReadSegmentFS(OSFS, work)
		if err != nil {
			t.Fatalf("cut %d: ReadSegmentFS: %v", cut, err)
		}
		wantRecs, torn := 0, false
		for k := 1; k < len(ends); k++ {
			if ends[k] <= cut {
				wantRecs = k
			} else {
				torn = cut > ends[k-1]
				break
			}
		}
		if len(sd.Records) != wantRecs {
			t.Fatalf("cut %d: %d records, want %d", cut, len(sd.Records), wantRecs)
		}
		if torn != (sd.Tail != nil) {
			t.Fatalf("cut %d: tail = %v, torn = %v", cut, sd.Tail, torn)
		}
		if sd.Tail != nil && !sd.TailEndsFile {
			t.Fatalf("cut %d: torn tail not flagged as ending the file", cut)
		}
	}
}

func TestReplayTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	writeTestCheckpoint(t, dir, 1)
	for e := uint64(2); e <= 5; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPaths(t, dir)[0]
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear 3 bytes off the final record.
	if err := os.Truncate(path, st.Size()-3); err != nil {
		t.Fatal(err)
	}
	rec, err := BeginRecoveryFS(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	var replayed []uint64
	if err := rec.Replay(true, func(r Record) error {
		replayed = append(replayed, r.Epoch)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !reflect.DeepEqual(replayed, []uint64{2, 3, 4}) {
		t.Fatalf("replayed %v, want [2 3 4]", replayed)
	}
	// fix=true physically truncated the tear: a fresh scan is clean.
	sd, err := ReadSegmentFS(OSFS, path)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Tail != nil || len(sd.Records) != 3 {
		t.Fatalf("after truncation: %d records, tail %v", len(sd.Records), sd.Tail)
	}

	// Continue appends into a NEW segment starting at the next epoch, and a
	// second recovery sees a consecutive log.
	l2, err := rec.Continue(Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(5, testOps(5)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(segPaths(t, dir)); got != 2 {
		t.Fatalf("expected 2 segments after continue, got %d", got)
	}
	rec2, err := BeginRecoveryFS(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec2.Replay(false, func(Record) error { return nil }); err != nil {
		t.Fatalf("second Replay: %v", err)
	}
	if rec2.LastEpoch != 5 {
		t.Fatalf("LastEpoch = %d, want 5", rec2.LastEpoch)
	}
}

func TestReplayRejectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	writeTestCheckpoint(t, dir, 1)
	for e := uint64(2); e <= 6; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	path := segPaths(t, dir)[0]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the middle of the file (second record),
	// leaving intact records after it: this is bit rot, not a torn write.
	recSize := (len(data) - segmentHeaderSize) / 5
	data[segmentHeaderSize+recSize+recordHeaderSize] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	rec, err := BeginRecoveryFS(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	err = rec.Replay(true, func(Record) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Replay = %v, want CorruptError", err)
	}
	// fix=true must NOT have truncated: the damage is not a tear.
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len(data)) {
		t.Fatalf("mid-file corruption changed the file size: %d != %d", st.Size(), len(data))
	}
}

// TestCheckpointBytesPinned pins the file WriteCheckpointFS writes for a
// fixed three-relation checkpoint, byte for byte: values and counts of one
// and of several varint bytes, negative values and multiplicities, and a
// relation with no rows.
func TestCheckpointBytesPinned(t *testing.T) {
	rows := func(rs [][]int64, mults []int64) func(yield func(row []int64, mult int64)) {
		return func(yield func(row []int64, mult int64)) {
			for i, r := range rs {
				yield(r, mults[i])
			}
		}
	}
	rels := []CheckpointRel{
		{Name: "R", Arity: 2, Rows: rows([][]int64{{1, 10}, {-1, 300}, {1 << 40, -(1 << 20)}}, []int64{1, 2, -70})},
		{Name: "Edges", Arity: 3, Rows: rows([][]int64{{0, 63, -64}}, []int64{1 << 33})},
		{Name: "E", Arity: 1, Rows: rows(nil, nil)},
	}
	dir := t.TempDir()
	if err := WriteCheckpointFS(OSFS, dir, 300, "Q(A, B, C) = R(A, B), Edges(A, B, C), E(C)", rels, false); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, checkpointName(300)))
	if err != nil {
		t.Fatal(err)
	}
	const want = "49564d434b50310a" + // magic
		"5800000000000000" + "95c1dd53" + // payload length, crc32c
		"ac022a5128412c20422c204329203d205228412c2042292c20456467657328412c20422c2043292c2045284329030152020302140201d80404808080808040ffff7f8b010545646765730301007e7f808080804001450100"
	if got := hex.EncodeToString(data); got != want {
		t.Fatalf("checkpoint file\n got %s\nwant %s", got, want)
	}
}

// TestVarintLen holds the checkpoint writer's sizing to encoding/binary's
// encoders at every byte-length boundary.
func TestVarintLen(t *testing.T) {
	var b [binary.MaxVarintLen64]byte
	for shift := 0; shift < 64; shift++ {
		for _, u := range []uint64{1<<shift - 1, 1 << shift, 1<<shift + 1} {
			if got, want := uvarintLen(u), binary.PutUvarint(b[:], u); got != want {
				t.Fatalf("uvarintLen(%d) = %d, want %d", u, got, want)
			}
			for _, v := range []int64{int64(u), -int64(u)} {
				if got, want := varintLen(v), binary.PutVarint(b[:], v); got != want {
					t.Fatalf("varintLen(%d) = %d, want %d", v, got, want)
				}
			}
		}
	}
	for _, v := range []int64{math.MinInt64, math.MaxInt64} {
		if got, want := varintLen(v), binary.PutVarint(b[:], v); got != want {
			t.Fatalf("varintLen(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestCheckpointRoundTripAndRetirement(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(Options{Dir: dir, Sync: SyncBatched, SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	writeTestCheckpoint(t, dir, 1)
	ck, err := LoadCheckpointFS(OSFS, filepath.Join(dir, checkpointName(1)))
	if err != nil {
		t.Fatalf("LoadCheckpointFS: %v", err)
	}
	if ck.Epoch != 1 || ck.Query != "Q(A, B) = R(A, B)" || len(ck.Rels) != 1 {
		t.Fatalf("checkpoint = %+v", ck)
	}
	r := ck.Rels[0]
	if r.Name != "R" || r.Arity != 2 || !reflect.DeepEqual(r.Rows, [][]int64{{1, 10}, {2, 20}}) || !reflect.DeepEqual(r.Mults, []int64{2, 1}) {
		t.Fatalf("relation = %+v", r)
	}

	// Fill several segments, checkpoint past them, and verify retirement
	// keeps only what recovery needs.
	for e := uint64(2); e <= 30; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatal(err)
		}
	}
	before := len(segPaths(t, dir))
	writeTestCheckpoint(t, dir, 30)
	if err := l.Checkpointed(30); err != nil {
		t.Fatalf("Checkpointed: %v", err)
	}
	after := len(segPaths(t, dir))
	if after >= before {
		t.Fatalf("retirement kept %d of %d segments", after, before)
	}
	// Appends continue in a fresh segment; recovery from the new checkpoint
	// replays exactly the post-checkpoint tail.
	for e := uint64(31); e <= 35; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := BeginRecoveryFS(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint.Epoch != 30 {
		t.Fatalf("recovered from checkpoint %d, want 30", rec.Checkpoint.Epoch)
	}
	var replayed []uint64
	if err := rec.Replay(false, func(r Record) error {
		replayed = append(replayed, r.Epoch)
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !reflect.DeepEqual(replayed, []uint64{31, 32, 33, 34, 35}) {
		t.Fatalf("replayed %v, want the post-checkpoint tail only", replayed)
	}
}

func TestRecoveryFallsBackToOlderCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	writeTestCheckpoint(t, dir, 1)
	for e := uint64(2); e <= 8; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatal(err)
		}
	}
	// A checkpoint at 8 whose file rots away entirely: recovery must fall
	// back to the epoch-1 checkpoint and replay the full tail, which is
	// still present because nothing was retired.
	writeTestCheckpoint(t, dir, 8)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(dir, checkpointName(8))
	data, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(ckPath, data, 0o666); err != nil {
		t.Fatal(err)
	}
	rec, err := BeginRecoveryFS(OSFS, dir)
	if err != nil {
		t.Fatalf("BeginRecoveryFS: %v", err)
	}
	if rec.Checkpoint.Epoch != 1 {
		t.Fatalf("fell back to checkpoint %d, want 1", rec.Checkpoint.Epoch)
	}
	count := 0
	if err := rec.Replay(false, func(Record) error { count++; return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if count != 7 {
		t.Fatalf("replayed %d records, want 7", count)
	}
}

func TestCreateRefusesExistingLog(t *testing.T) {
	dir := t.TempDir()
	writeTestCheckpoint(t, dir, 1)
	if _, err := Create(Options{Dir: dir}); err == nil {
		t.Fatal("Create accepted a directory holding a checkpoint")
	}
}

func TestReplayDropsTornFinalSegmentHeader(t *testing.T) {
	dir := t.TempDir()
	l, err := Create(Options{Dir: dir, Sync: SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	writeTestCheckpoint(t, dir, 1)
	for e := uint64(2); e <= 5; e++ {
		if err := l.Append(e, testOps(e)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// A crash during rotation leaves the just-created next segment with an
	// incomplete header: every prefix strictly shorter than the header is a
	// torn write that recovery must drop.
	for cut := 0; cut < segmentHeaderSize; cut++ {
		stub := filepath.Join(dir, segmentName(2))
		if err := os.WriteFile(stub, []byte(segmentMagic + "\x00\x00\x00\x00\x00\x00\x00\x00")[:cut], 0o666); err != nil {
			t.Fatal(err)
		}
		rec, err := BeginRecoveryFS(OSFS, dir)
		if err != nil {
			t.Fatalf("cut %d: BeginRecoveryFS: %v", cut, err)
		}
		count := 0
		if err := rec.Replay(true, func(Record) error { count++; return nil }); err != nil {
			t.Fatalf("cut %d: Replay: %v", cut, err)
		}
		if count != 4 || rec.LastEpoch != 5 {
			t.Fatalf("cut %d: replayed %d records to epoch %d, want 4 to 5", cut, count, rec.LastEpoch)
		}
		if _, err := os.Stat(stub); !os.IsNotExist(err) {
			t.Fatalf("cut %d: torn header stub not removed (err %v)", cut, err)
		}
	}
	// A short header on a NON-final segment is not a crash shape: corrupt.
	stub := filepath.Join(dir, segmentName(0))
	if err := os.WriteFile(stub, []byte(segmentMagic[:4]), 0o666); err != nil {
		t.Fatal(err)
	}
	rec, err := BeginRecoveryFS(OSFS, dir)
	if err != nil {
		t.Fatalf("BeginRecoveryFS: %v", err)
	}
	err = rec.Replay(false, func(Record) error { return nil })
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Replay on mid-log short header = %v, want CorruptError", err)
	}
}
