package wal

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// FuzzWALDecode drives DecodeRecord with arbitrary bytes: it must never
// panic, never allocate beyond what the input length can describe, and
// classify every input as exactly one of {no record, valid record, torn
// frame, corrupt frame}. A decoded record must re-encode and decode back to
// itself (decode ∘ encode = id on the decoded value; byte-identity is not
// required because varints accept non-minimal encodings).
func FuzzWALDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(appendRecord(nil, 2, []Op{{RelID: 1, Mult: 1, Row: []int64{1, 10}}}))
	f.Add(appendRecord(nil, 7, []Op{
		{RelID: 1, Mult: -3, Row: []int64{-5}},
		{RelID: 300, Mult: 1 << 40, Row: []int64{1, -1, 1 << 60}},
	}))
	f.Add(appendRecord(nil, 9, nil))
	f.Add(appendRecord(nil, 3, []Op{{RelID: 2, Mult: 1, Row: []int64{42}}})[:11])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := DecodeRecord(data)
		switch {
		case err == nil && n == 0:
			if len(data) != 0 {
				t.Fatalf("no-record result on %d bytes of input", len(data))
			}
		case err == nil:
			if n < recordHeaderSize || n > len(data) {
				t.Fatalf("consumed %d of %d bytes", n, len(data))
			}
			reenc := appendRecord(nil, rec.Epoch, rec.Ops)
			rec2, n2, err2 := DecodeRecord(reenc)
			if err2 != nil || n2 != len(reenc) {
				t.Fatalf("re-encode failed to decode: %v", err2)
			}
			if rec2.Epoch != rec.Epoch || !opsEqual(rec2.Ops, rec.Ops) {
				t.Fatalf("round trip mismatch: %+v != %+v", rec2, rec)
			}
		default:
			var ce *CorruptLogError
			if !errors.As(err, &ce) {
				// The only other allowed failure is a torn (incomplete) frame.
				var short *errShortRecord
				if !errors.As(err, &short) {
					t.Fatalf("unclassified decode error: %v", err)
				}
			}
		}
	})
}

// opsEqual compares op slices treating nil and empty rows as equal (the
// decoder leaves a zero-length row nil).
func opsEqual(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].RelID != b[i].RelID || a[i].Mult != b[i].Mult {
			return false
		}
		if len(a[i].Row) != len(b[i].Row) {
			return false
		}
		if len(a[i].Row) > 0 && !reflect.DeepEqual(a[i].Row, b[i].Row) {
			return false
		}
	}
	return true
}

// FuzzCheckpointDecode drives decodeCheckpoint with arbitrary payloads: it
// must never panic, allocate no more than a constant times the payload's
// length — a row or relation count is checked against the bytes left before
// anything is sized by it — and fail only with a CorruptLogError. A decoded
// checkpoint must re-encode and decode back to itself.
func FuzzCheckpointDecode(f *testing.F) {
	payload := func(epoch uint64, query string, rels ...CheckpointData) []byte {
		buf, err := encodeCheckpoint(epoch, query, checkpointRels(rels))
		if err != nil {
			f.Fatal(err)
		}
		return buf[checkpointHeaderSize:]
	}
	f.Add([]byte{})
	f.Add(payload(1, "Q(A, B) = R(A, B)", CheckpointData{Name: "R", Arity: 2, Vals: []int64{1, 10, 2, 20}, Mults: []int64{2, 1}}))
	f.Add(payload(9, "Q() = R(), S(A)",
		CheckpointData{Name: "R", Mults: []int64{3}},
		CheckpointData{Name: "S", Arity: 1, Vals: []int64{-1 << 62, 5}, Mults: []int64{1, 1 << 40}}))
	f.Add(payload(2, "Q", CheckpointData{Name: "R", Arity: 1}))
	// A row count of 2^62 with no rows behind it.
	f.Add([]byte{1, 1, 'Q', 1, 1, 'R', 2, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x40})
	f.Fuzz(func(t *testing.T, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := decodeCheckpoint(p)
		runtime.ReadMemStats(&after)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(p)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes allocated %d bytes, want at most %d", len(p), got, limit)
		}
		if err != nil {
			var ce *CorruptLogError
			if !errors.As(err, &ce) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		for _, r := range ck.Rels {
			if len(r.Vals) != r.Arity*len(r.Mults) {
				t.Fatalf("relation %q: %d values for %d rows of arity %d", r.Name, len(r.Vals), len(r.Mults), r.Arity)
			}
		}
		buf, err := encodeCheckpoint(ck.Epoch, ck.Query, checkpointRels(ck.Rels))
		if err != nil {
			t.Fatalf("re-encoding a decoded checkpoint: %v", err)
		}
		ck2, err := decodeCheckpoint(buf[checkpointHeaderSize:])
		if err != nil {
			t.Fatalf("re-encoded checkpoint failed to decode: %v", err)
		}
		if !reflect.DeepEqual(ck2, ck) {
			t.Fatalf("round trip mismatch: %+v != %+v", ck2, ck)
		}
	})
}

// checkpointRels is the writer's view of loaded relations: what a checkpoint
// of them writes.
func checkpointRels(rels []CheckpointData) []CheckpointRel {
	out := make([]CheckpointRel, len(rels))
	for i := range rels {
		d := &rels[i]
		out[i] = CheckpointRel{Name: d.Name, Arity: d.Arity, Rows: func(yield func(row []int64, mult int64)) {
			for j, m := range d.Mults {
				yield(d.Vals[j*d.Arity:(j+1)*d.Arity], m)
			}
		}, Size: len(d.Mults)}
	}
	return out
}
