package ivmeps_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ivmeps"
	"ivmeps/internal/wal"
)

// The durability tests drive the public surface end to end through the
// scenario driver (scenario_test.go): New with a log directory, commits
// through every mutation entry point, Checkpoint, Close, and Open-based
// recovery — including the crash-shaped failures (kills at arbitrary byte
// offsets, torn tails, bit flips) the write-ahead log exists to survive —
// each recovered state held to internal/naive at its epoch. They import
// internal/wal only to inspect log directories, never to drive recovery.

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

// TestDurableRoundTrip commits through every mutation entry point — a
// batch whose ops cancel to a net no-op included, which still publishes an
// epoch the log must reproduce — recovers, keeps committing into the same
// directory, and recovers again.
func TestDurableRoundTrip(t *testing.T) {
	sc := newScenario(t, target{query: twoPath, eps: 0.5, seg: 1 << 20}, 0)
	sc.run(
		step{Do: "load", Ops: []op{{"R", []int64{1, 10}, 1}, {"R", []int64{2, 10}, 1}, {"S", []int64{10, 7}, 1}}},
		step{Do: "build"},
		step{Do: "apply", Ops: []op{{"R", []int64{3, 10}, 1}}},
		step{Do: "apply", Ops: []op{{"R", []int64{1, 10}, -1}}},
		step{Do: "applybatch", Ops: []op{{"S", []int64{10, 8}, 2}, {"S", []int64{11, 9}, 1}}},
		step{Do: "batch", Ops: []op{{"R", []int64{4, 11}, 1}, {"S", []int64{10, 7}, 3}}},
		step{Do: "batch", Ops: []op{{"R", []int64{5, 12}, 1}, {"R", []int64{5, 12}, -1}}},
		step{Do: "reopen"},
		step{Do: "apply", Ops: []op{{"S", []int64{12, 13}, 1}}},
		step{Do: "reopen"},
	)
	sc.end()
}

// TestOpenRestoresCheckpointedMultiplicities: a checkpoint row carries its
// multiplicity, and Open loads it with that multiplicity — a weighted load,
// repeated loads of one row, and a later insert of the same row all come
// back summed, from the Build checkpoint and from an explicit one.
func TestOpenRestoresCheckpointedMultiplicities(t *testing.T) {
	sc := newScenario(t, target{query: twoPath, eps: 0.5, seg: 1 << 20}, 0)
	insert := step{Do: "apply", Ops: []op{{"R", []int64{1, 10}, 1}}}
	sc.run(
		step{Do: "load", Ops: []op{{"R", []int64{1, 10}, 3}, {"S", []int64{10, 7}, 1}, {"S", []int64{10, 7}, 1}}},
		step{Do: "build"},
		insert,
		step{Do: "reopen"},
		insert,
		step{Do: "checkpoint"},
		step{Do: "reopen"},
	)
	sc.end()
}

// TestCrashRecoveryRandomCut is the durability headline: kill the process at
// an arbitrary byte offset of the log — mid-record, mid-header, on a segment
// boundary — and Open must recover exactly the committed prefix the surviving
// bytes describe, epoch-exact and equal to naive's result there; the
// recovered log then takes new commits and new cuts. Each seed draws its own
// history and its own cut points.
func TestCrashRecoveryRandomCut(t *testing.T) {
	for _, seed := range []int64{1, 2, 8} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			sc := newScenario(t, target{query: twoPath, eps: 0.5, seg: 512}, seed)
			g := gen{mix: map[string]int{"batch": 5, "checkpoint": 1, "cut": 3}, load: 2, ops: 4, domain: 8}
			sc.load(g)
			sc.gen(g, 90)
			sc.end()
			if sc.count["cut"] < 20 {
				t.Fatalf("only %d cuts", sc.count["cut"])
			}
		})
	}
}

// TestConcurrentCheckpoints runs Checkpoint on two goroutines beside
// single-row commits, 20 rounds: the calls of a round meet on one epoch or
// on two, and neither may truncate or delete the other's temporary. Every
// call succeeds, every checkpoint left in the directory loads, and Open
// recovers the last committed epoch. Run under -race, it is also the race
// check of checkpoints against appends.
func TestConcurrentCheckpoints(t *testing.T) {
	const goroutines, rounds = 2, 20
	d := ivmeps.Durability{Dir: filepath.Join(t.TempDir(), "log"), Sync: ivmeps.SyncAlways}
	e := durableLoad(t, twoPath, d, twoPathRows(2000))
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	for i := range rounds {
		errs := make(chan error, goroutines)
		for range goroutines {
			go func() { errs <- e.Checkpoint() }()
		}
		if err := e.Insert("R", []int64{int64(1000000 + i), 1}); err != nil {
			t.Fatal(err)
		}
		for range goroutines {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: Checkpoint: %v", i, err)
			}
		}
	}
	epoch, count := e.Epoch(), e.Count()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_, ckpts, _, err := wal.ScanDirFS(wal.OSFS, d.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range ckpts {
		if _, err := wal.LoadCheckpointFS(wal.OSFS, c.Path); err != nil {
			t.Fatalf("checkpoint %s does not load: %v", c.Path, err)
		}
	}
	r, err := ivmeps.Open(ivmeps.MustParseQuery(twoPath), ivmeps.Options{Epsilon: 0.5, Durability: d})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer r.Close()
	if r.Epoch() != epoch || r.Count() != count {
		t.Fatalf("recovered epoch %d with %d rows, want epoch %d with %d", r.Epoch(), r.Count(), epoch, count)
	}
}

// TestCheckpointBoundsReplay proves recovery cost is proportional to the
// post-checkpoint tail: after Checkpoint, only the commits made since are
// replayed.
func TestCheckpointBoundsReplay(t *testing.T) {
	sc := newScenario(t, target{query: twoPath, seg: 1 << 20}, 0)
	sc.run(step{Do: "load", Ops: []op{{"R", []int64{1, 1}, 1}, {"S", []int64{1, 2}, 1}}}, step{Do: "build"})
	for i := int64(0); i < 10; i++ {
		sc.run(step{Do: "apply", Ops: []op{{"R", []int64{i, 1}, 1}}})
	}
	sc.run(step{Do: "checkpoint"})
	const tail = 5
	for i := int64(0); i < tail; i++ {
		sc.run(step{Do: "apply", Ops: []op{{"S", []int64{1, 10 + i}, 1}}})
	}
	if err := sc.eng.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := wal.BeginRecovery(wal.Options{Dir: sc.dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint.Epoch != sc.epoch-tail {
		t.Fatalf("newest checkpoint at epoch %d, want %d", rec.Checkpoint.Epoch, sc.epoch-tail)
	}
	replays := 0
	if err := rec.Replay(false, func(wal.Record) error { replays++; return nil }); err != nil {
		t.Fatal(err)
	}
	if replays != tail {
		t.Fatalf("recovery replays %d records, want only the %d-record tail", replays, tail)
	}
	sc.run(step{Do: "reopen"})
	sc.end()
}

// TestBitFlipRecovery flips single bits across the log: a flip in the
// physical tail may be truncated away (it is indistinguishable from a torn
// write), anything else must surface as CorruptLogError — never as a
// successfully opened engine whose state is not naive's at its epoch.
func TestBitFlipRecovery(t *testing.T) {
	sc := newScenario(t, target{query: twoPath, eps: 0.5, seg: 512}, 7)
	g := gen{mix: map[string]int{"batch": 1}, load: 2, ops: 4, domain: 8}
	sc.load(g)
	sc.gen(g, 6)
	sc.run(step{Do: "checkpoint"})
	sc.gen(g, 6)
	sc.end()
	paths, _ := sc.segments()
	for si, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 24; trial++ {
			pos := sc.rng.Intn(len(data))
			work := copyDir(t, sc.dir)
			mut := append([]byte(nil), data...)
			mut[pos] ^= 1 << uint(sc.rng.Intn(8))
			if err := os.WriteFile(filepath.Join(work, filepath.Base(path)), mut, 0o666); err != nil {
				t.Fatal(err)
			}
			r, err := ivmeps.Open(sc.q, ivmeps.Options{Epsilon: 0.5, Durability: ivmeps.Durability{Dir: work, Sync: ivmeps.SyncAlways, SegmentBytes: 512}})
			if err != nil {
				var cle *ivmeps.CorruptLogError
				if !errors.As(err, &cle) {
					t.Fatalf("seg %d pos %d: Open failed without CorruptLogError: %v", si, pos, err)
				}
				continue
			}
			s, err := r.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := bag(s.All())
			if rec, ok := sc.hist[s.Epoch()]; err == nil && ok {
				err = diff(got, rec.result)
			} else if err == nil {
				err = fmt.Errorf("epoch %d was never committed", s.Epoch())
			}
			s.Close()
			r.Close()
			if err != nil {
				t.Fatalf("seg %d pos %d: the flip recovered a state never committed: %v", si, pos, err)
			}
		}
	}
}

func TestDurabilityAPIMisuse(t *testing.T) {
	q := ivmeps.MustParseQuery(twoPath)
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
	// Checkpoint after Close blames the closed log, not the configuration.
	if err := d.Checkpoint(); err == nil || !strings.Contains(err.Error(), "log is closed") {
		t.Fatalf("Checkpoint after Close = %v, want the closed-log error", err)
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
