package ivmeps

import (
	"sort"
	"strings"
	"testing"
)

func TestPublicAPIQuickstart(t *testing.T) {
	q, err := ParseQuery("Q(A, C) = R(A, B), S(B, C)")
	if err != nil {
		t.Fatal(err)
	}
	c := q.Classify()
	if !c.Hierarchical || c.StaticWidth != 2 || c.DynamicWidth != 1 || c.FreeConnex {
		t.Fatalf("classify = %+v", c)
	}
	e, err := New(q, Options{Epsilon: 0.5})
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
	if e.Count() != 2 || e.N() != 3 {
		t.Fatalf("count=%d N=%d", e.Count(), e.N())
	}
	if err := e.Insert("R", []int64{3, 10}); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete("R", []int64{1, 10}); err != nil {
		t.Fatal(err)
	}
	rows, mults := collect(e.All())
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
	if len(rows) != 2 || rows[0][0] != 2 || rows[0][1] != 7 || rows[1][0] != 3 {
		t.Fatalf("rows = %v %v", rows, mults)
	}
	if e.Epsilon() != 0.5 {
		t.Fatalf("epsilon = %v", e.Epsilon())
	}
	if s := e.Stats(); s.Updates != 2 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestExplainRacesCommit calls Explain while another goroutine inserts. Under
// -race (`make race`) it fails if Explain reads the engine's sizes, N or M
// without the writer lock.
func TestExplainRacesCommit(t *testing.T) {
	e, err := New(MustParseQuery("Q(A, C) = R(A, B), S(B, C)"), Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 200; i++ {
		if err := e.Load("R", []int64{i % 20, i % 7}); err != nil {
			t.Fatal(err)
		}
		if err := e.Load("S", []int64{i % 7, i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1) // the inserter never blocks, even if the test has already failed
	go func() {
		for i := int64(0); i < 2000; i++ {
			if err := e.Insert("R", []int64{1000 + i, i % 7}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for explained := 0; ; explained++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			if explained == 0 {
				t.Log("the inserts finished before the first Explain")
			}
			return
		default:
			if !strings.Contains(e.Explain(), "view storage:") {
				t.Fatal("Explain of a built engine lists no view storage")
			}
		}
	}
}

func TestPublicAPIErrors(t *testing.T) {
	if _, err := ParseQuery("nope("); err == nil {
		t.Fatal("bad parse accepted")
	}
	if _, err := New(MustParseQuery("Q() = R(A, B), S(B, C), T(A, C)"), Options{}); err == nil {
		t.Fatal("triangle accepted")
	}
	q := MustParseQuery("Q(A) = R(A, B), S(B)")
	e, err := New(q, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load("Z", []int64{1}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := e.LoadWeighted("R", []int64{1, 2}, 0); err == nil {
		t.Fatal("zero multiplicity accepted")
	}
	if err := e.Apply("R", []int64{1, 2}, 1); err == nil {
		t.Fatal("apply before build accepted")
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err == nil {
		t.Fatal("double build accepted")
	}
	if err := e.Load("R", []int64{1, 2}); err == nil {
		t.Fatal("load after build accepted")
	}
	if err := e.Delete("R", []int64{9, 9}); err == nil {
		t.Fatal("over-delete accepted")
	}

	static, err := New(q, Options{Static: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := static.Build(); err != nil {
		t.Fatal(err)
	}
	if err := static.Insert("R", []int64{1, 2}); err == nil {
		t.Fatal("static engine accepted insert")
	}
}

// TestApplySteadyStateZeroAllocs pins the headline property of the update
// fast path: on a q-hierarchical query, a steady-state Apply (the updated
// tuple and all affected view rows already exist, no rebalancing pressure)
// performs no heap allocation at all.
func TestApplySteadyStateZeroAllocs(t *testing.T) {
	q := MustParseQuery("Q(A, B) = R(A, B), S(B)")
	e, err := New(q, Options{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 40; i++ {
		if err := e.LoadWeighted("R", []int64{i, i % 8}, 5); err != nil {
			t.Fatal(err)
		}
	}
	for b := int64(0); b < 8; b++ {
		if err := e.LoadWeighted("S", []int64{b}, 5); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	row := []int64{3, 3}
	// Warm the propagation pools once.
	if err := e.Apply("R", row, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Apply("R", row, -1); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if err := e.Apply("R", row, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Apply("R", row, -1); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state Apply allocates %v per run, want 0", n)
	}
}

func TestPublicAPIApplyBatch(t *testing.T) {
	q := MustParseQuery("Q(A, C) = R(A, B), S(B, C)")
	mk := func() *Engine {
		e, err := New(q, Options{Epsilon: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < 20; i++ {
			if err := e.Load("R", []int64{i, i % 4}); err != nil {
				t.Fatal(err)
			}
			if err := e.Load("S", []int64{i % 4, i}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Build(); err != nil {
			t.Fatal(err)
		}
		return e
	}
	seq, bat := mk(), mk()
	var rows [][]int64
	var mults []int64
	for i := int64(0); i < 200; i++ {
		rows = append(rows, []int64{100 + i%30, i % 6})
		mults = append(mults, 1)
	}
	for i := int64(0); i < 40; i++ { // mixed deletes of rows this batch inserted
		rows = append(rows, []int64{100 + i%30, i % 6})
		mults = append(mults, -1)
	}
	for i := range rows {
		if err := seq.Apply("R", rows[i], mults[i]); err != nil {
			t.Fatal(err)
		}
	}
	b := bat.NewBatch()
	for i := range rows {
		b.Apply("R", rows[i], mults[i])
	}
	if err := bat.Commit(b); err != nil {
		t.Fatal(err)
	}
	sr, sm := collect(seq.All())
	br, bm := collect(bat.All())
	if len(sr) != len(br) {
		t.Fatalf("result sizes differ: sequential %d, batch %d", len(sr), len(br))
	}
	want := map[string]int64{}
	for i, r := range sr {
		want[string(rune(r[0]))+","+string(rune(r[1]))] = sm[i]
	}
	for i, r := range br {
		if want[string(rune(r[0]))+","+string(rune(r[1]))] != bm[i] {
			t.Fatalf("row %v: batch mult %d != sequential", r, bm[i])
		}
	}
	if seq.N() != bat.N() {
		t.Fatalf("N diverged: %d vs %d", seq.N(), bat.N())
	}
	if err := bat.Commit(bat.NewBatch()); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := bat.Commit(bat.NewBatch().Insert("Z", []int64{1, 2})); err == nil {
		t.Fatal("unknown relation accepted")
	}
	e2, _ := New(q, Options{Epsilon: 0.5})
	if err := e2.Commit(e2.NewBatch().Insert("R", []int64{1, 2})); err == nil {
		t.Fatal("Commit before Build accepted")
	}
}

func TestPublicAPIQueryAccessors(t *testing.T) {
	q := MustParseQuery("Q(A) = R(A, B), S(B)")
	rels := q.Relations()
	if len(rels) != 2 || rels[0] != "R" || rels[1] != "S" {
		t.Fatalf("relations = %v", rels)
	}
	if s := q.Schema("R"); len(s) != 2 || s[0] != "A" || s[1] != "B" {
		t.Fatalf("schema = %v", s)
	}
	if q.Schema("Z") != nil {
		t.Fatal("schema of unknown relation non-nil")
	}
	if q.String() != "Q(A) = R(A, B), S(B)" {
		t.Fatalf("string = %s", q.String())
	}
}

func TestPublicAPIBooleanAndEarlyStop(t *testing.T) {
	q := MustParseQuery("Q() = R(A, B), S(B)")
	e, err := New(q, Options{Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Load("R", []int64{1, 5}, []int64{2, 5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Load("S", []int64{5}); err != nil {
		t.Fatal(err)
	}
	if err := e.Build(); err != nil {
		t.Fatal(err)
	}
	rows, mults := collect(e.All())
	if len(rows) != 1 || len(rows[0]) != 0 || mults[0] != 2 {
		t.Fatalf("boolean result = %v %v", rows, mults)
	}
	// Early stop.
	big, _ := New(MustParseQuery("Q(A) = R(A)"), Options{})
	for i := int64(0); i < 100; i++ {
		if err := big.Load("R", []int64{i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := big.Build(); err != nil {
		t.Fatal(err)
	}
	n := 0
	for range big.All() {
		n++
		if n == 5 {
			break
		}
	}
	if n != 5 {
		t.Fatalf("early stop yielded %d", n)
	}
}

// TestWalOptionsSyncMode: Durability.walOptions casts the public SyncMode to
// the log's, which is right only while both enums list the modes in one
// order; each public mode must reach the log as itself.
func TestWalOptionsSyncMode(t *testing.T) {
	for mode, want := range map[SyncMode]string{SyncOff: "off", SyncBatched: "batched", SyncAlways: "always"} {
		if got := (Durability{Sync: mode}).walOptions().Sync.String(); got != want {
			t.Errorf("SyncMode %d reaches the log as %q, want %q", mode, got, want)
		}
	}
}
