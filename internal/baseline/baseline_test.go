package baseline

import (
	"fmt"
	"math/rand"
	"testing"

	"ivmeps/internal/naive"
	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

func randomDB(q *query.Query, rng *rand.Rand, n int, domain int64) naive.Database {
	db := naive.Database{}
	for _, a := range q.Atoms {
		if _, ok := db[a.Rel]; ok {
			continue
		}
		r := relation.New(a.Rel, a.Vars)
		for i := 0; i < n; i++ {
			t := make(tuple.Tuple, len(a.Vars))
			for j := range t {
				t[j] = rng.Int63n(domain)
			}
			r.Set(t, 1+rng.Int63n(2))
		}
		db[a.Rel] = r
	}
	return db
}

func check(t *testing.T, label string, s System, q *query.Query, db naive.Database) {
	t.Helper()
	want := naive.MustEval(q, db)
	got := map[string]int64{}
	s.Enumerate(func(tu tuple.Tuple, m int64) bool {
		k := fmt.Sprint(tu)
		if _, dup := got[k]; dup {
			t.Fatalf("%s: duplicate tuple %v", label, tu)
		}
		got[k] = m
		return true
	})
	if len(got) != want.Size() {
		t.Fatalf("%s: size %d != %d", label, len(got), want.Size())
	}
	want.ForEach(func(tu tuple.Tuple, m int64) {
		if got[fmt.Sprint(tu)] != m {
			t.Fatalf("%s: tuple %v: got %d want %d", label, tu, got[fmt.Sprint(tu)], m)
		}
	})
}

func systemsFor(t *testing.T, q *query.Query) []System {
	t.Helper()
	ivm, err := NewIVMEps(q, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	fo, err := NewFirstOrderIVM(q)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := NewPlainTree(q)
	if err != nil {
		t.Fatal(err)
	}
	return []System{ivm, NewRecompute(q), fo, pt}
}

func TestAllSystemsAgreeUnderUpdates(t *testing.T) {
	queries := []string{
		"Q(A, C) = R(A, B), S(B, C)",
		"Q(A) = R(A, B), S(B)",
		"Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)",
		"Q(A, B) = R(A, B), S(B)",
	}
	for _, qs := range queries {
		q := query.MustParse(qs)
		rng := rand.New(rand.NewSource(11))
		db := randomDB(q, rng, 25, 5)
		shadow := db.Clone()
		systems := systemsFor(t, q)
		for _, s := range systems {
			if err := s.Preprocess(db.Clone()); err != nil {
				t.Fatalf("%s %s: %v", qs, s.Name(), err)
			}
			check(t, fmt.Sprintf("%s %s initial", qs, s.Name()), s, q, shadow)
		}
		names := q.RelationNames()
		for step := 0; step < 60; step++ {
			rel := names[rng.Intn(len(names))]
			schema := shadow[rel].Schema()
			tu := make(tuple.Tuple, len(schema))
			for j := range tu {
				tu[j] = rng.Int63n(5)
			}
			m := int64(1)
			if rng.Intn(2) == 0 {
				m = -1
			}
			reject := shadow[rel].Mult(tu)+m < 0
			for _, s := range systems {
				err := s.Update(rel, tu, m)
				if reject && err == nil {
					t.Fatalf("%s %s: over-delete accepted", qs, s.Name())
				}
				if !reject && err != nil {
					t.Fatalf("%s %s: update rejected: %v", qs, s.Name(), err)
				}
			}
			if !reject {
				shadow[rel].MustAdd(tu, m)
			}
			if step%20 == 19 {
				for _, s := range systems {
					check(t, fmt.Sprintf("%s %s step %d", qs, s.Name(), step), s, q, shadow)
				}
			}
		}
	}
}

func TestFirstOrderIVMRejectsRepeatedSymbols(t *testing.T) {
	if _, err := NewFirstOrderIVM(query.MustParse("Q(B, C) = R(A, B), R(A, C)")); err == nil {
		t.Fatal("repeated symbols accepted")
	}
}

func TestNames(t *testing.T) {
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	ivm, _ := NewIVMEps(q, 0.25)
	if ivm.Name() != "ivm-eps(0.25)" {
		t.Fatalf("name = %s", ivm.Name())
	}
	st, err := NewIVMEpsStatic(q, 0.25)
	if err != nil || st.Engine() == nil {
		t.Fatalf("static wrapper: %v", err)
	}
	if NewRecompute(q).Name() != "recompute" {
		t.Fatal("recompute name")
	}
	fo, _ := NewFirstOrderIVM(q)
	if fo.Name() != "fo-ivm" {
		t.Fatal("fo-ivm name")
	}
	pt, _ := NewPlainTree(q)
	if pt.Name() != "plain-tree" {
		t.Fatal("plain-tree name")
	}
}

func TestSystemErrors(t *testing.T) {
	q := query.MustParse("Q(A) = R(A, B), S(B)")
	rc := NewRecompute(q)
	if err := rc.Preprocess(naive.Database{"Z": relation.New("Z", tuple.NewSchema("A"))}); err == nil {
		t.Fatal("unknown relation accepted")
	}
	if err := rc.Update("Z", tuple.Tuple{1}, 1); err == nil {
		t.Fatal("unknown relation update accepted")
	}
	fo, _ := NewFirstOrderIVM(q)
	if err := fo.Preprocess(naive.Database{}); err != nil {
		t.Fatal(err)
	}
	if err := fo.Update("Z", tuple.Tuple{1}, 1); err == nil {
		t.Fatal("unknown relation update accepted")
	}
	if err := fo.Update("R", tuple.Tuple{1, 2}, -1); err == nil {
		t.Fatal("over-delete accepted")
	}
}
