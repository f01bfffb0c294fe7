package tuple

import "testing"

func TestSchemaValidate(t *testing.T) {
	if err := NewSchema("A", "B", "C").Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	bad := Schema{"A", "B", "A"}
	if err := bad.Validate(); err == nil {
		t.Fatalf("duplicate schema accepted")
	}
}

func TestNewSchemaPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewSchema with duplicates did not panic")
		}
	}()
	NewSchema("A", "A")
}

func TestSchemaSetOps(t *testing.T) {
	s := NewSchema("A", "B", "C")
	u := NewSchema("B", "D")

	if got := s.Union(u); !got.Equal(NewSchema("A", "B", "C", "D")) {
		t.Errorf("Union = %v", got)
	}
	if got := s.Intersect(u); !got.Equal(NewSchema("B")) {
		t.Errorf("Intersect = %v", got)
	}
	if got := s.Minus(u); !got.Equal(NewSchema("A", "C")) {
		t.Errorf("Minus = %v", got)
	}
	if !s.ContainsAll(NewSchema("C", "A")) {
		t.Errorf("ContainsAll failed")
	}
	if s.ContainsAll(NewSchema("A", "Z")) {
		t.Errorf("ContainsAll accepted missing variable")
	}
	if !s.SameSet(NewSchema("C", "B", "A")) {
		t.Errorf("SameSet failed on permutation")
	}
	if s.SameSet(u) {
		t.Errorf("SameSet accepted different sets")
	}
}

func TestSchemaSorted(t *testing.T) {
	s := NewSchema("C", "A", "B")
	if got := s.Sorted(); !got.Equal(NewSchema("A", "B", "C")) {
		t.Errorf("Sorted = %v", got)
	}
	// Original untouched.
	if !s.Equal(NewSchema("C", "A", "B")) {
		t.Errorf("Sorted mutated receiver: %v", s)
	}
}

func TestSchemaIndexOf(t *testing.T) {
	s := NewSchema("A", "B")
	if s.IndexOf("B") != 1 {
		t.Errorf("IndexOf(B) = %d", s.IndexOf("B"))
	}
	if s.IndexOf("Z") != -1 {
		t.Errorf("IndexOf(Z) = %d", s.IndexOf("Z"))
	}
}

func TestProjection(t *testing.T) {
	src := NewSchema("A", "B", "C")
	p := MustProjection(src, NewSchema("C", "A"))
	// Paper's example: (a,b,c)[(C,A)] = (c,a).
	got := p.Apply(Tuple{1, 2, 3})
	if !got.Equal(Tuple{3, 1}) {
		t.Errorf("Apply = %v, want (3, 1)", got)
	}
}

func TestProjectionErrors(t *testing.T) {
	src := NewSchema("A", "B")
	if _, err := NewProjection(src, NewSchema("Z")); err == nil {
		t.Fatalf("projection onto missing variable accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustProjection did not panic")
		}
	}()
	MustProjection(src, NewSchema("Z"))
}

func TestProjectionAppendTo(t *testing.T) {
	src := NewSchema("A", "B", "C")
	p := MustProjection(src, NewSchema("B"))
	buf := make(Tuple, 0, 4)
	buf = p.AppendTo(buf, Tuple{7, 8, 9})
	buf = p.AppendTo(buf, Tuple{1, 2, 3})
	if !buf.Equal(Tuple{8, 2}) {
		t.Errorf("AppendTo = %v", buf)
	}
}

func TestTupleOps(t *testing.T) {
	a := Tuple{1, 2}
	c := a.Clone()
	c[0] = 99
	if a[0] == 99 {
		t.Errorf("Clone aliases receiver")
	}
}

func TestStringers(t *testing.T) {
	if got := NewSchema("A", "B").String(); got != "(A, B)" {
		t.Errorf("Schema.String = %q", got)
	}
	if got := (Tuple{1, -2}).String(); got != "(1, -2)" {
		t.Errorf("Tuple.String = %q", got)
	}
}
