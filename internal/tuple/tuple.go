// Package tuple provides the value, tuple, and schema model used throughout
// the library.
//
// A schema is an ordered list of distinct variable names; a tuple is a list
// of values positionally aligned with a schema. Relations map tuples to
// integer multiplicities (see internal/relation). Tuples over a sub-schema
// are obtained by restriction, mirroring the paper's x[S] notation
// (Section 3, "Data Model").
package tuple

import (
	"fmt"
	"sort"
	"strings"
)

// Value is a single data value. The paper's domains are abstract discrete
// sets; int64 exercises the same code paths and keeps hashing cheap. It is
// an alias so that []int64 literals and tuples convert freely at the public
// API boundary.
type Value = int64

// Variable names a query variable (e.g. "A", "B").
type Variable string

// Schema is an ordered tuple of distinct variables. The ordering is
// significant: tuples are positional.
type Schema []Variable

// Tuple is a list of values aligned positionally with some Schema.
type Tuple []Value

// NewSchema builds a schema from variable names, panicking on duplicates.
// It is intended for literals in tests and examples.
func NewSchema(vars ...Variable) Schema {
	s := Schema(vars)
	if err := s.Validate(); err != nil {
		panic(err)
	}
	return s
}

// Validate reports an error if the schema contains duplicate variables.
func (s Schema) Validate() error {
	seen := make(map[Variable]struct{}, len(s))
	for _, v := range s {
		if _, dup := seen[v]; dup {
			return fmt.Errorf("tuple: duplicate variable %q in schema %v", v, s)
		}
		seen[v] = struct{}{}
	}
	return nil
}

// IndexOf returns the position of v in s, or -1 if absent.
func (s Schema) IndexOf(v Variable) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}

// Contains reports whether v occurs in s.
func (s Schema) Contains(v Variable) bool { return s.IndexOf(v) >= 0 }

// ContainsAll reports whether every variable of sub occurs in s.
func (s Schema) ContainsAll(sub Schema) bool {
	for _, v := range sub {
		if !s.Contains(v) {
			return false
		}
	}
	return true
}

// Equal reports whether s and t are identical as ordered schemas.
func (s Schema) Equal(t Schema) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// SameSet reports whether s and t contain the same variables, ignoring order.
func (s Schema) SameSet(t Schema) bool {
	return s.ContainsAll(t) && t.ContainsAll(s)
}

// Clone returns a copy of s.
func (s Schema) Clone() Schema {
	out := make(Schema, len(s))
	copy(out, s)
	return out
}

// Union returns the variables of s followed by the variables of t that are
// not already in s, preserving first-occurrence order.
func (s Schema) Union(t Schema) Schema {
	out := s.Clone()
	for _, v := range t {
		if !out.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Intersect returns the variables of s that also occur in t, in s's order.
func (s Schema) Intersect(t Schema) Schema {
	out := make(Schema, 0, len(s))
	for _, v := range s {
		if t.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Minus returns the variables of s that do not occur in t, in s's order.
func (s Schema) Minus(t Schema) Schema {
	out := make(Schema, 0, len(s))
	for _, v := range s {
		if !t.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Sorted returns a lexicographically sorted copy of s. Canonical variable
// orders use it to break ties deterministically (Appendix B.1).
func (s Schema) Sorted() Schema {
	out := s.Clone()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Names returns the schema's variables as strings, in order.
func (s Schema) Names() []string {
	out := make([]string, len(s))
	for i, v := range s {
		out[i] = string(v)
	}
	return out
}

// String renders the schema as "(A, B, C)".
func (s Schema) String() string { return "(" + strings.Join(s.Names(), ", ") + ")" }

// Projection precomputes the positions needed to restrict tuples over a
// source schema to a target schema, mirroring the paper's x[S] operation.
// Build it once and reuse it in inner loops.
type Projection struct {
	pos []int
}

// NewProjection builds the projection from src onto target. Every variable
// of target must occur in src.
func NewProjection(src, target Schema) (Projection, error) {
	pos := make([]int, len(target))
	for i, v := range target {
		j := src.IndexOf(v)
		if j < 0 {
			return Projection{}, fmt.Errorf("tuple: projection target variable %q not in source schema %v", v, src)
		}
		pos[i] = j
	}
	return Projection{pos: pos}, nil
}

// MustProjection is NewProjection that panics on error; for static schemas.
func MustProjection(src, target Schema) Projection {
	p, err := NewProjection(src, target)
	if err != nil {
		panic(err)
	}
	return p
}

// Apply restricts t (over the source schema) to the target schema.
func (p Projection) Apply(t Tuple) Tuple {
	out := make(Tuple, len(p.pos))
	for i, j := range p.pos {
		out[i] = t[j]
	}
	return out
}

// AppendTo appends the restriction of t to dst and returns dst. It avoids
// an allocation when the caller reuses a scratch buffer.
func (p Projection) AppendTo(dst, t Tuple) Tuple {
	for _, j := range p.pos {
		dst = append(dst, t[j])
	}
	return dst
}

// Equal reports whether two tuples are identical.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if t[i] != u[i] {
			return false
		}
	}
	return true
}

// Clone returns a copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as "(1, 2, 3)".
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
