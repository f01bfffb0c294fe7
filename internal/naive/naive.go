// Package naive is a straightforward conjunctive-query evaluator: the oracle
// every property suite checks the engine against and the join behind
// internal/baseline's recompute systems. The engine does not call it
// (internal/core uses only the Database type). It computes the full result
//
//	Q(f) = Σ over valuations θ of bound(Q) consistent with f of
//	       Π over atoms Ri(Xi) of Ri(θ(Xi))
//
// by a left-deep index-nested-loops join over the atoms.
package naive

import (
	"fmt"

	"ivmeps/internal/query"
	"ivmeps/internal/relation"
	"ivmeps/internal/tuple"
)

// Database maps relation names to relations.
type Database map[string]*relation.Relation

// Size returns the database size N: the sum of the relation sizes (distinct
// tuple counts), as in the paper's data model.
func (db Database) Size() int {
	n := 0
	for _, r := range db {
		n += r.Size()
	}
	return n
}

// Clone deep-copies the database contents (without indexes).
func (db Database) Clone() Database {
	out := make(Database, len(db))
	for k, v := range db {
		out[k] = v.Clone()
	}
	return out
}

// Eval computes the result of q over db as a relation over q.Free. Atoms
// are joined left to right, preferring atoms connected to already-bound
// variables; each atom is accessed through an index on its bound variables.
func Eval(q *query.Query, db Database) (*relation.Relation, error) {
	return EvalSeeded(q, db, -1)
}

// EvalSeeded is Eval with a forced first atom (by index into q.Atoms). The
// delta propagation of internal/baseline uses it to start every join from
// the (small) delta relation rather than from an arbitrary atom; pass -1
// for the default order.
func EvalSeeded(q *query.Query, db Database, first int) (*relation.Relation, error) {
	for _, a := range q.Atoms {
		r, ok := db[a.Rel]
		if !ok {
			return nil, fmt.Errorf("naive: relation %s not in database", a.Rel)
		}
		if len(r.Schema()) != len(a.Vars) {
			return nil, fmt.Errorf("naive: atom %s has arity %d but relation has arity %d",
				a, len(a.Vars), len(r.Schema()))
		}
	}
	res := relation.New(q.Name, q.Free)
	plan := orderAtoms(q, first)

	// Variable slots.
	vars := q.Vars()
	slot := map[tuple.Variable]int{}
	for i, v := range vars {
		slot[v] = i
	}
	assign := make(tuple.Tuple, len(vars))

	// Per-plan-step access path: index of the atom's relation on the
	// variables already bound by earlier steps.
	type step struct {
		atom     query.Atom
		rel      *relation.Relation
		ix       *relation.Index // nil means full scan
		boundPos []int           // positions in atom.Vars bound before this step
		freshPos []int           // positions newly bound by this step
		keyProj  []int           // slots of the bound vars, aligned with ix schema
	}
	steps := make([]step, len(plan))
	bound := map[tuple.Variable]bool{}
	for i, ai := range plan {
		a := q.Atoms[ai]
		st := step{atom: a, rel: db[a.Rel]}
		var keyVars tuple.Schema
		for pos, v := range a.Vars {
			if bound[v] {
				st.boundPos = append(st.boundPos, pos)
				keyVars = append(keyVars, v)
			} else {
				st.freshPos = append(st.freshPos, pos)
			}
		}
		// Deduplicate repeated variables within the atom: later positions of
		// an already-seen variable behave as bound checks. (Handled below by
		// consistency checking against assign.)
		if len(keyVars) > 0 {
			// Index keys must match the atom's variable positions: the index
			// is built on the relation's own schema restricted to boundPos.
			ixSchema := make(tuple.Schema, len(st.boundPos))
			for k, pos := range st.boundPos {
				ixSchema[k] = st.rel.Schema()[pos]
			}
			if err := ixSchema.Validate(); err == nil {
				st.ix = st.rel.EnsureIndex(ixSchema)
				for _, pos := range st.boundPos {
					st.keyProj = append(st.keyProj, slot[a.Vars[pos]])
				}
			}
		}
		for _, v := range a.Vars {
			bound[v] = true
		}
		steps[i] = st
	}

	proj := tuple.MustProjection(vars, q.Free)
	key := make(tuple.Tuple, 0, 8)

	var recurse func(i int, mult int64)
	recurse = func(i int, mult int64) {
		if i == len(steps) {
			res.MustAdd(proj.Apply(assign), mult)
			return
		}
		st := &steps[i]
		emit := func(t tuple.Tuple, m int64) {
			// Check all bound positions and repeated variables.
			for pos, v := range st.atom.Vars {
				s := slot[v]
				isFresh := false
				for _, fp := range st.freshPos {
					if fp == pos {
						isFresh = true
						break
					}
				}
				if !isFresh {
					if assign[s] != t[pos] {
						return
					}
				}
			}
			// Repeated fresh variables within the atom must agree.
			for k, pos := range st.freshPos {
				v := st.atom.Vars[pos]
				for _, pos2 := range st.freshPos[:k] {
					if st.atom.Vars[pos2] == v && t[pos2] != t[pos] {
						return
					}
				}
			}
			for _, pos := range st.freshPos {
				assign[slot[st.atom.Vars[pos]]] = t[pos]
			}
			recurse(i+1, mult*m)
		}
		if st.ix != nil {
			key = key[:0]
			for _, s := range st.keyProj {
				key = append(key, assign[s])
			}
			st.ix.ForEachMatch(key, emit)
		} else {
			st.rel.ForEach(emit)
		}
	}
	recurse(0, 1)
	return res, nil
}

// MustEval is Eval that panics on error.
func MustEval(q *query.Query, db Database) *relation.Relation {
	r, err := Eval(q, db)
	if err != nil {
		panic(err)
	}
	return r
}

// orderAtoms returns a left-deep atom order that keeps each atom connected
// to the variables bound so far when possible, greedily maximizing the
// number of already-bound variables. If first is non-negative, that atom is
// forced to the front.
func orderAtoms(q *query.Query, first int) []int {
	n := len(q.Atoms)
	used := make([]bool, n)
	bound := map[tuple.Variable]bool{}
	var out []int
	if first >= 0 {
		used[first] = true
		out = append(out, first)
		for _, v := range q.Atoms[first].Vars {
			bound[v] = true
		}
	}
	for len(out) < n {
		best, bestScore := -1, -1<<30
		for i := 0; i < n; i++ {
			if used[i] {
				continue
			}
			score := 0
			for _, v := range q.Atoms[i].Vars {
				if bound[v] {
					score++
				}
			}
			// Prefer more bound variables; tie-break on fewer fresh ones.
			score = score*100 - len(q.Atoms[i].Vars)
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		used[best] = true
		out = append(out, best)
		for _, v := range q.Atoms[best].Vars {
			bound[v] = true
		}
	}
	return out
}
