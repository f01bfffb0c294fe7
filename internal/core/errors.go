package core

import "errors"

// Typed errors of the mutation and enumeration entry points. Every
// rejection an embedder can program against is either one of the sentinels
// below (match with errors.Is) or one of the structured types
// relation.ArityError / relation.MultiplicityError (match with errors.As).
// The public ivmeps package re-exports the sentinels as values and the two
// types as aliases, so what core returns is what a caller matches, text
// included. Errors carrying context — which relation, which query — wrap
// the sentinel with %w, so errors.Is still matches.
var (
	// ErrNotBuilt is returned (or, on the enumeration convenience paths,
	// panicked) when an operation that requires a preprocessed engine runs
	// before Preprocess.
	ErrNotBuilt = errors.New("engine not built")

	// ErrUnknownRelation is returned when an update names a relation that
	// does not occur in the engine's query.
	ErrUnknownRelation = errors.New("relation not in query")

	// ErrStatic is returned when an update reaches an engine built in
	// static mode (Mode: Static rejects all post-Build maintenance).
	ErrStatic = errors.New("engine built in static mode")
)
