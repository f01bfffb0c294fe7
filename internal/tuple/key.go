package tuple

// Key is a compact, comparable encoding of a Tuple, suitable for use as a
// Go map key. Values are encoded little-endian in 8 bytes each, so two
// tuples of the same arity encode equal iff they are equal.
//
// Key is a cold-path convenience only: enumeration dedup in tests, model
// maps in property tests, and embedder code that wants an ordinary Go map.
// The engine's hot paths — relation storage, index buckets, delta
// aggregation, and batch grouping — key directly on unencoded tuples
// via tuple.Hash and the open-addressing tables of internal/relation, and
// never construct a Key.
type Key string

// EncodeKey encodes t into a Key.
func EncodeKey(t Tuple) Key {
	buf := make([]byte, 0, len(t)*8)
	return Key(appendKey(buf, t))
}

// AppendKey appends the encoding of t to buf and returns the extended
// buffer; callers can reuse buf across calls to avoid allocation, then
// convert with Key(buf) (which copies). A conversion used directly in a map
// index expression — m[Key(buf)], or delete(m, Key(buf)) — does not copy:
// the compiler's bytes-to-string map-access optimization applies, so probing
// a map[Key]V with a reused buffer is allocation-free. The hot paths of
// internal/relation rely on this.
func AppendKey(buf []byte, t Tuple) []byte { return appendKey(buf, t) }

func appendKey(buf []byte, t Tuple) []byte {
	for _, v := range t {
		buf = appendKeyValue(buf, v)
	}
	return buf
}

// appendKeyValue appends the 8-byte little-endian encoding of one value;
// it is the single definition of the Key byte layout.
func appendKeyValue(buf []byte, v Value) []byte {
	u := uint64(v)
	return append(buf,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// DecodeKey decodes a Key back into a Tuple. The Key length must be a
// multiple of 8.
func DecodeKey(k Key) Tuple {
	n := len(k) / 8
	t := make(Tuple, n)
	for i := 0; i < n; i++ {
		b := k[i*8 : i*8+8]
		u := uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
			uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		t[i] = Value(u)
	}
	return t
}

// Arity returns the number of values encoded in k.
func (k Key) Arity() int { return len(k) / 8 }
