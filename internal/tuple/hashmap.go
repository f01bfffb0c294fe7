package tuple

// IntMap is an insert-only open-addressing map from Tuple to int, keyed on
// unencoded tuples (no key string is ever built). It is the pooled grouping
// table of the batch-update hot paths: Reset clears the map while keeping
// its arrays and key arena, so a map reused across batches stops allocating
// once it has grown to the working-set size.
//
// The keys live in insertion order in a dense entry list; the probed table
// holds their numbers, in a power-of-two prefix of its array that every use
// grows again from intMapResetSlots and growth refills from the entry list.
// Probing, regrowing and Reset thus cost in proportion to a use's own keys,
// however large an earlier use of the map was.
//
// Keys passed to Put are stored by reference and must stay valid (and
// unmodified) until the next Reset; PutCopy copies the key into an internal
// arena for callers whose key lives in a reused scratch buffer. There is no
// deletion. The zero value is ready to use. Not safe for concurrent use.
type IntMap struct {
	index   []uint32      // the table: an entry's number + 1, or 0; its array is zero beyond len
	entries []intMapEntry // the keys, in insertion order
	mask    uint64        // len(index) − 1
	seed    uint64
	arena   Tuple // backing storage for PutCopy keys, truncated by Reset
}

type intMapEntry struct {
	hash uint64
	key  Tuple
	val  int
}

const (
	// intMapMinSlots is the first table: 32 keys in two allocations.
	intMapMinSlots = 64
	// intMapResetSlots bounds the table a use starts from and a small use's
	// Reset clears: 128 keys fit before the first growth.
	intMapResetSlots = 256
)

// Len returns the number of stored keys.
func (m *IntMap) Len() int { return len(m.entries) }

// ensureSeed draws the map's hash seed on first use. The seed never
// changes once set (0 is the unset sentinel; NewSeed is redrawn in the
// astronomically unlikely case it returns 0), so hashes returned by
// GetHash stay valid for a later PutHashed.
func (m *IntMap) ensureSeed() {
	for m.seed == 0 {
		m.seed = NewSeed()
	}
}

// Get returns the value stored for t.
func (m *IntMap) Get(t Tuple) (int, bool) {
	v, _, ok := m.GetHash(t)
	return v, ok
}

// GetHash is Get returning additionally the key's hash, for a subsequent
// PutHashed/PutCopyHashed on a miss — the get-then-put pattern of the
// batch grouping paths then hashes each distinct tuple once.
func (m *IntMap) GetHash(t Tuple) (int, uint64, bool) {
	m.ensureSeed()
	h := Hash(m.seed, t)
	if len(m.entries) == 0 {
		return 0, h, false
	}
	for i := h & m.mask; ; i = (i + 1) & m.mask {
		n := m.index[i]
		if n == 0 {
			return 0, h, false
		}
		if e := &m.entries[n-1]; e.hash == h && e.key.Equal(t) {
			return e.val, h, true
		}
	}
}

// Put stores {t → v}, referencing t directly. t must not already be present
// (the callers' get-then-put pattern guarantees it) and must stay valid
// until the next Reset.
func (m *IntMap) Put(t Tuple, v int) {
	m.ensureSeed()
	m.PutHashed(Hash(m.seed, t), t, v)
}

// PutHashed is Put with the hash precomputed by GetHash.
func (m *IntMap) PutHashed(h uint64, t Tuple, v int) {
	if 2*len(m.entries) >= len(m.index) {
		m.grow()
	}
	m.entries = append(m.entries, intMapEntry{h, t, v})
	m.place(h, uint32(len(m.entries)))
}

// place puts entry number n in the first free slot of its hash's probe run.
func (m *IntMap) place(h uint64, n uint32) {
	i := h & m.mask
	for m.index[i] != 0 {
		i = (i + 1) & m.mask
	}
	m.index[i] = n
}

// PutCopy is Put with the key copied into the map's internal arena, for
// keys living in a scratch buffer the caller will overwrite.
func (m *IntMap) PutCopy(t Tuple, v int) {
	m.ensureSeed()
	m.PutCopyHashed(Hash(m.seed, t), t, v)
}

// PutCopyHashed is PutCopy with the hash precomputed by GetHash.
func (m *IntMap) PutCopyHashed(h uint64, t Tuple, v int) {
	start := len(m.arena)
	m.arena = append(m.arena, t...)
	m.PutHashed(h, m.arena[start:len(m.arena):len(m.arena)], v)
}

// Reset empties the map, keeping its arrays and key arena for reuse: it
// clears the table the ending use grew to and that use's entries, no more,
// and takes the table back to at most intMapResetSlots. Keys stored by
// reference are released; arena-copied keys are overwritten by subsequent
// PutCopy calls.
func (m *IntMap) Reset() {
	if len(m.entries) > 0 {
		clear(m.index)
		clear(m.entries)
		m.entries = m.entries[:0]
	}
	if len(m.index) > intMapResetSlots {
		m.index = m.index[:intMapResetSlots]
		m.mask = intMapResetSlots - 1
	}
	m.arena = m.arena[:0]
}

// grow doubles the table — inside its array once the map has seen a use as
// large, else in a new one with an entry list to match — and places every
// entry anew.
func (m *IntMap) grow() {
	n := max(2*len(m.index), intMapMinSlots)
	if n <= cap(m.index) {
		clear(m.index)
		m.index = m.index[:n]
	} else {
		m.index = make([]uint32, n)
		m.entries = append(make([]intMapEntry, 0, n/2), m.entries...)
	}
	m.mask = uint64(n - 1)
	for i := range m.entries {
		m.place(m.entries[i].hash, uint32(i+1))
	}
}
