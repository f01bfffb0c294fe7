package tuple

// TableSlots is the size of the table a Reset would clear now.
func (m *IntMap) TableSlots() int { return len(m.index) }

// ArraysClear reports that the map's arrays, to their full capacity, hold no
// entry number and no key reference.
func (m *IntMap) ArraysClear() bool {
	for _, n := range m.index[:cap(m.index)] {
		if n != 0 {
			return false
		}
	}
	for _, e := range m.entries[:cap(m.entries)] {
		if e.key != nil {
			return false
		}
	}
	return true
}
