package engine

// SyncMemoCap is the bound on a machine's replay memo entries.
const SyncMemoCap = syncMemoCap

// Replayed returns the number of memoized Runs (RunSynced stages and
// slot Runs) replayed since the machine was built or last Reset.
func (m *Machine) Replayed() int { return m.replayed }

// MemoEntries returns the number of replay memo entries (stages and
// slots) the machine holds.
func (m *Machine) MemoEntries() int { return len(m.memos) }

// MemoLookups returns the number of replay memo lookups (one per
// replayable RunSynced stage outside a slot, one per BeginSlot) since
// the machine was built.
func (m *Machine) MemoLookups() uint64 { return m.memoClock }

// MemoSlots returns the number of slot entries in the replay memo.
func (m *Machine) MemoSlots() int {
	n := 0
	for i := range m.memos {
		if m.memos[i].slot {
			n++
		}
	}
	return n
}
