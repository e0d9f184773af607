package engine

// SyncMemoCap is the bound on a machine's replay memo entries.
const SyncMemoCap = syncMemoCap

// Replayed returns the number of memoized Runs (RunSynced stages and
// slot Runs) replayed since the machine was built or last Reset.
func (m *Machine) Replayed() int { return m.replayed }

// MemoEntries returns the number of replay memo entries (stages and
// slots) the machine holds.
func (m *Machine) MemoEntries() int { return len(m.memos) }
