package engine

// SyncMemoCap is the bound on a machine's RunSynced memo entries.
const SyncMemoCap = syncMemoCap

// Replayed returns the number of RunSynced units replayed since the
// machine was built or last Reset.
func (m *Machine) Replayed() int { return m.replayed }

// MemoEntries returns the number of RunSynced memo entries the machine
// holds.
func (m *Machine) MemoEntries() int { return len(m.memos) }
