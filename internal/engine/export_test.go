package engine

// Replayed returns the number of RunSynced units replayed since the
// machine was built or last Reset.
func (m *Machine) Replayed() int { return m.replayed }
