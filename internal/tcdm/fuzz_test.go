package tcdm

import "testing"

// FuzzReservation checks the paged reservation table against the map
// reference on arbitrary programs (see runReservationProgram for the
// four-byte operation encoding; the first byte picks the bank count).
// Programs are capped at 256 operations so the reference's linear
// probing stays fast.
func FuzzReservation(f *testing.F) {
	f.Add([]byte{16, 0, 40, 3, 1, 2, 3, 0, 9, 3, 0, 200, 7})
	f.Add([]byte{1, 1, 47, 0, 12, 2, 3, 20, 6, 5, 1, 12, 0, 7, 0, 4, 2})
	f.Add([]byte{64, 4, 255, 13, 0, 2, 1, 5, 0, 5, 9, 12, 0, 6, 0, 0, 0, 0, 30, 1, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		runReservationProgram(t, int(prog[0]%64)+1, prog[1:min(len(prog), 1+4*256)])
	})
}
