package timing

import "testing"

// bfMaxWindowsLoop is the reference for bfMaxWindows: it deals the
// (NSC/4) x (NB/4) beamforming windows lane by lane, as kernels/mmm's
// appendRowBlocks and appendColBlocks do, and returns the busiest
// lane's count.
func bfMaxWindowsLoop(nsc, nb, lanes int) int {
	blocksM, blocksP := nsc/4, nb/4
	wmax := 0
	for lane := 0; lane < lanes; lane++ {
		nrb := 1
		if lanes < blocksM {
			nrb = (blocksM - lane + lanes - 1) / lanes
		}
		rank, cnt := 0, 1
		if lanes >= blocksM {
			rank = lane / blocksM
			cnt = lanes / blocksM
			if rem := lanes % blocksM; rem != 0 && lane%blocksM < rem {
				cnt++
			}
		}
		ncb := 0
		if rank < blocksP {
			ncb = (blocksP - rank + cnt - 1) / cnt
		}
		if w := nrb * ncb; w > wmax {
			wmax = w
		}
	}
	return wmax
}

// TestBFMaxWindowsClosedForm holds the closed form to the lane-by-lane
// deal: every NSC and NB multiple of 4 up to 512 and 64 on 1 to 130
// lanes, and the calibrated clusters' 256 and 1024 lanes up to NSC 4096
// and NB 128.
func TestBFMaxWindowsClosedForm(t *testing.T) {
	check := func(nsc, nb, lanes int) {
		if got, want := bfMaxWindows(nsc, nb, lanes), bfMaxWindowsLoop(nsc, nb, lanes); got != want {
			t.Fatalf("bfMaxWindows(%d, %d, %d) = %d, the lane-by-lane deal gives %d", nsc, nb, lanes, got, want)
		}
	}
	for nsc := 4; nsc <= 512; nsc += 4 {
		for nb := 4; nb <= 64; nb += 4 {
			for lanes := 1; lanes <= 130; lanes++ {
				check(nsc, nb, lanes)
			}
		}
	}
	for nsc := 4; nsc <= 4096; nsc += 4 {
		for nb := 4; nb <= 128; nb += 4 {
			check(nsc, nb, 256)
			check(nsc, nb, 1024)
		}
	}
}
