package engine

import (
	"testing"

	"repro/internal/arch"
)

// TestJobNotBefore checks the inter-partition handshake: cores earlier
// than the job's NotBefore wait in WFI before phase 0, cores already
// past it start immediately.
func TestJobNotBefore(t *testing.T) {
	m := NewMachine(arch.MemPool())
	// Advance cores 0..3 to a known point.
	if err := m.Run(Job{
		Name:  "warm",
		Cores: []int{0, 1, 2, 3},
		Phases: []Phase{{Name: "w", Work: func(p *Proc) {
			p.Tick(50)
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	warm := m.MaxTime([]int{0, 1, 2, 3})
	if warm < 50 {
		t.Fatalf("warm-up finished at %d, expected >= 50", warm)
	}
	notBefore := warm + 1000
	if err := m.Run(Job{
		Name:      "late",
		Cores:     []int{4, 5, 6, 7},
		NotBefore: notBefore,
		Phases: []Phase{{Name: "l", Work: func(p *Proc) {
			if p.Now() < notBefore {
				t.Errorf("core %d started at %d, before NotBefore %d", p.Core, p.Now(), notBefore)
			}
			p.Tick(1)
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.CoreStats(4).WfiStalls; got < notBefore-3 {
		t.Errorf("core 4 WFI stalls = %d, expected the NotBefore wait (~%d)", got, notBefore)
	}
	// A job already past the timestamp must not be delayed: no WFI wait
	// is charged (the single-core job has no barriers either).
	wfiBefore := m.CoreStats(0).WfiStalls
	if err := m.Run(Job{
		Name:      "ontime",
		Cores:     []int{0},
		NotBefore: 10, // long past
		Phases:    []Phase{{Name: "o", Work: func(p *Proc) { p.Tick(1) }}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := m.CoreStats(0).WfiStalls; got != wfiBefore {
		t.Errorf("past NotBefore charged a WFI wait: %d -> %d", wfiBefore, got)
	}
}

// TestMaxTime checks the partition finish-time helper.
func TestMaxTime(t *testing.T) {
	m := NewMachine(arch.MemPool())
	if err := m.Run(Job{
		Name:  "w",
		Cores: []int{2, 3},
		Phases: []Phase{{Name: "w", Work: func(p *Proc) {
			p.Tick(20 + p.Lane)
		}}},
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := m.MaxTime([]int{2, 3}), m.Cycles(); got != want {
		t.Errorf("MaxTime over the active partition = %d, want the machine max %d", got, want)
	}
	if got := m.MaxTime([]int{10, 11}); got != 0 {
		t.Errorf("MaxTime over idle cores = %d, want 0", got)
	}
	if got, want := m.MaxTime(nil), m.Cycles(); got != want {
		t.Errorf("MaxTime(nil) = %d, want %d", got, want)
	}
}
