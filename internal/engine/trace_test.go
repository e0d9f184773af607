package engine

import (
	"testing"

	"repro/internal/arch"
)

func tracedRun(t *testing.T, rotate bool) *Machine {
	t.Helper()
	m := NewMachine(arch.MemPool())
	m.Tracer = &Tracer{}
	m.RotatePriority = rotate
	err := m.Run(Job{
		Name:  "demo",
		Cores: []int{0, 1, 2, 3},
		Phases: []Phase{
			{Name: "a", Work: func(p *Proc) { p.Tick(10 + 5*p.Lane) }},
			{Name: "b", Work: func(p *Proc) { p.Tick(20) }},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestTracerRecordsPhases(t *testing.T) {
	m := tracedRun(t, false)
	tr := m.Tracer
	if got, want := len(tr.Events), 8; got != want { // 4 cores x 2 phases
		t.Fatalf("events = %d, want %d", got, want)
	}
	for _, ev := range tr.Events {
		if ev.Start > ev.Arrive || ev.Arrive > ev.Release {
			t.Fatalf("unordered event %+v", ev)
		}
		if ev.Job != "demo" {
			t.Fatalf("job = %q", ev.Job)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.record(TraceEvent{}) // must not panic
	m := NewMachine(arch.MemPool())
	if err := m.Run(Job{Name: "x", Cores: []int{0}, Phases: []Phase{{Name: "p", Work: func(p *Proc) {}}}}); err != nil {
		t.Fatal(err)
	}
}

// TestRotatePriorityPreservesResults: rotating the replay order changes
// who wins bank-conflict ties but cannot change any computed value.
func TestRotatePriorityPreservesResults(t *testing.T) {
	run := func(rotate bool) []uint32 {
		m := NewMachine(arch.MemPool())
		m.RotatePriority = rotate
		base, err := m.Mem.AllocSeq(64)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 64; i++ {
			m.Mem.Write(base+arch.Addr(i), uint32(i*3+1))
		}
		out, err := m.Mem.AllocSeq(16)
		if err != nil {
			t.Fatal(err)
		}
		err = m.Run(Job{Name: "t", Cores: []int{0, 1, 2, 3}, Phases: []Phase{{
			Name: "p",
			Work: func(p *Proc) {
				acc := A{}
				for i := 0; i < 16; i++ {
					w := p.Load(base + arch.Addr(p.Lane*16+i))
					acc = p.Mac(acc, w, w)
				}
				p.Store(out+arch.Addr(p.Lane), p.Narrow(acc, 4))
			},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]uint32, 4)
		for i := range vals {
			vals[i] = m.Mem.Read(out + arch.Addr(i))
		}
		return vals
	}
	fixed := run(false)
	rotated := run(true)
	for i := range fixed {
		if fixed[i] != rotated[i] {
			t.Fatalf("arbitration changed a computed value at %d", i)
		}
	}
}

// TestTracerRecordsBarrierEvents: a ClusterBarrier on a traced machine
// records one "barrier/sync" event per core, with a shared release and
// the climb/wake cost breakdown.
func TestTracerRecordsBarrierEvents(t *testing.T) {
	m := NewMachine(arch.MemPool())
	m.Tracer = &Tracer{}
	err := m.Run(Job{Name: "j", Cores: []int{0, 1, 2, 3}, Phases: []Phase{
		{Name: "p", Work: func(p *Proc) { p.Tick(10 + 5*p.Lane) }},
	}})
	if err != nil {
		t.Fatal(err)
	}
	before := len(m.Tracer.Events)
	m.ClusterBarrier()
	evs := m.Tracer.Events[before:]
	if len(evs) != m.Cfg.NumCores() {
		t.Fatalf("barrier recorded %d events, want one per core (%d)", len(evs), m.Cfg.NumCores())
	}
	release := evs[0].Release
	for i, ev := range evs {
		if ev.Job != "barrier" || ev.Phase != "sync" {
			t.Fatalf("event %d = %s/%s", i, ev.Job, ev.Phase)
		}
		if ev.Core != i {
			t.Fatalf("event %d core = %d, want %d (ascending order)", i, ev.Core, i)
		}
		if ev.Release != release {
			t.Fatalf("core %d released at %d, others at %d", ev.Core, ev.Release, release)
		}
		if ev.Arrive > ev.Release {
			t.Fatalf("core %d arrives after release: %+v", ev.Core, ev)
		}
		if ev.Climb <= 0 || ev.Wake <= 0 {
			t.Fatalf("core %d missing climb/wake breakdown: %+v", ev.Core, ev)
		}
		if ev.Release != m.CoreTime(ev.Core) {
			t.Fatalf("core %d time %d != release %d", ev.Core, m.CoreTime(ev.Core), ev.Release)
		}
	}
}

// TestTracerRecordsHandshake: a NotBefore hold on a traced machine
// records one "handshake" event per core that actually stalled.
func TestTracerRecordsHandshake(t *testing.T) {
	m := NewMachine(arch.MemPool())
	m.Tracer = &Tracer{}
	job := Job{Name: "j", Cores: []int{0, 1}, NotBefore: 500, Phases: []Phase{
		{Name: "p", Work: func(p *Proc) { p.Tick(1) }},
	}}
	if err := m.Run(job); err != nil {
		t.Fatal(err)
	}
	var hs []TraceEvent
	for _, ev := range m.Tracer.Events {
		if ev.Phase == "handshake" {
			hs = append(hs, ev)
		}
	}
	if len(hs) != 2 {
		t.Fatalf("recorded %d handshake events, want 2", len(hs))
	}
	for _, ev := range hs {
		if ev.Release != 500 || ev.Start != ev.Arrive {
			t.Fatalf("handshake %+v, want release 500 and Start == Arrive", ev)
		}
	}
	// Cores already past the hold stall zero cycles and record nothing.
	m2 := NewMachine(arch.MemPool())
	m2.Tracer = &Tracer{}
	job.NotBefore = 0
	if err := m2.Run(job); err != nil {
		t.Fatal(err)
	}
	for _, ev := range m2.Tracer.Events {
		if ev.Phase == "handshake" {
			t.Fatalf("unheld job recorded handshake %+v", ev)
		}
	}
}

// TestTracerPhaseEventsCarryCosts: multi-core phase releases expose the
// climb/wake split so span exporters can attribute release overhead.
func TestTracerPhaseEventsCarryCosts(t *testing.T) {
	m := tracedRun(t, false)
	for _, ev := range m.Tracer.Events {
		if ev.Climb <= 0 || ev.Wake <= 0 {
			t.Fatalf("phase event missing costs: %+v", ev)
		}
		if ev.Release-ev.Arrive < ev.Climb+ev.Wake {
			t.Fatalf("release interval smaller than its cost parts: %+v", ev)
		}
	}
}

// TestUntracedRunAllocsNothing pins the nil-tracer contract: the
// recording hooks must stay behind nil guards so an untraced Run costs
// zero allocations in steady state. The phase issues scalar Load and
// Store (one-word calls of the bulk access path) and ALU, MAC and divide
// ops, so the pin covers the interpreter, not only Tick.
func TestUntracedRunAllocsNothing(t *testing.T) {
	m := NewMachine(arch.MemPool())
	cores := []int{0, 1, 2, 3}
	job := Job{Name: "j", Cores: cores, NotBefore: 1, Phases: []Phase{
		{Name: "p", Kernel: "t/k", Work: func(p *Proc) {
			p.Tick(8)
			addr := arch.Addr(p.Lane)
			w := p.Load(addr)
			acc := p.Mac(A{}, w, p.CAdd(w, w))
			p.Store(addr, p.DivByRe(acc, p.SqrtRe(acc)))
		}},
	}}
	if err := m.Run(job); err != nil { // warm scratch buffers and icache sets
		t.Fatal(err)
	}
	m.ClusterBarrier()
	avg := testing.AllocsPerRun(50, func() {
		if err := m.Run(job); err != nil {
			t.Fatal(err)
		}
		m.ClusterBarrier()
	})
	if avg != 0 {
		t.Fatalf("untraced Run allocates %.1f objects/op, want 0", avg)
	}
}

// TestResetAndTrimAllocsNothing extends the zero-alloc contract to the
// machine-reuse path: once warmed, a full Run -> TrimReservations ->
// Reset cycle — including memory-touching work, barrier retirement and
// the epoch-based reservation/icache reset — performs no allocation, so
// campaign loops can reuse one Machine indefinitely. The single-core
// job is a serial baseline: every access books above its bank's
// frontier and the idle cores hold the retire horizon at 0, so its
// bookings live in the reservation's frontier log, whose storage must
// survive Reset.
func TestResetAndTrimAllocsNothing(t *testing.T) {
	parallel := Job{Name: "j", Cores: []int{0, 1, 2, 3, 4, 5, 6, 7}, Phases: []Phase{
		{Name: "p", Kernel: "t/k", Work: func(p *Proc) {
			base := arch.Addr(p.Lane * 64)
			var buf [16]W
			p.LoadSpan(base, buf[:])
			p.Tick(9000) // push clocks past the retire window so Trim fires
			p.StoreVec(base, 2, buf[:8])
		}},
	}}
	stream := func(p *Proc) {
		var buf [64]W
		for i := 0; i < 32; i++ { // two sweeps over all 1024 banks
			p.LoadSpan(arch.Addr(i*len(buf)), buf[:])
			p.StoreSpan(arch.Addr(4096+i*len(buf)), buf[:])
		}
	}
	serial := Job{Name: "s", Cores: []int{0}, Phases: []Phase{
		{Name: "a", Kernel: "t/a", Work: stream},
		{Name: "b", Kernel: "t/b", Work: func(p *Proc) { p.Tick(5000) }},
		{Name: "c", Kernel: "t/c", Work: stream},
	}}
	for _, job := range []Job{parallel, serial} {
		m := NewMachine(arch.MemPool())
		cycle := func() {
			if err := m.Run(job); err != nil {
				t.Fatal(err)
			}
			m.TrimReservations()
			m.Reset()
		}
		cycle() // warm scratch buffers, icache sets, reservation rings and log
		if avg := testing.AllocsPerRun(50, cycle); avg != 0 {
			t.Fatalf("job %s: Run+Trim+Reset allocates %.1f objects/op, want 0", job.Name, avg)
		}
	}
}
