package engine

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/tcdm"
)

// Phase is one barrier-delimited parallel section of a Job. Work runs on
// every core of the job; the engine inserts the barrier afterwards.
type Phase struct {
	// Name labels the phase in traces.
	Name string
	// Kernel keys the per-tile instruction-cache residency. Phases of a
	// loop that share code should share a Kernel so only the first
	// iteration pays the refill. Empty defaults to the job name + Name.
	Kernel string
	// Lines is the phase's instruction footprint in cache lines
	// (defaults to DefaultKernelLines).
	Lines int
	// FetchEvery is the average number of issued instructions between L0
	// fetch-buffer misses for this phase's loop body (0 defaults to
	// DefaultFetchEvery). Small bodies that fit the L0 buffer use large
	// values; sprawling bodies miss often.
	FetchEvery int
	// Work performs the phase's computation on one core.
	Work func(p *Proc)
}

// DefaultKernelLines is the instruction-cache footprint assumed for
// phases that do not declare one.
const DefaultKernelLines = 8

// DefaultFetchEvery is the assumed instruction distance between L0
// fetch misses when a phase does not declare one.
const DefaultFetchEvery = 8

// Job is a fork-join task: a fixed set of cores runs each Phase and
// synchronizes on a partial barrier between phases (and after the last).
// Single-core jobs skip barriers entirely, matching the serial baselines
// of the paper.
type Job struct {
	Name   string
	Cores  []int
	Phases []Phase
	// NotBefore is the earliest simulated cycle at which the job's cores
	// may start phase 0. Cores that are still earlier wait in WFI until
	// then — the producer→consumer handshake between core partitions of a
	// spatially pipelined chain (a consumer partition polls the producer
	// partition's done-flag before touching the shared buffer). Zero means
	// no constraint.
	NotBefore int64
}

// Machine is one simulated cluster instance.
type Machine struct {
	Cfg *arch.Config
	Mem *tcdm.Mem

	// DebugRaces enables the fork-join data-race detector: loads and
	// stores are checked against other cores' stores in the same phase.
	// Races panic, since they indicate a broken kernel decomposition.
	DebugRaces bool

	// Tracer, when non-nil, records per-core phase timings for the span
	// trace (see Tracer).
	Tracer *Tracer

	// RotatePriority approximates round-robin bank arbitration by
	// rotating the core replay order every phase (the default fixed
	// order gives strict core-ID priority; see docs/ARCHITECTURE.md,
	// "Bank arbitration").
	RotatePriority bool
	phaseCounter   int

	coreTime  []int64
	coreStats []Stats

	icache []tileICache
	// barrierRow[tile] holds the per-tile barrier counter words.
	barrierRow []tcdm.TileBlock

	raceWriters map[arch.Addr]int32

	// Host-side scratch reused across Run/Barrier calls so the hot path
	// allocates nothing per job, phase or core. A Machine executes one
	// Run at a time (the pool's mutex orders handoffs between
	// goroutines), and every scratch buffer is fully rewritten or
	// cleared before use, so reuse never leaks state between runs —
	// Reset-safe and race-detector clean by construction.
	runCores    []int   // sorted copy of the current job's core set
	tileCount   []int   // active cores per tile for the current job
	arrivals    []int64 // per-lane barrier arrival times
	starts      []int64 // per-lane phase start times
	lsuScratch  []int64 // backing array for the Proc LSU ring
	procScratch Proc    // the one Proc all phases execute on
	claim       []int32 // validateJobs: job index + 1 per core, 0 = free
	perTile     []int   // wakeCost: active cores per tile
	perGroup    []int   // wakeCost/climbCost: active tiles (or cores) per group
	groupTiles  []int   // wakeCost: whole tiles per group
	allCores    []int   // cached identity core list for Barrier(nil)
	barArrive   []int64 // Barrier arrival times
}

type tileICache struct {
	resident map[string]int // kernel -> lines
	order    []string       // LRU order, oldest first
	used     int
}

// NewMachine builds a machine and reserves the per-tile barrier counter
// row. It panics if cfg is invalid: constructing a broken machine is a
// programming error, not a runtime condition.
func NewMachine(cfg *arch.Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("engine: NewMachine: %v", err))
	}
	m := &Machine{
		Cfg:        cfg,
		Mem:        tcdm.NewMem(cfg),
		coreTime:   make([]int64, cfg.NumCores()),
		coreStats:  make([]Stats, cfg.NumCores()),
		icache:     make([]tileICache, cfg.NumTiles()),
		barrierRow: make([]tcdm.TileBlock, cfg.NumTiles()),

		runCores:   make([]int, 0, cfg.NumCores()),
		tileCount:  make([]int, cfg.NumTiles()),
		arrivals:   make([]int64, cfg.NumCores()),
		starts:     make([]int64, cfg.NumCores()),
		lsuScratch: make([]int64, cfg.LSUDepth),
		claim:      make([]int32, cfg.NumCores()),
		perTile:    make([]int, cfg.NumTiles()),
		perGroup:   make([]int, cfg.Groups),
		groupTiles: make([]int, cfg.Groups),
		allCores:   make([]int, cfg.NumCores()),
		barArrive:  make([]int64, cfg.NumCores()),
	}
	m.reserveBarrierRows()
	// The one scratch Proc's cluster invariants, set once; Run reassigns
	// the per-phase fields without re-zeroing the struct.
	m.procScratch.m = m
	m.procScratch.lsu = m.lsuScratch
	m.procScratch.nb = cfg.NumBanks()
	if nb := m.procScratch.nb; nb&(nb-1) == 0 {
		m.procScratch.nbMask = nb - 1
	}
	m.procScratch.latReq = cfg.Lat.Req
	m.procScratch.latResp = cfg.Lat.Resp
	for t := range m.icache {
		m.icache[t].resident = make(map[string]int)
	}
	for i := range m.allCores {
		m.allCores[i] = i
	}
	m.raceWriters = make(map[arch.Addr]int32)
	return m
}

// reserveBarrierRows claims the per-tile barrier counter row, the first
// allocation of a fresh (or freshly Reset) arena.
func (m *Machine) reserveBarrierRows() {
	for t := 0; t < m.Cfg.NumTiles(); t++ {
		blk, err := m.Mem.AllocTileLocal(t, 1)
		if err != nil {
			panic(fmt.Sprintf("engine: barrier row allocation: %v", err))
		}
		m.barrierRow[t] = blk
	}
}

// Reset returns the machine to its just-constructed state — clocks,
// counters, instruction caches, race-detector state and the TCDM arenas
// (including stored words) are all cleared and the barrier rows
// re-reserved — so one Machine (and its multi-MiB memory arena) can be
// reused across independent runs instead of reallocated. A reused
// machine reproduces a fresh machine's timing and results exactly.
//
// An attached Tracer is not detached, but its recorded events are
// dropped so a new run starts with an empty timeline.
func (m *Machine) Reset() {
	m.Mem.Reset()
	m.reserveBarrierRows()
	clear(m.coreTime)
	for i := range m.coreStats {
		m.coreStats[i] = Stats{}
	}
	for t := range m.icache {
		ic := &m.icache[t]
		clear(ic.resident)
		ic.order = ic.order[:0]
		ic.used = 0
	}
	m.phaseCounter = 0
	clear(m.raceWriters)
	if m.Tracer != nil {
		m.Tracer.Reset()
	}
}

// CoreTime returns the current cycle of one core.
func (m *Machine) CoreTime(core int) int64 { return m.coreTime[core] }

// Cycles returns the maximum cycle across all cores: the wall clock of
// the simulation so far.
func (m *Machine) Cycles() int64 {
	var max int64
	for _, t := range m.coreTime {
		if t > max {
			max = t
		}
	}
	return max
}

// CoreStats returns a copy of one core's counters.
func (m *Machine) CoreStats(core int) Stats { return m.coreStats[core] }

// TotalStats returns the sum of all cores' counters.
func (m *Machine) TotalStats() Stats {
	var s Stats
	for i := range m.coreStats {
		s.Add(m.coreStats[i])
	}
	return s
}

func (m *Machine) raceCheckRead(core int, addr arch.Addr) {
	if w, ok := m.raceWriters[addr]; ok && int(w) != core {
		panic(fmt.Sprintf("engine: data race: core %d reads %d written by core %d in the same phase", core, addr, w))
	}
}

func (m *Machine) raceCheckWrite(core int, addr arch.Addr) {
	if w, ok := m.raceWriters[addr]; ok && int(w) != core {
		panic(fmt.Sprintf("engine: data race: cores %d and %d both write %d in the same phase", w, core, addr))
	}
	m.raceWriters[addr] = int32(core)
}

// icacheCost returns the refill stall for a core of the given tile
// entering a phase, updating residency. Only the first core of a tile to
// execute a kernel pays the refill; the shared cache then serves the rest.
func (m *Machine) icacheCost(tile int, kernel string, lines int) int64 {
	ic := &m.icache[tile]
	if _, ok := ic.resident[kernel]; ok {
		return 0
	}
	cap := m.Cfg.ICache.LinesPerTile
	if lines > cap {
		lines = cap // a kernel larger than the cache thrashes; model as full refill
	}
	for ic.used+lines > cap && len(ic.order) > 0 {
		victim := ic.order[0]
		ic.order = ic.order[1:]
		ic.used -= ic.resident[victim]
		delete(ic.resident, victim)
	}
	ic.resident[kernel] = lines
	ic.order = append(ic.order, kernel)
	ic.used += lines
	return int64(lines) * m.Cfg.ICache.RefillLatency
}

// icacheKey returns the instruction-cache residency key and footprint of
// one phase, applying the Kernel and Lines defaults. Run and the warm-up
// replay of RunWarm both take them from here, so the two cannot drift.
func icacheKey(job *Job, ph *Phase) (kernel string, lines int) {
	kernel = ph.Kernel
	if kernel == "" {
		kernel = job.Name + "/" + ph.Name
	}
	lines = ph.Lines
	if lines == 0 {
		lines = DefaultKernelLines
	}
	return kernel, lines
}

// validateJobs checks that jobs use disjoint, in-range core sets.
func (m *Machine) validateJobs(jobs []Job) error {
	clear(m.claim)
	for ji := range jobs {
		j := &jobs[ji]
		if len(j.Cores) == 0 {
			return fmt.Errorf("engine: job %q has no cores", j.Name)
		}
		for _, c := range j.Cores {
			if c < 0 || c >= m.Cfg.NumCores() {
				return fmt.Errorf("engine: job %q: core %d out of range [0,%d)", j.Name, c, m.Cfg.NumCores())
			}
			if prev := m.claim[c]; prev != 0 {
				return fmt.Errorf("engine: core %d claimed by both job %q and job %q", c, jobs[prev-1].Name, j.Name)
			}
			m.claim[c] = int32(ji + 1)
		}
	}
	return nil
}

// wakeCost returns the cycles the last core spends triggering wake-up
// CSRs for the job's core set, choosing the cheapest covering trigger
// (Section IV of the paper).
func (m *Machine) wakeCost(cores []int) int64 {
	cfg := m.Cfg
	if len(cores) == cfg.NumCores() {
		return cfg.Wake.Cluster
	}
	// Whole-tile coverage?
	perTile := m.perTile
	perGroup := m.perGroup
	clear(perTile)
	clear(perGroup)
	groups := 0
	for _, c := range cores {
		perTile[cfg.TileOfCore(c)]++
		if g := cfg.GroupOfCore(c); perGroup[g] == 0 {
			perGroup[g] = 1
			groups++
		}
	}
	wholeTiles := true
	for _, n := range perTile {
		if n != 0 && n != cfg.CoresPerTile {
			wholeTiles = false
			break
		}
	}
	if wholeTiles {
		tilesPerGroup := m.groupTiles
		clear(tilesPerGroup)
		for t, n := range perTile {
			if n != 0 {
				tilesPerGroup[t/cfg.TilesPerGroup]++
			}
		}
		wholeGroups := true
		for _, n := range tilesPerGroup {
			if n != 0 && n != cfg.TilesPerGroup {
				wholeGroups = false
				break
			}
		}
		if wholeGroups {
			// One masked write to the group wake-up CSR.
			return cfg.Wake.Group
		}
		// One masked write per group holding participating tiles.
		return cfg.Wake.Tile * int64(groups)
	}
	// Ragged subset: individual wake-up writes.
	return cfg.Wake.Core * int64(len(cores))
}

// climbCost models the hierarchical barrier climb after the last local
// arrival: the last core of each tile propagates to a group counter, the
// last group to the cluster counter. The cost grows with the span of the
// job's core set.
func (m *Machine) climbCost(cores []int) int64 {
	cfg := m.Cfg
	if len(cores) == 0 {
		return 2 + cfg.Lat.Total(arch.LevelGroup) + cfg.Lat.Total(arch.LevelRemote)
	}
	firstTile, firstGroup := cfg.TileOfCore(cores[0]), cfg.GroupOfCore(cores[0])
	oneTile, oneGroup := true, true
	for _, c := range cores[1:] {
		if cfg.TileOfCore(c) != firstTile {
			oneTile = false
		}
		if cfg.GroupOfCore(c) != firstGroup {
			oneGroup = false
			break
		}
	}
	switch {
	case oneTile:
		return 2 // tile counter only
	case oneGroup:
		return 2 + cfg.Lat.Total(arch.LevelGroup) // tile then group counter
	default:
		return 2 + cfg.Lat.Total(arch.LevelGroup) + cfg.Lat.Total(arch.LevelRemote)
	}
}

// Run executes a set of jobs with disjoint core sets concurrently,
// advancing each participating core's clock and statistics. It returns
// an error for structurally invalid job sets.
func (m *Machine) Run(jobs ...Job) error {
	if err := m.validateJobs(jobs); err != nil {
		return err
	}
	// Per-cluster invariants of the flattened Proc access path.
	ports := int64(m.Cfg.ICache.FetchPorts)
	bpt := m.Cfg.BanksPerTile()
	bpg := bpt * m.Cfg.TilesPerGroup
	for ji := range jobs {
		job := &jobs[ji]
		cores := append(m.runCores[:0], job.Cores...)
		sort.Ints(cores)
		m.runCores = cores
		// Cores of one tile active in a phase contend for the shared I$
		// on L0 misses; the per-tile census is fixed for the whole job.
		clear(m.tileCount)
		for _, core := range cores {
			m.tileCount[m.Cfg.TileOfCore(core)]++
		}
		if job.NotBefore > 0 {
			for _, core := range cores {
				if m.coreTime[core] < job.NotBefore {
					m.coreStats[core].WfiStalls += job.NotBefore - m.coreTime[core]
					if m.Tracer != nil {
						// The producer→consumer handshake wait, as a phase
						// with no work: Arrive == Start, release at NotBefore.
						m.Tracer.record(TraceEvent{
							Job: job.Name, Phase: "handshake", Core: core,
							Start: m.coreTime[core], Arrive: m.coreTime[core], Release: job.NotBefore,
						})
					}
					m.coreTime[core] = job.NotBefore
				}
			}
		}
		barSlot := ji % m.Cfg.BanksPerTile()
		for pi := range job.Phases {
			ph := &job.Phases[pi]
			kernel, lines := icacheKey(job, ph)
			fetchEvery := ph.FetchEvery
			if fetchEvery == 0 {
				fetchEvery = DefaultFetchEvery
			}
			if m.DebugRaces {
				clear(m.raceWriters)
			}
			arrivals := m.arrivals[:len(cores)]
			starts := m.starts[:len(cores)]
			var last int64
			m.phaseCounter++
			rot := 0
			if m.RotatePriority {
				rot = m.phaseCounter % len(cores)
			}
			for idx := range cores {
				li := (idx + rot) % len(cores)
				core := cores[li]
				tile := m.Cfg.TileOfCore(core)
				active := int64(m.tileCount[tile])
				// Miss cost in eighths of a cycle: a lone core's
				// sequential prefetch hides L0 misses entirely; with
				// more cores sharing the tile cache the service cost
				// grows as (ports+active)/(2*ports).
				taxNum := (ports + active) * 4 / ports
				if active == 1 {
					taxNum = 0
				}
				// One reusable Proc: every per-phase field is reassigned
				// here (the cluster invariants m/lsu/nb/lat* are set once
				// in NewMachine), and the recycled LSU ring starts empty
				// (lsuLen 0), so stale completion times are never read.
				p := &m.procScratch
				grp := m.Cfg.GroupOfCore(core)
				p.Core = core
				p.Lane = li
				p.Lanes = len(cores)
				p.now = m.coreTime[core]
				p.st = &m.coreStats[core]
				p.lsuHead, p.lsuLen = 0, 0
				p.divFree = 0
				p.taxNum = taxNum
				p.taxDen = 8 * int64(fetchEvery)
				p.taxAcc = 0
				p.tLo = tile * bpt
				p.tHi = tile*bpt + bpt
				p.gLo = grp * bpg
				p.gHi = grp*bpg + bpg
				if c := m.icacheCost(tile, kernel, lines); c > 0 {
					p.st.ICacheStalls += c
					p.now += c
				}
				starts[li] = p.now
				ph.Work(p)
				p.Drain()
				if len(cores) > 1 {
					// Barrier entry (Section IV): every core atomically
					// increments the job's central barrier variable and
					// goes to WFI. The increments serialize through the
					// counter's bank, which is the dominant barrier cost
					// at large core counts.
					p.Tick(2)
					cnt := m.barrierRow[m.Cfg.TileOfCore(cores[0])].Addr(barSlot, 0)
					w := p.AmoAdd(cnt)
					p.waitBarrier(w)
					p.Tick(1)
				}
				arrivals[li] = p.now
				if p.now > last {
					last = p.now
				}
				m.coreTime[core] = p.now
			}
			if len(cores) > 1 {
				climb, wake := m.climbCost(cores), m.wakeCost(cores)
				release := last + climb + wake
				for li, core := range cores {
					m.coreStats[core].WfiStalls += release - arrivals[li]
					m.coreTime[core] = release
				}
				// Reset the barrier counter for reuse.
				m.Mem.Write(m.barrierRow[m.Cfg.TileOfCore(cores[0])].Addr(barSlot, 0), 0)
				if m.Tracer != nil {
					for li, core := range cores {
						m.Tracer.record(TraceEvent{
							Job: job.Name, Phase: ph.Name, Core: core,
							Start: starts[li], Arrive: arrivals[li], Release: release,
							Climb: climb, Wake: wake,
						})
					}
				}
			} else if m.Tracer != nil {
				m.Tracer.record(TraceEvent{
					Job: job.Name, Phase: ph.Name, Core: cores[0],
					Start: starts[0], Arrive: arrivals[0], Release: arrivals[0],
				})
			}
		}
	}
	return nil
}

// RunWarm measures jobs warm: it returns the report over cores (nil
// means every core) that Run(jobs...), ClusterBarrier, then a timed
// Run(jobs...) would give, but simulates the jobs once. It aligns every
// core with a cluster barrier, applies the instruction-cache residency
// and RotatePriority phase-counter advance the cold pass would leave,
// then runs and reports the timed pass.
//
// The replay is exact when no phase's instruction stream depends on
// loaded values and no job waits on NotBefore (see docs/ARCHITECTURE.md,
// "Warm-pass replay"). The skipped cold pass records no Tracer events
// and writes no memory.
func (m *Machine) RunWarm(name string, cores []int, jobs ...Job) (Report, error) {
	if err := m.validateJobs(jobs); err != nil {
		return Report{}, err
	}
	for ji := range jobs {
		if jobs[ji].NotBefore > 0 {
			return Report{}, fmt.Errorf("engine: RunWarm: job %q waits on NotBefore", jobs[ji].Name)
		}
	}
	m.ClusterBarrier()
	// The cold pass's effect on the timed one: Run's icacheCost calls in
	// its job and phase order. Every call of one phase names the same
	// kernel, so the core order inside a phase cannot matter.
	for ji := range jobs {
		job := &jobs[ji]
		for pi := range job.Phases {
			kernel, lines := icacheKey(job, &job.Phases[pi])
			m.phaseCounter++
			for _, core := range job.Cores {
				m.icacheCost(m.Cfg.TileOfCore(core), kernel, lines)
			}
		}
	}
	mark := m.Mark()
	if err := m.Run(jobs...); err != nil {
		return Report{}, err
	}
	return m.ReportSince(mark, name, cores), nil
}

// ClusterBarrier synchronizes every core in the cluster to a common
// release time, attributing the wait as WFI stalls. The PUSCH chain's
// sequential layout calls it between processing stages. It also retires
// old bank reservations, bounding simulator memory.
func (m *Machine) ClusterBarrier() { m.Barrier(nil) }

// Barrier synchronizes a core partition (nil means every core) to a
// common release time without involving the rest of the cluster: the
// per-partition barrier of the spatially pipelined chain, where each
// stage's partition syncs on its own counter while the other partitions
// keep running. Costs mirror ClusterBarrier — a 3-instruction entry
// sequence per core, then the hierarchical climb and the cheapest wake
// trigger covering the partition.
func (m *Machine) Barrier(cores []int) {
	if cores == nil {
		cores = m.allCores
	}
	var last int64
	if len(cores) > len(m.barArrive) {
		m.barArrive = make([]int64, len(cores))
	}
	arrive := m.barArrive[:len(cores)]
	for i, c := range cores {
		// Entry sequence: increment + branch + wfi.
		m.coreStats[c].Instrs += 3
		m.coreStats[c].IAlu += 3
		arrive[i] = m.coreTime[c] + 3
		if arrive[i] > last {
			last = arrive[i]
		}
	}
	climb, wake := m.climbCost(cores), m.wakeCost(cores)
	release := last + climb + wake
	for i, c := range cores {
		m.coreStats[c].WfiStalls += release - arrive[i]
		m.coreTime[c] = release
	}
	if m.Tracer != nil {
		for i, c := range cores {
			m.Tracer.record(TraceEvent{
				Job: "barrier", Phase: "sync", Core: c,
				Start: arrive[i] - 3, Arrive: arrive[i], Release: release,
				Climb: climb, Wake: wake,
			})
		}
	}
	m.TrimReservations()
}

// TrimReservations retires bank-reservation pages no core can book
// again: pages older than the slowest core anywhere in the cluster
// (minus a page-sized safety window), since per-core clocks only move
// forward. Cluster-wide barriers call it implicitly; the pipelined
// chain executor, which never runs one, calls it once per beat to
// bound simulator memory over long runs. For a cluster-wide barrier
// the minimum is the release time itself, preserving the original
// retire behaviour.
func (m *Machine) TrimReservations() {
	low := m.coreTime[0]
	for _, t := range m.coreTime {
		if t < low {
			low = t
		}
	}
	if low > 1<<13 {
		m.Mem.Res.Retire(low - 1<<13)
	}
}

// MaxTime returns the maximum current cycle across the given cores (nil
// means every core): the finish time of whatever a partition last ran.
// The pipelined chain executor reads it to schedule the NotBefore
// handshake of downstream partitions.
func (m *Machine) MaxTime(cores []int) int64 {
	if cores == nil {
		return m.Cycles()
	}
	var max int64
	for _, c := range cores {
		if m.coreTime[c] > max {
			max = m.coreTime[c]
		}
	}
	return max
}

// AlignCores fast-forwards every core to the cluster-wide maximum time
// without charging any stall: a host-level convenience used between
// independent experiments, not part of the modeled program.
func (m *Machine) AlignCores() {
	max := m.Cycles()
	for c := range m.coreTime {
		m.coreTime[c] = max
	}
}
