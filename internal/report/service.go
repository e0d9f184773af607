package report

import "repro/internal/engine"

// JobRecord is the service-level form of one served slot job: the slot's
// SlotRecord (inlined, so a JobRecord JSON line is also a valid
// SlotRecord line) plus the scheduling coordinates the slot-traffic
// scheduler assigned it. All times are simulated cycles at the nominal
// 1 GHz clock, on the same axis as the slot's own cycle counts.
// AppendJSON writes its fields by hand: a field added here, in
// SlotRecord or in SlotPhase goes there too, and one added to
// SlotRecord or SlotPhase also goes to SlotRecord.same, SlotMemo's
// equality.
type JobRecord struct {
	// Job is the job's index in arrival order; Name is the trace's label
	// for it (generator name, campaign scenario, or the spec's name).
	Job  int    `json:"job"`
	Name string `json:"name,omitempty"`

	// Cell is the fleet cell that served the job. Single-cell runs and
	// cell 0 omit it, keeping the pre-fleet wire bytes.
	Cell int `json:"cell,omitempty"`

	SlotRecord

	// ArrivalCycle is when the slot entered the system, StartCycle when a
	// server began processing it, FinishCycle when processing completed.
	ArrivalCycle int64 `json:"arrival_cycle"`
	StartCycle   int64 `json:"start_cycle"`
	FinishCycle  int64 `json:"finish_cycle"`
	// WaitCycles = StartCycle - ArrivalCycle (queue wait);
	// LatencyCycles = FinishCycle - ArrivalCycle (sojourn time).
	WaitCycles    int64 `json:"wait_cycles"`
	LatencyCycles int64 `json:"latency_cycles"`
}

// AppendJSON appends r's JSON line to dst and reports true: byte for
// byte what json.NewEncoder(w).Encode(r) writes, trailing newline
// included, without reflection. Where encoding/json would escape a
// string byte or refuse a non-finite float, it appends nothing and
// returns dst and false, and the caller encodes r with encoding/json.
// TestJobRecordWireCoversEveryField and FuzzJobRecordWire hold the two
// encoders equal.
func (r *JobRecord) AppendJSON(dst []byte) ([]byte, bool) {
	return r.appendJSON(dst, nil)
}

// appendJSON is AppendJSON, taking the SlotRecord's members from m when
// m is not nil.
func (r *JobRecord) appendJSON(dst []byte, m *SlotMemo) ([]byte, bool) {
	l := jsonLine{b: dst, ok: true}
	l.int(`{"job":`, int64(r.Job))
	l.optStr(`,"name":`, r.Name)
	l.optInt(`,"cell":`, int64(r.Cell))
	if m != nil {
		m.appendSlot(&l, &r.SlotRecord)
	} else {
		r.SlotRecord.appendJSON(&l)
	}
	l.int(`,"arrival_cycle":`, r.ArrivalCycle)
	l.int(`,"start_cycle":`, r.StartCycle)
	l.int(`,"finish_cycle":`, r.FinishCycle)
	l.int(`,"wait_cycles":`, r.WaitCycles)
	l.int(`,"latency_cycles":`, r.LatencyCycles)
	if !l.ok {
		return dst, false
	}
	return append(l.b, "}\n"...), true
}

// ServiceSummary aggregates one scheduler run: the offered-versus-served
// traffic picture of a continuously loaded basestation, the queueing
// behaviour, and the server occupancy. Emitted as the final JSONL line
// of a service run, tagged Kind "summary" so stream consumers can
// separate it from the per-job records.
type ServiceSummary struct {
	// Kind is "summary" for a standalone scheduler run and
	// "cell-summary" for one cell's slice of a fleet run.
	Kind string `json:"kind"`

	// Cell is the summary's cell index inside a fleet; Name echoes the
	// cell's label. Standalone summaries (and cell 0 of a fleet) omit
	// Cell, keeping the pre-fleet wire bytes.
	Cell int    `json:"cell,omitempty"`
	Name string `json:"name,omitempty"`

	// Timing is "analytic" when every served record in the run was
	// produced by the calibrated cycle model rather than the engine
	// (omitted for cycle-accurate and mixed runs, keeping the
	// pre-analytic wire bytes). Consumers use it to keep analytic
	// service summaries out of cycle-accurate baselines.
	Timing string `json:"timing,omitempty"`

	// Offered traffic: every job in the trace, including dropped and
	// failed ones.
	Jobs int `json:"jobs"`
	// Served completed processing; Dropped found the bounded queue full
	// on arrival; Failed were rejected at dispatch (invalid
	// configuration) and never held a server.
	Served  int `json:"served"`
	Dropped int `json:"dropped"`
	Failed  int `json:"failed,omitempty"`

	// Servers and QueueDepth restate the service discipline the summary
	// was produced under.
	Servers    int `json:"servers"`
	QueueDepth int `json:"queue_depth"`

	// HorizonCycles spans the first arrival to the last completion (or
	// last arrival when nothing was served); HorizonMs is the same at the
	// nominal 1 GHz clock.
	HorizonCycles int64   `json:"horizon_cycles"`
	HorizonMs     float64 `json:"horizon_ms"`

	// OfferedBits is the payload of every arriving job; ServedBits of the
	// completed ones. The Gb/s figures divide by the horizon: served
	// throughput is the headline rate the service sustained.
	OfferedBits int64   `json:"offered_bits"`
	ServedBits  int64   `json:"served_bits"`
	OfferedGbps float64 `json:"offered_gbps"`
	ServedGbps  float64 `json:"served_gbps"`

	// Queue-wait and sojourn statistics over served jobs.
	MeanWaitCycles    float64 `json:"mean_wait_cycles"`
	MaxWaitCycles     int64   `json:"max_wait_cycles"`
	MeanLatencyCycles float64 `json:"mean_latency_cycles"`
	MaxLatencyCycles  int64   `json:"max_latency_cycles"`

	// Exact nearest-rank percentiles of the same distributions, over
	// served jobs. Computed from the full order statistics (not histogram
	// buckets), so they are deterministic and interpolation-free.
	WaitP50Cycles    int64 `json:"wait_p50_cycles"`
	WaitP95Cycles    int64 `json:"wait_p95_cycles"`
	WaitP99Cycles    int64 `json:"wait_p99_cycles"`
	LatencyP50Cycles int64 `json:"latency_p50_cycles"`
	LatencyP95Cycles int64 `json:"latency_p95_cycles"`
	LatencyP99Cycles int64 `json:"latency_p99_cycles"`

	// Utilization is busy server-cycles over Servers * HorizonCycles;
	// DropRate is Dropped / Jobs.
	Utilization float64 `json:"utilization"`
	DropRate    float64 `json:"drop_rate"`

	// Pool is the simulator-machine occupancy behind the run: how many
	// cluster arenas the host built, reused and held at peak. It is a
	// host-side diagnostic — it varies with the measurement worker count
	// — so deterministic JSONL streams omit it (the scheduler's
	// WriteJSONL strips it; Serve still returns it for display).
	Pool *engine.PoolStats `json:"pool,omitempty"`

	// Host is the host-side performance picture of the run: wall-clock
	// slots/sec and the service-time cache traffic. Like Pool it varies
	// run to run (it measures the host, not the simulated system), so
	// deterministic JSONL streams omit it; Serve returns it for display
	// and benchgate embeds it in the BENCH artifact.
	Host *HostStats `json:"host,omitempty"`
}

// HostStats is the host-side cost of serving one trace: how fast the
// host machine chewed through the slots (as opposed to the simulated
// Gb/s the slots carry) and how much of that speed the service-time
// cache bought. All fields describe the measurement phase's wall
// clock, never simulated time, so they are excluded from every
// byte-deterministic stream.
type HostStats struct {
	// WallSeconds is the wall-clock duration of the whole Serve call;
	// SlotsPerSec is jobs over that duration — the host throughput
	// headline the ROADMAP's million-slot campaigns are priced in.
	WallSeconds float64 `json:"wall_seconds"`
	SlotsPerSec float64 `json:"host_slots_per_sec"`

	// Cache traffic attributed to this run (the cache may be shared
	// across runs; these count only this run's lookups). All zero when
	// no cache was configured.
	CacheHits    int64   `json:"cache_hits"`
	CacheMisses  int64   `json:"cache_misses"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}
