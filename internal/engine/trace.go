package engine

// TraceEvent records one barrier-delimited phase execution on one core:
// when the core started working, when it arrived at the barrier, and
// when the barrier released it. Single-core jobs have Arrive == Release.
type TraceEvent struct {
	Job     string
	Phase   string
	Core    int
	Start   int64 // work begins (after any instruction-cache refill)
	Arrive  int64 // work done, barrier entered
	Release int64 // barrier released
	Climb   int64 // hierarchical barrier-climb cost inside the release
	Wake    int64 // wake-up trigger cost inside the release
}

// Tracer collects TraceEvents when attached to a Machine. A nil tracer
// (the default) costs nothing. obs.AppendMachineSpans renders the
// events as the virtual-time span trace.
type Tracer struct {
	Events []TraceEvent
}

// record appends one event.
func (t *Tracer) record(ev TraceEvent) {
	if t == nil {
		return
	}
	t.Events = append(t.Events, ev)
}

// Reset drops all recorded events, keeping the tracer attached.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.Events = t.Events[:0]
}
