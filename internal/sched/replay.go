package sched

import "repro/internal/report"

// measured is one (serving class, job) measurement outcome.
type measured struct {
	rec report.SlotRecord
	err error
}

// server is one server of a cell that has taken a job: the cycle it
// frees at and its index.
type server struct {
	free int64
	idx  int
}

// less orders servers by free cycle, lowest index on ties.
func (a server) less(b server) bool {
	return a.free < b.free || a.free == b.free && a.idx < b.idx
}

// finish is the finish cycle of a running job.
type finish int64

func (a finish) less(b finish) bool { return a < b }

// minHeap is a binary min-heap. It is kept by hand rather than through
// container/heap, whose any-typed Push and Pop allocate on every call.
type minHeap[T interface{ less(T) bool }] []T

func (h *minHeap[T]) push(v T) {
	*h = append(*h, v)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].less(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes the minimum.
func (h *minHeap[T]) pop() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	*h = s[:n]
	h.down()
}

// down restores the heap after the minimum grew.
func (h *minHeap[T]) down() {
	s := *h
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(s) {
			return
		}
		if r := m + 1; r < len(s) && s[r].less(s[m]) {
			m = r
		}
		if !s[m].less(s[i]) {
			return
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}

// ring is a FIFO over a power-of-two circular buffer that doubles when
// full.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			buf[i] = *q.at(i)
		}
		q.buf, q.head = buf, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// at returns the i-th oldest element.
func (q *ring[T]) at(i int) *T { return &q.buf[(q.head+i)&(len(q.buf)-1)] }

// pop drops the oldest element.
func (q *ring[T]) pop() {
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

// cellState is one cell's replay state.
type cellState struct {
	class, servers, queueCap int
	// free holds the servers that have taken a job, by (free cycle,
	// index). Servers are created in index order on first use, so the
	// unused ones are all free at cycle 0 and only the lowest of them,
	// index len(free), can be picked: a serve creates at most one server
	// per job, however large servers is.
	free minHeap[server]
	// busy holds a finish cycle per job started so far and still running
	// at the current arrival: one per busy server.
	busy  minHeap[finish]
	queue ring[int] // waiting jobs, arrival-order positions
}

// earliest returns the server that frees first, lowest index on ties.
func (st *cellState) earliest() server {
	if n := len(st.free); n < st.servers && (n == 0 || st.free[0].free > 0) {
		return server{idx: n}
	}
	return st.free[0]
}

// settle drops the finish cycles at or before cycle at, once no job can
// start before it any more.
func (st *cellState) settle(at int64) {
	for len(st.busy) > 0 && int64(st.busy[0]) <= at {
		st.busy.pop()
	}
}

// Replay is the virtual-time state of a serve in progress, read by a
// Route through Backlog and Failed.
type Replay struct {
	cells []cellState
	// meas holds the current window's measurements, indexed
	// [class][position - lo].
	meas [][]measured
	lo   int
	// pending holds the results of the positions from emitted, the
	// oldest not yet emitted, through the newest arrival. A queued job's
	// result carries its measured record, so the window's table can be
	// reused before the job starts.
	pending ring[JobResult]
	emitted int
	tallies []tally // per cell, over the emitted results
}

// newMeasurements returns room for one window of measurements under
// each of classes serving classes.
func newMeasurements(classes, window int) [][]measured {
	meas := make([][]measured, classes)
	for cls := range meas {
		meas[cls] = make([]measured, window)
	}
	return meas
}

// newReplay returns the replay of cells with room for one window of
// measurements under each of classes serving classes.
func newReplay(cells []Queue, classes, window int) *Replay {
	r := &Replay{cells: make([]cellState, len(cells)), meas: newMeasurements(classes, window), tallies: make([]tally, len(cells))}
	for c, q := range cells {
		st := &r.cells[c]
		st.class, st.servers, st.queueCap = q.Class, max(q.Servers, 1), q.QueueDepth
		switch {
		case q.QueueDepth == 0:
			st.queueCap = DefaultQueueDepth
		case q.QueueDepth < 0:
			st.queueCap = 0
		}
	}
	return r
}

// Backlog is cell c's load at the current arrival: its queued jobs plus
// its servers still busy then.
func (r *Replay) Backlog(c int) int {
	st := &r.cells[c]
	return st.queue.n + len(st.busy)
}

// Failed reports whether cell c's serving class failed to measure the
// job at arrival-order position pos, which must be in the current
// window.
func (r *Replay) Failed(c, pos int) bool {
	return r.meas[r.cells[c].class][pos-r.lo].err != nil
}

// result returns the pending result of the job at position pos.
func (r *Replay) result(pos int) *JobResult { return r.pending.at(pos - r.emitted) }

// arrive replays the arrival of job at position pos: every cell
// completes its work up to the arrival, route picks a cell, and the
// cell admits the job under a G/D/c/K discipline — earliest free server
// (lowest index on ties), FIFO bounded queue, drop on overflow.
func (r *Replay) arrive(pos int, job *Job, route Route) {
	r.pending.push(JobResult{Job: pos, Name: job.Name, Arrival: job.Arrival})
	// Completions are global events in virtual time: every cell drains
	// first, so the route sees the true backlog.
	for c := range r.cells {
		r.drain(c, job.Arrival, false)
		r.cells[c].settle(job.Arrival)
	}
	c := 0
	if route != nil {
		c = route(r, pos, job)
	}
	res := r.result(pos)
	res.Cell = c
	st := &r.cells[c]
	m := &r.meas[st.class][pos-r.lo]
	if m.err != nil {
		res.Outcome = Failed
		res.Error = m.err.Error()
		return
	}
	res.ServiceCycles = m.rec.TotalCycles
	res.OfferedBits = m.rec.PayloadBits
	if srv := st.earliest(); st.queue.n == 0 && srv.free <= job.Arrival {
		res.Record.SlotRecord = m.rec
		r.start(c, pos, srv, job.Arrival)
	} else if st.queue.n < st.queueCap {
		res.Record.SlotRecord = m.rec
		st.queue.push(pos)
	} else {
		res.Outcome = Dropped
	}
	res.QueueDepth = st.queue.n
}

// start runs job pos on cell c's server srv from cycle at.
func (r *Replay) start(c, pos int, srv server, at int64) {
	st := &r.cells[c]
	res := r.result(pos)
	end := at + res.ServiceCycles
	if srv.idx == len(st.free) {
		st.free.push(server{free: end, idx: srv.idx})
	} else {
		st.free[0].free = end
		st.free.down()
	}
	st.busy.push(finish(end))
	res.Outcome = Served
	rec := &res.Record
	rec.Job, rec.Name, rec.Cell = pos, res.Name, c
	rec.ArrivalCycle, rec.StartCycle, rec.FinishCycle = res.Arrival, at, end
	rec.WaitCycles, rec.LatencyCycles = at-res.Arrival, end-res.Arrival
}

// drain starts cell c's queued jobs as its servers free: those whose
// server frees by cycle until, or every one of them when final is set.
func (r *Replay) drain(c int, until int64, final bool) {
	st := &r.cells[c]
	for st.queue.n > 0 {
		srv := st.earliest()
		if !final && srv.free > until {
			return
		}
		r.start(c, *st.queue.at(0), srv, srv.free)
		st.queue.pop()
	}
}

// flush emits, in arrival order, every pending result whose every
// predecessor has been emitted and that is final — started, dropped or
// failed — folding each into its cell's tally first.
func (r *Replay) flush(emit func(*JobResult) error) error {
	for r.pending.n > 0 {
		res := r.pending.at(0)
		if res.Outcome == "" {
			return nil // still queued
		}
		r.tallies[res.Cell].add(res)
		if err := emit(res); err != nil {
			return err
		}
		r.pending.pop()
		r.emitted++
	}
	return nil
}
