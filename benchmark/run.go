package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"aggcache/internal/workload"
)

// phase is one timed phase as measured from outside the engine.
type phase struct {
	a          *acc
	tracers    []*tracer
	wall, cpu  time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	heapMB     float64 // HeapAlloc after a forced GC at the end of the phase
	boundary   []error // oracle failures at merge boundaries (erp-mixed)
	boundaryN  int     // oracle checks made at merge boundaries
}

// cpuTime is the process's user+system CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime)
}

// A timed phase is cut into slices of at least minSliceUnits operations —
// enough for a p95 of their own — and at most maxSegments of them, a quarter
// of a second each at the reference rate; see bestQuarter.
const (
	maxSegments   = 120
	minSliceUnits = 40
)

// segment is one slice of a timed phase: the queries latMS[lo:hi].
type segment struct {
	lo, hi    int
	wall, cpu time.Duration
}

// bestQuarter reduces one figure per slice to the run's figure: the median
// of the best quarter of the slices (the lowest for a time, the highest for
// a rate). The reference host is a shared 2-core VM whose speed wanders by
// 15 % from second to second and more in bursts, and interference only ever
// adds time: within one run the slices' medians lie up to 40 % above the
// lowest, in spells of seconds. On ten runs of one build, whole-phase figures
// spread (IQR over median) by 15-20 % for p50, throughput and CPU and 35-70 %
// for p95, and the median over slices did no better; the best quarter finds
// the quiet floor as long as a run is long enough to see quiet slices. The
// workloads that use it are stationary over their phase, so the best quarter
// is the same regime as the rest, seen on a quiet host. erp-mixed is not
// stationary — merges come and go — and reports whole-phase figures.
func bestQuarter(perSlice []float64, better string) float64 {
	s := sortedCopy(perSlice)
	if len(s) == 0 {
		return 0
	}
	if better == "higher" {
		slices.Reverse(s)
	}
	return s[(max(1, len(s)/4)-1)/2]
}

// meter is an open measurement interval: wall clock, process CPU and the
// allocator's counters at its start.
type meter struct {
	t0  time.Time
	c0  time.Duration
	mem runtime.MemStats
}

func startMeter() *meter {
	m := &meter{}
	runtime.ReadMemStats(&m.mem)
	m.c0, m.t0 = cpuTime(), time.Now()
	return m
}

// stop adds the interval since startMeter to the phase.
func (m *meter) stop(ph *phase) {
	ph.wall += time.Since(m.t0)
	ph.cpu += cpuTime() - m.c0
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	ph.mallocs += m1.Mallocs - m.mem.Mallocs
	ph.allocBytes += m1.TotalAlloc - m.mem.TotalAlloc
	ph.gcCycles += m1.NumGC - m.mem.NumGC
	ph.gcPause += time.Duration(m1.PauseTotalNs - m.mem.PauseTotalNs)
}

// liveHeapMB is HeapAlloc after two forced collections: the executor's
// pooled scratch buffers survive the first in sync.Pool's victim cache.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// opsFor returns the first frac of the timed operations; the insert/query
// rounds of erp-stagger-recycle are cut at a round boundary.
func (inst *instance) opsFor(frac float64) []op {
	unit := inst.opUnit()
	units := max(1, int(float64(len(inst.ops)/unit)*frac))
	return inst.ops[:units*unit]
}

// opUnit is the number of operations that belong together: one insert round
// and its queries on erp-stagger-recycle, one operation elsewhere.
func (inst *instance) opUnit() int {
	if inst.insertItems != nil {
		return 1 + staggerQueriesPerRound
	}
	return 1
}

// chunks cuts ops into slices of whole units.
func (inst *instance) chunks(ops []op) [][]op {
	unit := inst.opUnit()
	units := len(ops) / unit
	segments := min(maxSegments, max(1, units/minSliceUnits))
	var out [][]op
	for i := 0; i < segments; i++ {
		lo, hi := units*i/segments*unit, units*(i+1)/segments*unit
		if hi > lo {
			out = append(out, ops[lo:hi])
		}
	}
	return out
}

func newAcc(traced bool, ph *phase) *acc {
	a := &acc{}
	if traced {
		a.tr = newTracer()
		ph.tracers = append(ph.tracers, a.tr)
	}
	ph.a = a
	return a
}

// runOps executes one slice of a single-client phase as one segment.
func (inst *instance) runOps(a *acc, ops []op) {
	lo, t0, c0 := len(a.latMS), time.Now(), cpuTime()
	for i := range ops {
		o := &ops[i]
		if o.query < 0 {
			inst.insertRound(a, o.items)
			continue
		}
		inst.eng.exec(a, &inst.queries[o.query], o.sql)
	}
	a.segs = append(a.segs, segment{lo: lo, hi: len(a.latMS), wall: time.Since(t0), cpu: cpuTime() - c0})
}

// runPhase executes frac of the workload's timed phase, traced or not, on a
// freshly collected heap.
func (inst *instance) runPhase(frac float64, traced bool) *phase {
	if inst.mixed != nil {
		// The open-loop schedule is in wall time and a merge cannot be made
		// four times cheaper: a quarter of the objects would compress the
		// schedule until the writer did nothing but merge. erp-mixed always
		// runs its whole schedule.
		return inst.runMixed(traced)
	}
	ph := &phase{}
	a := newAcc(traced, ph)
	ops := inst.opsFor(frac)
	// Sized up front: live_heap_mb then holds the same sample buffer whether
	// or not the limit below cuts the phase short.
	a.latMS = make([]float64, 0, len(ops))
	runtime.GC()
	m := startMeter()
	for _, chunk := range inst.chunks(ops) {
		// The operation count is fixed for the reference host; on a host in
		// a slow spell the phase ends at the first slice boundary past the
		// limit, so a run's length stays bounded.
		if inst.limit > 0 && time.Since(m.t0) > inst.limit {
			break
		}
		inst.runOps(a, chunk)
	}
	m.stop(ph)
	ph.heapMB = liveHeapMB()
	return ph
}

// runPaired executes the same frac of the timed phase on two identically
// seeded instances, untraced on base and traced on inst, alternating slice
// by slice so that host drift falls on both alike.
func runPaired(base, inst *instance, frac float64) (untraced, traced *phase) {
	untraced, traced = &phase{}, &phase{}
	ab, at := newAcc(false, untraced), newAcc(true, traced)
	runtime.GC()
	for _, chunk := range inst.chunks(inst.opsFor(frac)) {
		m := startMeter()
		base.runOps(ab, chunk)
		m.stop(untraced)
		m = startMeter()
		inst.runOps(at, chunk)
		m.stop(traced)
	}
	return untraced, traced
}

// insertRound is one closed-loop insert operation of erp-stagger-recycle:
// n single-item transactions under the writer lock.
func (inst *instance) insertRound(a *acc, n int) {
	start := time.Now()
	inst.probeDB.Lock()
	t := time.Now()
	rows, err := inst.insertItems(n)
	ins := time.Since(t)
	inst.probeDB.Unlock()
	end := time.Now()
	if err != nil {
		a.errs++
	}
	a.insertBatchMS = append(a.insertBatchMS, float64(end.Sub(start))/1e6)
	a.insertRows += rows
	a.insertNS += int64(ins)
	if a.tr != nil {
		op := a.tr.beginOp(start, end)
		a.tr.add(op, spanLockWait, start, t)
		a.tr.add(op, spanInsertBatch, t, t.Add(ins))
	}
}

// runMixed is the erp-mixed timed phase: a closed-loop reader beside an
// open-loop writer. The writer inserts batches on a fixed schedule — each
// batch's latency runs from its due time, so a stall charges every batch it
// delays — and after each quarter of the objects runs a synchronised online
// merge of Header and Item inline, followed by an oracle check of every
// prepared query at that merge boundary. The reader runs until the writer
// has finished.
func (inst *instance) runMixed(traced bool) *phase {
	plan := inst.mixed
	batches := plan.objects / plan.batch
	mergeEvery := batches / plan.merges
	interval := time.Duration(float64(plan.batch) / plan.rate * float64(time.Second))
	db := inst.probeDB

	ph := &phase{}
	wa := newAcc(traced, ph)
	ra := newAcc(traced, ph)
	runtime.GC()
	m := startMeter()
	var done atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()

	wg.Add(1)
	go func() { // reader
		defer wg.Done()
		for i := 0; !done.Load(); i++ {
			ra.startNS = append(ra.startNS, int64(time.Since(t0)))
			inst.eng.exec(ra, &inst.queries[i%len(inst.queries)], "")
		}
	}()

	for k := 0; k < batches; k++ { // writer, on this goroutine
		due := t0.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		begin := time.Now()
		db.Lock()
		t := time.Now()
		rows, err := inst.insertObjects(plan.batch)
		ins := time.Since(t)
		db.Unlock()
		end := time.Now()
		if err != nil {
			wa.errs++
		}
		wa.latenessMS = append(wa.latenessMS, float64(begin.Sub(due))/1e6)
		wa.insertBatchMS = append(wa.insertBatchMS, float64(end.Sub(due))/1e6)
		wa.insertRows += rows
		wa.insertNS += int64(ins)
		if wa.tr != nil {
			op := wa.tr.beginOp(begin, end)
			wa.tr.add(op, spanLockWait, begin, t)
			wa.tr.add(op, spanInsertBatch, t, t.Add(ins))
		}
		if (k+1)%mergeEvery != 0 {
			continue
		}
		ms := time.Now()
		err = db.MergeTablesOnline(false, workload.THeader, workload.TItem)
		me := time.Now()
		if err != nil {
			wa.errs++
		}
		wa.mergeMS = append(wa.mergeMS, float64(me.Sub(ms))/1e6)
		wa.mergeWindows = append(wa.mergeWindows, [2]int64{int64(ms.Sub(t0)), int64(me.Sub(t0))})
		if wa.tr != nil {
			op := wa.tr.beginOp(ms, me)
			wa.tr.add(op, spanMerge, ms, me)
		}
		for i := range inst.queries {
			ph.boundaryN++
			if _, err := inst.eng.check(&inst.queries[i], false); err != nil {
				ph.boundary = append(ph.boundary, fmt.Errorf("after merge %d: %w", len(wa.mergeMS), err))
			}
		}
	}
	done.Store(true)
	wg.Wait()

	// One accumulator for the report: the reader's queries plus the
	// writer's inserts and merges.
	ra.errs += wa.errs
	ra.insertBatchMS, ra.latenessMS = wa.insertBatchMS, wa.latenessMS
	ra.insertRows, ra.insertNS = wa.insertRows, wa.insertNS
	ra.mergeMS, ra.mergeWindows = wa.mergeMS, wa.mergeWindows
	m.stop(ph)
	ph.heapMB = liveHeapMB()
	return ph
}

// mergeOverlap splits the reader's latencies by whether the query ran
// during an online merge, and counts the merges the reader crossed: some
// query was in flight when the merge ended (the swap), and the reader went
// on to start another afterwards.
func (a *acc) mergeOverlap() (inside, outside []float64, crossed int) {
	n := min(len(a.startNS), len(a.latMS))
	for i := 0; i < n; i++ {
		s, e := a.startNS[i], a.startNS[i]+int64(a.latMS[i]*1e6)
		in := false
		for _, w := range a.mergeWindows {
			if s < w[1] && e > w[0] {
				in = true
				break
			}
		}
		if in {
			inside = append(inside, a.latMS[i])
		} else {
			outside = append(outside, a.latMS[i])
		}
	}
	for _, w := range a.mergeWindows {
		during, after := false, false
		for i := 0; i < n; i++ {
			s, e := a.startNS[i], a.startNS[i]+int64(a.latMS[i]*1e6)
			if s < w[1] && e > w[0] {
				during = true
			}
			if s >= w[1] {
				after = true
				break
			}
		}
		if during && after {
			crossed++
		}
	}
	return inside, outside, crossed
}
