package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aggcache/internal/obs"
)

// span is one harness-side trace record: a named interval, the span that
// caused it, and the operation both belong to. Times are nanoseconds since
// the tracer's epoch.
type span struct {
	ID     int32
	Parent int32 // -1 for an operation's root
	Op     int32
	Name   string
	Start  int64
	End    int64
}

// Span names: the harness's own spans carry the layer they wrap; the
// engine's ExplainAnalyze tree is renamed onto the same vocabulary by
// layerName so the fold reports one self time per layer stage.
const (
	spanOp          = "client.op"
	spanParse       = "sql.parse"
	spanExecute     = "core.execute"
	spanLookup      = "core.lookup"
	spanMainComp    = "core.main_comp"
	spanDeltaComp   = "core.delta_comp"
	spanBuildEntry  = "core.build_entry"
	spanRebuild     = "core.rebuild_entry"
	spanExecuteAll  = "query.execute_all"
	spanSubjoin     = "query.subjoin"
	spanScan        = "query.scan"
	spanShardExec   = "shard.execute"
	spanShardMgr    = "shard.manager"
	spanLockWait    = "table.lock_wait"
	spanInsertBatch = "table.insert_batch"
	spanMerge       = "table.merge"
)

// layerName maps an engine span name onto the harness vocabulary. depth is
// the span's depth in the ExplainAnalyze tree (root = 0).
func layerName(name string, depth int) string {
	switch {
	case depth == 0:
		return spanExecute
	case name == "cache-lookup":
		return spanLookup
	case name == "main-compensation":
		return spanMainComp
	case name == "delta-compensation":
		return spanDeltaComp
	case name == "build-entry":
		return spanBuildEntry
	case name == "rebuild-entry":
		return spanRebuild
	case name == "execute-all":
		return spanExecuteAll
	case strings.HasPrefix(name, "scan "):
		return spanScan
	}
	// Everything else under a compensation or build phase is one subjoin
	// combination, named by its store list.
	return spanSubjoin
}

// tracer keeps every span of a traced run in memory; nothing is written
// until the run has ended. One goroutine owns a tracer.
type tracer struct {
	epoch time.Time
	spans []span
	ops   int32
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

// beginOp opens the root span of a new operation and returns its id.
func (t *tracer) beginOp(start, end time.Time) int32 {
	t.ops++
	return t.add(-1, spanOp, start, end)
}

// add appends a span under parent (same operation as the latest beginOp).
func (t *tracer) add(parent int32, name string, start, end time.Time) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.ops - 1, Name: name,
		Start: t.ns(start), End: t.ns(end)})
	return id
}

// traceStats is what the harness reads off an engine span tree besides the
// intervals: pool work and queueing of worker-run subjoins.
type traceStats struct {
	workNS, queueNS int64
}

// addEngineTree copies an ExplainAnalyze span tree under parent, renaming
// each span onto the harness vocabulary.
func (t *tracer) addEngineTree(parent int32, root *obs.Span, ts *traceStats) {
	var walk func(s *obs.Span, parent int32, depth int)
	walk = func(s *obs.Span, parent int32, depth int) {
		start := s.StartTime()
		id := t.add(parent, layerName(s.Name, depth), start, start.Add(s.Dur))
		if _, ok := s.GetAttr("worker"); ok {
			ts.workNS += int64(s.Dur)
			ts.queueNS += int64(s.QueueDur())
		}
		for _, c := range s.Children {
			walk(c, id, depth+1)
		}
	}
	walk(root, parent, 0)
}

// mergeSpans concatenates the spans of several tracers (erp-mixed has one
// per client), renumbering ids and operations so they stay unique.
func mergeSpans(tracers []*tracer) []span {
	var out []span
	var ops int32
	for _, t := range tracers {
		base := int32(len(out))
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			s.Op += ops
			out = append(out, s)
		}
		ops += t.ops
	}
	return out
}

// spanStat is the fold of every span of one name.
type spanStat struct {
	selfNS  int64 // summed self time
	totalNS int64 // summed duration, children included
	count   int64
}

// foldSelfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its child spans cover. Children may
// overlap (parallel subjoins) and are clipped to the parent's interval, so
// the self times of one operation's tree never exceed its root's duration.
// A span's ID is its index in spans, as tracer and mergeSpans number them.
func foldSelfTimes(spans []span) map[string]spanStat {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make(map[string]spanStat)
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		ivs = ivs[:0]
		for _, cid := range children[s.ID] {
			c := &spans[cid]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		covered, end := int64(0), s.Start
		for _, v := range ivs {
			if v.hi <= end {
				continue
			}
			covered += v.hi - max(v.lo, end)
			end = v.hi
		}
		st := self[s.Name]
		st.selfNS += dur - covered
		st.totalNS += dur
		st.count++
		self[s.Name] = st
	}
	return self
}

// maxTraceFileSpans bounds the trace file: a CH Q5 execution alone yields
// about a thousand spans, and the file is for reading, not for the fold
// (which always sees every span).
const maxTraceFileSpans = 50000

// writeTrace writes the spans (up to maxTraceFileSpans, whole operations
// first-come) and the folded self times to dir/trace-<workload>.json.
func writeTrace(dir, workload string, spans []span, self map[string]spanStat) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, "{\"workload\":%q,\"spans_total\":%d,\"self_ns\":{", workload, len(spans))
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q:%d", n, self[n].selfNS)
	}
	w.WriteString("},\"spans\":[\n")
	n := min(len(spans), maxTraceFileSpans)
	for i := 0; i < n; i++ {
		s := spans[i]
		if i > 0 {
			w.WriteString(",\n")
		}
		fmt.Fprintf(w, "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"start_ns\":%d,\"end_ns\":%d}",
			s.ID, s.Parent, s.Op, s.Name, s.Start, s.End)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
