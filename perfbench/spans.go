package main

import (
	"runtime/metrics"
	"strings"
	"time"
)

// span is one call the benchmark made into a module's public function,
// on one rank. Spans are flat: the benchmark never nests them, so a
// span's self time is its whole duration.
type span struct {
	Name       string // "<layer>.<call>", e.g. "meshio.read"
	Op         int    // op index; setupOp for set-up calls
	Start, End time.Duration
	// Coll marks a collective call: every rank enters it, so the time a
	// rank spends in it before the last rank arrives is waiting.
	Coll bool
	// Allocs and Bytes are the heap allocations of the whole process
	// while the span ran (runtime/metrics deltas). The ranks share one
	// heap, so on rank 0 they are world totals; other ranks leave them 0.
	Allocs, Bytes uint64
}

const setupOp = -1

// tracer records one rank's spans and per-op counters in memory. A nil
// tracer records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	rank   int
	epoch  time.Time
	op     int
	spans  []span
	counts map[int]map[string]float64 // op -> counter -> value
	heap   []metrics.Sample           // rank 0 only: allocation counters
}

func newTracer(rank int, epoch time.Time) *tracer {
	t := &tracer{rank: rank, epoch: epoch, op: setupOp, counts: map[int]map[string]float64{}}
	if rank == 0 {
		t.heap = allocSamples()
	}
	return t
}

// begin opens a span. Spans must not overlap on one rank.
func (t *tracer) begin(name string, coll bool) {
	if t == nil {
		return
	}
	s := span{Name: name, Op: t.op, Coll: coll}
	if t.heap != nil {
		s.Allocs, s.Bytes = readAllocs(t.heap)
	}
	s.Start = time.Since(t.epoch)
	t.spans = append(t.spans, s)
}

// end closes the span begin opened last.
func (t *tracer) end() {
	if t == nil {
		return
	}
	s := &t.spans[len(t.spans)-1]
	s.End = time.Since(t.epoch)
	if t.heap != nil {
		a, b := readAllocs(t.heap)
		s.Allocs, s.Bytes = a-s.Allocs, b-s.Bytes
	}
}

// count adds v to a per-op counter. Counters are summed over ranks, so a
// value every rank already holds globally is counted on rank 0 only.
func (t *tracer) count(name string, v float64) {
	if t == nil {
		return
	}
	m := t.counts[t.op]
	if m == nil {
		m = map[string]float64{}
		t.counts[t.op] = m
	}
	m[name] += v
}

// countRoot is count for a value that every rank holds identically.
func (t *tracer) countRoot(name string, v float64) {
	if t != nil && t.rank == 0 {
		t.count(name, v)
	}
}

func allocSamples() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
}

// readAllocs returns the process's cumulative heap allocation count and
// bytes.
func readAllocs(s []metrics.Sample) (objects, bytes uint64) {
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// layerOf is the module a span or metric name belongs to.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// opAccount is one op's per-layer breakdown, built from every rank's
// spans of that op.
type opAccount struct {
	// busy[name] sums, over the call's instances, the largest time any
	// rank spent working in it (its span minus its own wait).
	busy map[string]time.Duration
	// wait[layer] sums the arrival skew (last minus first arrival) at
	// the layer's collective calls.
	wait map[string]time.Duration
	// allocs[layer] and bytes[layer] are world allocation totals.
	allocs, bytes map[string]uint64
	// covered[r] is the time rank r spent inside spans: work plus its
	// own waits. wall minus covered[r] is rank r's unaccounted time.
	covered []time.Duration
}

// account builds the per-layer breakdown of op from the spans of every
// rank (perRank[r] holds rank r's spans in time order). The k-th call of
// a name on each rank is one instance of that call.
func account(perRank [][]span, op int) opAccount {
	a := opAccount{
		busy: map[string]time.Duration{}, wait: map[string]time.Duration{},
		allocs: map[string]uint64{}, bytes: map[string]uint64{},
		covered: make([]time.Duration, len(perRank)),
	}
	type key struct {
		name string
		k    int
	}
	inst := map[key][]*span{}
	for r, spans := range perRank {
		seen := map[string]int{}
		for i := range spans {
			s := &spans[i]
			if s.Op != op {
				continue
			}
			k := key{s.Name, seen[s.Name]}
			seen[s.Name]++
			inst[k] = append(inst[k], s)
			a.covered[r] += s.End - s.Start
			a.allocs[layerOf(s.Name)] += s.Allocs
			a.bytes[layerOf(s.Name)] += s.Bytes
		}
	}
	for k, ss := range inst {
		first, last := ss[0].Start, ss[0].Start
		for _, s := range ss {
			first, last = min(first, s.Start), max(last, s.Start)
		}
		var busy time.Duration
		for _, s := range ss {
			d := s.End - s.Start
			if s.Coll {
				d -= min(last-s.Start, d)
			}
			busy = max(busy, d)
		}
		a.busy[k.name] += busy
		if ss[0].Coll {
			a.wait[layerOf(k.name)] += last - first
		}
	}
	return a
}
