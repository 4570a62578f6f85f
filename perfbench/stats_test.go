package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9}, 5},
	} {
		in := append([]float64(nil), c.in...)
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", in, got, c.want)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("median reordered its input: %v", c.in)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

// The expected cut points are Python's statistics.quantiles(xs, n=4),
// which the acceptance spread is computed with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{0.5, 0.25, 1.5, 2.0, 9.0, 3.5}, 0.4375, 1.75, 4.875},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if !near(q2, median(c.in)) {
			t.Errorf("middle quartile %v differs from median %v", q2, median(c.in))
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 40 .. 1, unsorted
	}
	v, pct, ok := tail(xs, 10)
	if !ok || v != 30 || pct != 75 {
		t.Fatalf("tail of 1..40 = %v at p%v (ok %v), want 30 at p75", v, pct, ok)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond the tail, want 10", beyond)
	}
	// With 11 samples only the smallest has 10 beyond it.
	if v, pct, ok := tail(xs[:11], 10); !ok || v != 30 || !near(pct, 100.0/11) {
		t.Errorf("tail of 40..30 = %v at p%v, want the smallest (30) at p%.2f", v, pct, 100.0/11)
	}
	// 1000 samples: p99 is the highest percentile with 10 beyond it.
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i)
	}
	if v, pct, ok := tail(big, 10); !ok || v != 989 || pct != 99 {
		t.Errorf("tail of 0..999 = %v at p%v, want 989 at p99", v, pct)
	}
}

func TestTailWithTooFewSamples(t *testing.T) {
	v, pct, ok := tail([]float64{2, 7, 3}, 10)
	if ok || v != 7 || pct != 100 {
		t.Errorf("tail of 3 samples = %v at p%v (ok %v), want the maximum 7 at p100, not ok", v, pct, ok)
	}
	if _, _, ok := tail(nil, 10); ok {
		t.Error("tail of no samples reported ok")
	}
}

func TestFailRatio(t *testing.T) {
	for _, c := range []struct {
		failed, attempted int
		want              float64
	}{
		{0, 12, 0},
		{3, 12, 0.25},
		{12, 12, 1},
		{0, 0, 1}, // nothing ran: nothing succeeded
	} {
		if got := failRatio(c.failed, c.attempted); got != c.want {
			t.Errorf("failRatio(%d, %d) = %v, want %v", c.failed, c.attempted, got, c.want)
		}
	}
}

func TestAccountSplitsBusyAndWait(t *testing.T) {
	ms := time.Millisecond
	// Rank 0 reads for 30ms, then both ranks migrate; rank 1 arrives at
	// 0 and waits 30ms for rank 0, then both work 10ms.
	perRank := [][]span{
		{
			{Name: "meshio.read", Op: 1, Start: 0, End: 30 * ms},
			{Name: "partition.migrate", Op: 1, Start: 30 * ms, End: 40 * ms, Coll: true},
			{Name: "partition.migrate", Op: 2, Start: 50 * ms, End: 60 * ms, Coll: true},
		},
		{
			{Name: "partition.migrate", Op: 1, Start: 0, End: 40 * ms, Coll: true},
		},
	}
	a := account(perRank, 1)
	if a.busy["meshio.read"] != 30*ms || a.busy["partition.migrate"] != 10*ms {
		t.Errorf("busy = %v, want read 30ms and migrate 10ms", a.busy)
	}
	if a.wait["partition"] != 30*ms {
		t.Errorf("partition wait = %v, want 30ms", a.wait["partition"])
	}
	if a.covered[0] != 40*ms || a.covered[1] != 40*ms {
		t.Errorf("covered = %v, want 40ms on both ranks", a.covered)
	}
}

// The benchmark's metric tables and BENCHMARK.json must name the same
// metrics with the same units.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for _, c := range []struct {
		kind string
		got  []struct{ Name, Unit, Better string }
		want []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEndMetrics}, {"per_layer", doc.PerLayer, perLayerMetrics}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.want {
			g := c.got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.kind, i, g, m)
			}
		}
	}
}
