package zpart

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/meshgen"
)

// vesselHypergraph is the element hypergraph of the AAA-surrogate vessel
// mesh: axial layers of a cross x cross section grid, six tets a cell.
func vesselHypergraph(axial, cross, netDim int) *Hypergraph {
	m := meshgen.Vessel3D(gmi.Vessel(10, 1, 0.6, 1.2), axial, cross)
	h, _ := ElementHypergraph(m, netDim)
	return h
}

// randomHypergraph draws a hypergraph with non-unit vertex weights,
// fractional net weights, duplicate nets and one-pin nets. Multi-pin
// nets join distinct vertices within a window of 16 ids, so the
// hypergraph has locality for coarsening to find.
func randomHypergraph(rng *rand.Rand, nv, nn int) *Hypergraph {
	var pinLists [][]int32
	for len(pinLists) < nn {
		switch r := rng.Intn(10); {
		case r == 0 && len(pinLists) > 0:
			pinLists = append(pinLists, slices.Clone(pinLists[rng.Intn(len(pinLists))]))
		case r == 1:
			pinLists = append(pinLists, []int32{int32(rng.Intn(nv))})
		default:
			c := rng.Intn(nv)
			var pins []int32
			for want := 2 + rng.Intn(5); len(pins) < want; {
				if p := int32((c + rng.Intn(16)) % nv); !slices.Contains(pins, p) {
					pins = append(pins, p)
				}
			}
			pinLists = append(pinLists, pins)
		}
	}
	h := &Hypergraph{VWt: make([]float64, nv)}
	oBuildFromPins(h, pinLists)
	for v := range h.VWt {
		h.VWt[v] = float64(1 + rng.Intn(4))
	}
	for n := range h.NWt {
		h.NWt[n] = 0.25 + 2*rng.Float64()
	}
	return h
}

// withProcs runs f under each GOMAXPROCS setting, restoring the
// original afterwards.
func withProcs(t *testing.T, f func(procs int)) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		f(procs)
	}
}

// TestPHGMatchesOracle: the typed-heap, dense-scratch, concurrent PHG
// assigns every vertex exactly as the frozen reference does, on mesh
// hypergraphs for every net dimension and on random weighted ones, for
// part counts up to beyond the vertex count, whatever GOMAXPROCS is.
func TestPHGMatchesOracle(t *testing.T) {
	type hcase struct {
		name string
		h    *Hypergraph
	}
	var cases []hcase
	for nd := 0; nd <= 2; nd++ {
		cases = append(cases, hcase{fmt.Sprintf("vessel8x4/netDim=%d", nd), vesselHypergraph(8, 4, nd)})
		box, _ := ElementHypergraph(testMesh(t, 4), nd)
		cases = append(cases, hcase{fmt.Sprintf("box4/netDim=%d", nd), box})
	}
	rng := rand.New(rand.NewSource(14))
	for i := 0; i < 6; i++ {
		nv := 20 + rng.Intn(600)
		cases = append(cases, hcase{fmt.Sprintf("random%d/nv=%d", i, nv), randomHypergraph(rng, nv, nv*3/2)})
	}
	for _, c := range cases {
		for _, k := range []int{1, 2, 3, 7, 16, 32, c.h.NV() + 5} {
			want := oraclePHG(c.h, k)
			withProcs(t, func(procs int) {
				if got := PHG(c.h, k); !slices.Equal(got, want) {
					t.Errorf("%s k=%d GOMAXPROCS=%d: assignment differs from the reference", c.name, k, procs)
				}
			})
		}
	}
}

// TestPHGMatchesOracleAAA pins the benchmark's own case: the aaa-sized
// vessel into 32 parts.
func TestPHGMatchesOracleAAA(t *testing.T) {
	h := vesselHypergraph(12, 6, 0)
	want := oraclePHG(h, 32)
	withProcs(t, func(procs int) {
		if got := PHG(h, 32); !slices.Equal(got, want) {
			t.Errorf("GOMAXPROCS=%d: assignment differs from the reference", procs)
		}
	})
}

// TestPHGConcurrentCallers: PHG calls from several goroutines at once
// share the recursion's slots and still each return the reference
// assignment.
func TestPHGConcurrentCallers(t *testing.T) {
	h := vesselHypergraph(6, 3, 0)
	want := oraclePHG(h, 16)
	done := make(chan []int32)
	for i := 0; i < 4; i++ {
		go func() { done <- PHG(h, 16) }()
	}
	for i := 0; i < 4; i++ {
		if got := <-done; !slices.Equal(got, want) {
			t.Error("concurrent PHG call differs from the reference")
		}
	}
}

// TestMLGraphMatchesOracle: MLGraph with the typed heap and reused FM
// buffers reproduces the reference on face- and vertex-bridged dual
// graphs, the latter also with non-unit vertex weights.
func TestMLGraphMatchesOracle(t *testing.T) {
	type gcase struct {
		name string
		g    *Graph
	}
	vessel := meshgen.Vessel3D(gmi.Vessel(10, 1, 0.6, 1.2), 8, 4)
	dual, _ := DualGraph(vessel)
	bridged, _ := BridgeGraph(testMesh(t, 4), 0)
	rng := rand.New(rand.NewSource(5))
	for v := range bridged.VWt {
		bridged.VWt[v] = float64(1 + rng.Intn(3))
	}
	box, _ := DualGraph(testMesh(t, 5))
	for _, c := range []gcase{{"vessel8x4/dual", dual}, {"box4/vertex-bridged", bridged}, {"box5/dual", box}} {
		for _, k := range []int{1, 2, 3, 5, 7, 16, c.g.N() + 5} {
			want := oracleMLGraph(c.g, k)
			withProcs(t, func(procs int) {
				if got := MLGraph(c.g, k); !slices.Equal(got, want) {
					t.Errorf("%s k=%d GOMAXPROCS=%d: assignment differs from the reference", c.name, k, procs)
				}
			})
		}
	}
}

// TestGainHeapMatchesContainerHeap: interleaved pushes and pops with
// many tied gains come out in container/heap's order, item for item.
func TestGainHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var fast gainHeap
	var ref oGainHeap
	for step := 0; step < 20000; step++ {
		if fast.Len() == 0 || rng.Intn(3) > 0 {
			it := gainItem{v: int32(step), gain: float64(rng.Intn(9) - 4), ver: int64(step)}
			fast.PushItem(it)
			ref.PushItem(it)
			continue
		}
		if got, want := fast.PopItem(), ref.PopItem(); got != want {
			t.Fatalf("step %d: popped %+v, container/heap pops %+v", step, got, want)
		}
	}
	if !slices.Equal(fast, gainHeap(ref)) {
		t.Fatal("heap layouts diverged")
	}
}

func TestZeroPartsPanics(t *testing.T) {
	h := vesselHypergraph(2, 2, 0)
	g, _ := DualGraph(testMesh(t, 2))
	for _, c := range []struct {
		name   string
		nparts int
		run    func(int)
	}{
		{"PHG", 0, func(k int) { PHG(h, k) }},
		{"PHG", -3, func(k int) { PHG(h, k) }},
		{"MLGraph", 0, func(k int) { MLGraph(g, k) }},
		{"MLGraph", -1, func(k int) { MLGraph(g, k) }},
	} {
		func() {
			defer func() {
				want := fmt.Sprintf("zpart: nparts = %d", c.nparts)
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), want) {
					t.Errorf("%s(%d): recovered %v, want a %q panic", c.name, c.nparts, r, want)
				}
			}()
			c.run(c.nparts)
		}()
	}
}

// TestMorePartsThanElements: every partitioner accepts nparts beyond the
// element count, leaving surplus parts empty.
func TestMorePartsThanElements(t *testing.T) {
	m := testMesh(t, 2) // 48 tets
	in, _ := Centroids(m)
	g, _ := DualGraph(m)
	h, _ := ElementHypergraph(m, 0)
	const k = 100
	for name, part := range map[string][]int32{
		"RCB":     RCB(in, k),
		"RIB":     RIB(in, k),
		"MLGraph": MLGraph(g, k),
		"PHG":     PHG(h, k),
	} {
		if len(part) != 48 {
			t.Fatalf("%s: %d assignments for 48 elements", name, len(part))
		}
		for i, p := range part {
			if p < 0 || p >= k {
				t.Fatalf("%s: element %d assigned to part %d of %d", name, i, p, k)
			}
		}
	}
}

// TestConnectivityCutBruteForce compares the stamp-based cut with a
// direct count of the distinct parts on each net.
func TestConnectivityCutBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		nv := 5 + rng.Intn(200)
		h := randomHypergraph(rng, nv, nv)
		k := 1 + rng.Intn(12)
		part := make([]int32, nv)
		for v := range part {
			part[v] = int32(rng.Intn(k))
		}
		want := 0.0
		for n := 0; n < h.NN(); n++ {
			var parts []int32
			for _, p := range h.Pins[h.NX[n]:h.NX[n+1]] {
				if !slices.Contains(parts, part[p]) {
					parts = append(parts, part[p])
				}
			}
			want += h.NWt[n] * float64(len(parts)-1)
		}
		if got := h.ConnectivityCut(part); got != want {
			t.Fatalf("trial %d: cut %g, brute force %g", trial, got, want)
		}
	}
}

func allocGate(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

func TestGainHeapZeroAlloc(t *testing.T) {
	allocGate(t)
	hp := make(gainHeap, 0, 256)
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 256; i++ {
			hp.PushItem(gainItem{v: int32(i), gain: float64(i * 37 % 11)})
		}
		for hp.Len() > 0 {
			hp.PopItem()
		}
	})
	if allocs != 0 {
		t.Fatalf("PushItem/PopItem on a warmed heap: %v allocs/run, want 0", allocs)
	}
}

// phgAllocBound pins PHG's allocations on the aaa-sized vessel into 32
// parts (the map- and box-based implementation took about 1.58M).
const phgAllocBound = 20000

func TestPHGAllocs(t *testing.T) {
	allocGate(t)
	h := vesselHypergraph(12, 6, 0)
	if allocs := testing.AllocsPerRun(3, func() { PHG(h, 32) }); allocs > phgAllocBound {
		t.Fatalf("PHG(aaa vessel, 32): %.0f allocs/op, bound %d", allocs, phgAllocBound)
	}
}

var phgSink []int32

func BenchmarkPHG(b *testing.B) {
	h := vesselHypergraph(12, 6, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		phgSink = PHG(h, 32)
	}
}
