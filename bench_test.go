package pumi

// The benchmark suite regenerates the paper's evaluation under `go test
// -bench`: one benchmark per table and figure (see EXPERIMENTS.md for
// the mapping), plus ablation benchmarks for the design choices called
// out in DESIGN.md. Quality numbers (imbalances, boundary sizes) are
// attached to the timing output via b.ReportMetric, so a single -bench
// run reports both the paper's time and balance columns.

import (
	"math"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/experiments"
	"github.com/fastmath/pumi-go/internal/field"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// benchVessel caches the serial AAA-surrogate mesh generation.
func benchVessel(b *testing.B, ns, n int) (*gmi.VesselModel, *mesh.Mesh) {
	b.Helper()
	model := gmi.Vessel(10, 1, 0.6, 1.2)
	return model, meshgen.Vessel3D(model, ns, n)
}

// --- Table I-III: partitioning methods on the AAA surrogate ---

// BenchmarkTable3_T0_Hypergraph times the global hypergraph partitioner
// (the paper's T0, Zoltan PHG: 249 s at full scale).
func BenchmarkTable3_T0_Hypergraph(b *testing.B) {
	model, serial := benchVessel(b, 20, 8)
	_ = model
	h, _ := zpart.ElementHypergraph(serial, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		assign := zpart.PHG(h, 16)
		if i == 0 {
			sizes := make([]int64, 16)
			for _, p := range assign {
				sizes[p]++
			}
			_, imb := partition.Imbalance(sizes)
			b.ReportMetric((imb-1)*100, "rgnImb%")
		}
	}
}

// benchParMATest distributes the T0 partition and times ParMA balancing
// with the given priority (the paper's T1-T4: 5.5-8.8 s at full scale,
// 28-45x faster than T0).
func benchParMATest(b *testing.B, priority string) {
	model, serial := benchVessel(b, 20, 8)
	h, els := zpart.ElementHypergraph(serial, 0)
	assign := zpart.PHG(h, 16)
	asg := make([]int32, len(els))
	copy(asg, assign)
	pri, err := parma.ParsePriority(priority)
	if err != nil {
		b.Fatal(err)
	}
	var imbAfter float64
	totalBalance := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// The full pipeline (rebuild + balance) is what ns/op reports;
		// the ParMA balance time alone — the paper's Table III column —
		// is attached as the balance-sec/op metric.
		var balanceSecs float64
		err := pcu.Run(4, func(ctx *pcu.Ctx) error {
			var sm *mesh.Mesh
			if ctx.Rank() == 0 {
				sm = meshgen.Vessel3D(model, 20, 8)
			}
			dm := partition.Adopt(ctx, model.Model, 3, sm, 4)
			var plan map[mesh.Ent]int32
			if ctx.Rank() == 0 {
				plan = map[mesh.Ent]int32{}
				j := 0
				for el := range sm.Elements() {
					plan[el] = asg[j]
					j++
				}
			}
			partition.Migrate(dm, partition.PlansFromAssignment(dm, plan))
			ctx.Barrier()
			start := time.Now()
			parma.Balance(dm, pri, parma.Config{Tolerance: 1.05, MaxIters: 60})
			elapsed := time.Since(start).Seconds()
			_, imb := partitionImb(dm, pri.Dims()[0]) // collective
			if ctx.Rank() == 0 {
				balanceSecs = elapsed
				imbAfter = imb
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		totalBalance += balanceSecs
	}
	b.ReportMetric((imbAfter-1)*100, "priImb%")
	b.ReportMetric(totalBalance/float64(b.N), "balance-sec/op")
}

func BenchmarkTable3_T1_ParMA_VtxRgn(b *testing.B)      { benchParMATest(b, "Vtx>Rgn") }
func BenchmarkTable3_T2_ParMA_VtxEdgeRgn(b *testing.B)  { benchParMATest(b, "Vtx=Edge>Rgn") }
func BenchmarkTable3_T3_ParMA_EdgeRgn(b *testing.B)     { benchParMATest(b, "Edge>Rgn") }
func BenchmarkTable3_T4_ParMA_EdgeFaceRgn(b *testing.B) { benchParMATest(b, "Edge=Face>Rgn") }

// --- Fig 13: adaptation without load balancing ---

func BenchmarkFig13_AdaptNoBalance(b *testing.B) {
	cfg := experiments.Fig13Config{
		NX: 10, NY: 6, NZ: 3, Parts: 8, Ranks: 4,
		Fine: 0.12, Coarse: 0.8, Band: 0.3, WithSplit: false,
	}
	var peak float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		peak = res.PeakImbalance
	}
	b.ReportMetric(peak, "peakImb")
}

// BenchmarkFig13_HeavyPartSplit measures the §III-B repair of the
// adapted imbalance.
func BenchmarkFig13_HeavyPartSplit(b *testing.B) {
	cfg := experiments.Fig13Config{
		NX: 10, NY: 6, NZ: 3, Parts: 8, Ranks: 4,
		Fine: 0.12, Coarse: 0.8, Band: 0.3, WithSplit: true,
	}
	var after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		after = res.SplitImbalance
	}
	b.ReportMetric(after, "imbAfterSplit")
}

// --- §II-D: hybrid two-level communication ---

func benchComm(b *testing.B, topo hwtopo.Topology, workers int) {
	// Large payloads keep the copy/serialize cost (the off-node
	// penalty) dominant over barrier overhead.
	payload := make([]byte, 512<<10)
	b.SetBytes(int64(2 * len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := pcu.RunOn(workers, topo, func(ctx *pcu.Ctx) error {
			next := (ctx.Rank() + 1) % ctx.Size()
			prev := (ctx.Rank() + ctx.Size() - 1) % ctx.Size()
			for p := 0; p < 20; p++ {
				ctx.To(next).Bytes(payload)
				ctx.To(prev).Bytes(payload)
				ctx.Exchange()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHybridComm_OnNode exchanges among ranks sharing one node
// (by-reference delivery).
func BenchmarkHybridComm_OnNode(b *testing.B) {
	benchComm(b, hwtopo.Cluster(1, 8), 8)
}

// BenchmarkHybridComm_OffNode exchanges among ranks on distinct nodes
// (serialized copies) — the cost two-level partitioning avoids.
func BenchmarkHybridComm_OffNode(b *testing.B) {
	benchComm(b, hwtopo.Cluster(8, 1), 8)
}

// --- §II distributed services: migration and ghosting ---

func BenchmarkMigration(b *testing.B) {
	model := gmi.Box(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := pcu.Run(4, func(ctx *pcu.Ctx) error {
			var serial *mesh.Mesh
			if ctx.Rank() == 0 {
				serial = meshgen.Box3D(model, 10, 10, 10)
			}
			dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
			var plan map[mesh.Ent]int32
			if ctx.Rank() == 0 {
				in, els := zpart.Centroids(serial)
				assign := zpart.RCB(in, 4)
				plan = map[mesh.Ent]int32{}
				for j, el := range els {
					plan[el] = assign[j]
				}
			}
			partition.Migrate(dm, partition.PlansFromAssignment(dm, plan))
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGhosting(b *testing.B) {
	model := gmi.Box(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		err := pcu.Run(4, func(ctx *pcu.Ctx) error {
			var serial *mesh.Mesh
			if ctx.Rank() == 0 {
				serial = meshgen.Box3D(model, 10, 10, 10)
			}
			dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
			var plan map[mesh.Ent]int32
			if ctx.Rank() == 0 {
				in, els := zpart.Centroids(serial)
				assign := zpart.RCB(in, 4)
				plan = map[mesh.Ent]int32{}
				for j, el := range els {
					plan[el] = assign[j]
				}
			}
			partition.Migrate(dm, partition.PlansFromAssignment(dm, plan))
			partition.Ghost(dm, 2, 1)
			partition.RemoveGhosts(dm)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// --- §III-A: local splitting to extreme part counts ---

func BenchmarkLocalSplit(b *testing.B) {
	cfg := experiments.LocalSplitConfig{
		NX: 14, NY: 14, NZ: 7, CoarseParts: 4, SplitFactor: 16, Ranks: 4,
	}
	var split, after float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunLocalSplit(cfg)
		if err != nil {
			b.Fatal(err)
		}
		split = (res.SplitVtxImb - 1) * 100
		after = (res.ParMAVtxImb - 1) * 100
	}
	b.ReportMetric(split, "splitImb%")
	b.ReportMetric(after, "afterImb%")
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAdjacency_MDS measures upward adjacency through the
// use-list storage, filling a reused caller buffer.
func BenchmarkAdjacency_MDS(b *testing.B) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 10, 10, 10)
	var verts []mesh.Ent
	for v := range m.Iter(0) {
		verts = append(verts, v)
	}
	var adj []mesh.Ent
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		v := verts[i%len(verts)]
		adj = m.AdjacentTo(v, 3, adj[:0])
		n += len(adj)
	}
	if n == 0 {
		b.Fatal("no adjacencies")
	}
}

// BenchmarkAdjacency_MapBaseline measures the same multi-level upward
// traversal against map-backed one-level adjacency storage — the
// design alternative MDS-style arrays with intrusive use lists replace.
func BenchmarkAdjacency_MapBaseline(b *testing.B) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 10, 10, 10)
	// Build the map-backed one-level upward adjacency.
	up := map[mesh.Ent][]mesh.Ent{}
	for d := 0; d < 3; d++ {
		for e := range m.Iter(d) {
			up[e] = m.Up(e)
		}
	}
	var verts []mesh.Ent
	for v := range m.Iter(0) {
		verts = append(verts, v)
	}
	step := func(ents []mesh.Ent) []mesh.Ent {
		var out []mesh.Ent
		for _, e := range ents {
			for _, u := range up[e] {
				dup := false
				for _, x := range out {
					if x == u {
						dup = true
						break
					}
				}
				if !dup {
					out = append(out, u)
				}
			}
		}
		return out
	}
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		v := verts[i%len(verts)]
		n += len(step(step(step([]mesh.Ent{v}))))
	}
	if n == 0 {
		b.Fatal("no adjacencies")
	}
}

// BenchmarkAblation_SelectionRule compares ParMA's boundary-shape
// cavity selection (Fig 9/10) against naive "any boundary element"
// selection, reporting the resulting part-boundary growth.
func BenchmarkAblation_SelectionRule(b *testing.B) {
	for _, ordered := range []bool{true, false} {
		name := "fig9-ordered"
		if !ordered {
			name = "unordered"
		}
		b.Run(name, func(b *testing.B) {
			var boundary int64
			for i := 0; i < b.N; i++ {
				boundary = runSelectionAblation(b, ordered)
			}
			b.ReportMetric(float64(boundary), "bndVtx")
		})
	}
}

func runSelectionAblation(b *testing.B, ordered bool) int64 {
	model := gmi.Box(4, 1, 1)
	var out int64
	err := pcu.Run(4, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		if ctx.Rank() == 0 {
			serial = meshgen.Box3D(model, 12, 4, 4)
		}
		dm := partition.Adopt(ctx, model.Model, 3, serial, 1)
		var plan map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			plan = map[mesh.Ent]int32{}
			for el := range serial.Elements() {
				c := serial.Centroid(el)
				p := int32(c.X)
				if p > 3 {
					p = 3
				}
				if p == 1 && c.Y < 0.5 {
					p = 0
				}
				plan[el] = p
			}
		}
		partition.Migrate(dm, partition.PlansFromAssignment(dm, plan))
		pri, _ := parma.ParsePriority("Rgn")
		cfg := parma.Config{Tolerance: 1.05, MaxIters: 40}
		cfg.NaiveSelection = !ordered
		parma.Balance(dm, pri, cfg)
		tr := partition.GatherBoundaryTraffic(dm, 0)
		if ctx.Rank() == 0 {
			out = tr.SharedTotal
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkAdaptRefine measures serial size-driven refinement.
func BenchmarkAdaptRefine(b *testing.B) {
	model := gmi.Box(1, 1, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := meshgen.Box3D(model, 4, 4, 4)
		b.StartTimer()
		adapt.Refine(m, adapt.Uniform(0.12), nil, 10)
	}
}

// BenchmarkFieldEval measures field evaluation inside elements.
func BenchmarkFieldEval(b *testing.B) {
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 6, 6, 6)
	f, err := field.New(m, "u", 1, field.Linear)
	if err != nil {
		b.Fatal(err)
	}
	f.SetByFunc(func(p vec.V) []float64 { return []float64{p.X + p.Y + p.Z} })
	var els []mesh.Ent
	for el := range m.Elements() {
		els = append(els, el)
	}
	b.ReportAllocs()
	b.ResetTimer()
	s := 0.0
	for i := 0; i < b.N; i++ {
		el := els[i%len(els)]
		s += f.Eval(el, m.Centroid(el))[0]
	}
	if math.IsNaN(s) {
		b.Fatal("NaN")
	}
}

// --- helpers ---

func partitionImb(dm *partition.DMesh, dim int) (float64, float64) {
	return partition.EntityImbalance(dm, dim)
}
