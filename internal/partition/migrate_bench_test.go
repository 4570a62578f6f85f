package partition

import (
	"runtime"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// swapPlans is a ParMA-sized move: every part sends up to n of its
// elements touching each neighbor part to that neighbor. Neighbors swap
// the same number each way, so part sizes hold across repeated rounds.
func swapPlans(dm *DMesh, n int) []Plan {
	plans := make([]Plan, len(dm.Parts))
	var vs []mesh.Ent
	var nb []int32
	for i, p := range dm.Parts {
		m := p.M
		plans[i] = Plan{}
		sent := map[int32]int{}
	elements:
		for el := range m.Elements() {
			nb = nb[:0]
			vs = m.AdjacentTo(el, 0, vs[:0])
			for _, v := range vs {
				nb = m.AppendRemoteParts(v, nb)
			}
			for _, q := range nb {
				if sent[q] < n {
					sent[q]++
					plans[i][el] = q
					continue elements
				}
			}
		}
	}
	return plans
}

// swapWorld distributes a 12x6x6 box (2,592 tets) over 2 ranks x 2
// parts in x-slabs.
func swapWorld(ctx *pcu.Ctx) *DMesh {
	model := gmi.Box(4, 1, 1)
	return distributeByX(ctx, model.Model, func() *mesh.Mesh {
		return meshgen.Box3D(model, 12, 6, 6)
	}, 2, 4)
}

// BenchmarkTryMigrate times TryMigrate alone: a ParMA-sized swap of 8
// elements per neighbor pair on an already-distributed box, and the
// full distribution of a 12x6x6 box from part 0 to 4 parts. Mesh
// building and plan making run with the timer stopped, bracketed by
// barriers so no rank's untimed work overlaps the timed migration.
func BenchmarkTryMigrate(b *testing.B) {
	b.Run("small", func(b *testing.B) {
		b.ReportAllocs()
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			dm := swapWorld(ctx)
			timed(ctx, b, func() []Plan { return swapPlans(dm, 8) },
				func(plans []Plan) { Migrate(dm, plans) })
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
	b.Run("distribute", func(b *testing.B) {
		b.ReportAllocs()
		model := gmi.Box(4, 1, 1)
		err := pcu.Run(2, func(ctx *pcu.Ctx) error {
			var dm *DMesh
			timed(ctx, b, func() []Plan {
				var serial *mesh.Mesh
				if ctx.Rank() == 0 {
					serial = meshgen.Box3D(model, 12, 6, 6)
				}
				dm = Adopt(ctx, model.Model, 3, serial, 2)
				plans := make([]Plan, len(dm.Parts))
				if ctx.Rank() == 0 {
					plans[0] = Plan{}
					for el := range serial.Elements() {
						plans[0][el] = min(int32(serial.Centroid(el).X), 3)
					}
				}
				return plans
			}, func(plans []Plan) { Migrate(dm, plans) })
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	})
}

// timed runs b.N rounds of prepare (untimed) then run (timed); rank 0
// drives the timer.
func timed(ctx *pcu.Ctx, b *testing.B, prepare func() []Plan, run func([]Plan)) {
	if ctx.Rank() == 0 {
		b.ResetTimer()
	}
	for i := 0; i < b.N; i++ {
		if ctx.Rank() == 0 {
			b.StopTimer()
		}
		plans := prepare()
		ctx.Barrier()
		if ctx.Rank() == 0 {
			b.StartTimer()
		}
		run(plans)
		ctx.Barrier()
	}
}

// smallMigrationAllocBound is the pinned cost of one warmed swapPlans(8)
// round on the 2x2-part box, both ranks together (one shared heap),
// counting the closing barrier. The slot-indexed tables measure about
// 1.3k allocations here; the map/IntSet implementation they replaced
// measured about 13.4k.
const smallMigrationAllocBound = 2000

// TestSmallMigrationAllocs pins the allocations of a warmed ParMA-sized
// migration, measured by rank 0 across both ranks between barriers so
// plan making stays outside the window.
func TestSmallMigrationAllocs(t *testing.T) {
	allocGate(t)
	const warmup, rounds = 3, 10
	var total uint64
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := swapWorld(ctx)
		var before, after runtime.MemStats
		for i := 0; i < warmup+rounds; i++ {
			plans := swapPlans(dm, 8)
			ctx.Barrier()
			if ctx.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			ctx.Barrier()
			Migrate(dm, plans)
			ctx.Barrier()
			if ctx.Rank() == 0 && i >= warmup {
				runtime.ReadMemStats(&after)
				total += after.Mallocs - before.Mallocs
			}
			ctx.Barrier()
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if per := total / rounds; per > smallMigrationAllocBound {
		t.Errorf("small migration: %d allocs/round, bound %d", per, smallMigrationAllocBound)
	} else {
		t.Logf("small migration: %d allocs/round (bound %d)", per, smallMigrationAllocBound)
	}
}
