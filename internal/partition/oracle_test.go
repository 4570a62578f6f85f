package partition

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// The differential oracle for TryMigrate: refTryMigrate
// (oracle_ref_test.go) is the map/IntSet implementation the
// slot-indexed tables replaced. Both run the same seeded plans on
// identically built DMeshes, and the results must match exactly — every
// live handle, gid, classification, coordinate, downward handle, remote
// copy, owner, flag and tag value, the topology epochs, and the full
// sequence of mesh mutations each part saw. The mutation log is what
// pins the order of destroys, creations and restitching: a reordered
// walk that happens to land on the same final state still differs
// there, and free-list reuse makes a reordered destroy visible in the
// handles of every later creation.

// mutation is one mesh write as the mesh's guard hook reports it.
type mutation struct {
	op       string
	e        mesh.Ent
	notOwned bool
}

// recGuard records every write to one part, in order.
type recGuard struct{ log []mutation }

func (g *recGuard) CheckWrite(op string, ent fmt.Stringer, notOwned bool) {
	g.log = append(g.log, mutation{op: op, e: ent.(mesh.Ent), notOwned: notOwned})
}

func (g *recGuard) Suspend() func() { return func() {} }

type oracleMesh struct {
	name string
	dim  int
	gen  func() (*gmi.Model, *mesh.Mesh)
}

var oracleMeshes = []oracleMesh{
	{"rect2d", 2, func() (*gmi.Model, *mesh.Mesh) {
		model := gmi.Rect(3, 2)
		return model.Model, meshgen.Rect2D(model, 9, 6)
	}},
	{"box3d", 3, func() (*gmi.Model, *mesh.Mesh) {
		model := gmi.Box(2, 1, 1)
		return model.Model, meshgen.Box3D(model, 4, 3, 2)
	}},
	{"vessel3d", 3, func() (*gmi.Model, *mesh.Mesh) {
		model := gmi.Vessel(10, 1, 0.5, 1.2)
		return model.Model, meshgen.Vessel3D(model, 5, 2)
	}},
}

// oracleWorld adopts a freshly generated, tagged serial mesh on part 0
// and attaches a recording guard to every local part.
func oracleWorld(ctx *pcu.Ctx, om oracleMesh, k int) (*DMesh, []*recGuard) {
	model, serial := om.gen()
	if ctx.Rank() != 0 {
		serial = nil
	} else {
		tagSerial(serial)
	}
	dm := Adopt(ctx, model, om.dim, serial, k)
	guards := make([]*recGuard, len(dm.Parts))
	for i, p := range dm.Parts {
		guards[i] = &recGuard{}
		p.M.SetGuard(guards[i])
	}
	return dm, guards
}

// tagSerial attaches one tag of every kind, on different dimensions, so
// tag transport is part of what the oracle compares.
func tagSerial(m *mesh.Mesh) {
	mk := func(name string, kind ds.TagKind, size int) *ds.Tag {
		t, err := m.Tags.Create(name, kind, size)
		if err != nil {
			panic(err)
		}
		return t
	}
	ti := mk("oracle.int", ds.TagInt, 1)
	tf := mk("oracle.float", ds.TagFloat, 1)
	tis := mk("oracle.ints", ds.TagIntSlice, 2)
	tfs := mk("oracle.floats", ds.TagFloatSlice, 3)
	tb := mk("oracle.bytes", ds.TagBytes, 2)
	n := int64(0)
	for e := range m.Iter(0) {
		m.Tags.SetInt(ti, e, 7*n)
		n++
	}
	for e := range m.Iter(1) {
		if n%3 != 0 {
			m.Tags.SetInts(tis, e, []int64{n, -n})
		}
		n++
	}
	for e := range m.Iter(m.Dim() - 1) {
		m.Tags.SetBytes(tb, e, []byte{byte(n), byte(n >> 8)})
		n++
	}
	for e := range m.Elements() {
		m.Tags.SetFloat(tf, e, float64(n)/3)
		c := m.Centroid(e)
		m.Tags.SetFloats(tfs, e, []float64{c.X, c.Y, c.Z})
		n++
	}
}

// oracleCompare reports the first difference between two DMeshes that
// must be identical, then clears both mutation logs.
func oracleCompare(a, b *DMesh, ga, gb []*recGuard) error {
	for i := range a.Parts {
		pa, pb := a.Parts[i], b.Parts[i]
		ma, mb := pa.M, pb.M
		if ga[i] != nil && !slices.Equal(ga[i].log, gb[i].log) {
			return fmt.Errorf("part %d: mutation sequences differ: %s", ma.Part(),
				firstLogDiff(ga[i].log, gb[i].log))
		}
		if pa.counter != pb.counter || pa.nGhosts != pb.nGhosts || len(pa.ghostHome) != len(pb.ghostHome) {
			return fmt.Errorf("part %d: part bookkeeping differs", ma.Part())
		}
		if ma.TopoEpoch() != mb.TopoEpoch() {
			return fmt.Errorf("part %d: topology epoch %d vs %d", ma.Part(), ma.TopoEpoch(), mb.TopoEpoch())
		}
		if err := compareTagDirs(ma, mb); err != nil {
			return fmt.Errorf("part %d: %w", ma.Part(), err)
		}
		for t := mesh.Type(0); t < mesh.TypeCount; t++ {
			var ea, eb []mesh.Ent
			for e := range ma.IterType(t) {
				ea = append(ea, e)
			}
			for e := range mb.IterType(t) {
				eb = append(eb, e)
			}
			if !slices.Equal(ea, eb) {
				return fmt.Errorf("part %d: live %v handles differ (%d vs %d)", ma.Part(), t, len(ea), len(eb))
			}
			for _, e := range ea {
				if err := compareEntity(pa, pb, e); err != nil {
					return fmt.Errorf("part %d %v: %w", ma.Part(), e, err)
				}
			}
		}
	}
	for i := range ga {
		if ga[i] != nil {
			ga[i].log = ga[i].log[:0]
			gb[i].log = gb[i].log[:0]
		}
	}
	return nil
}

func firstLogDiff(a, b []mutation) string {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("write %d: %v %v vs %v %v", i, a[i].op, a[i].e, b[i].op, b[i].e)
		}
	}
	return fmt.Sprintf("lengths %d vs %d", len(a), len(b))
}

func compareTagDirs(ma, mb *mesh.Mesh) error {
	ta, tb := ma.Tags.Tags(), mb.Tags.Tags()
	if len(ta) != len(tb) {
		return fmt.Errorf("%d vs %d tags", len(ta), len(tb))
	}
	for j := range ta {
		if ta[j].Name != tb[j].Name || ta[j].Kind != tb[j].Kind || ta[j].Size != tb[j].Size {
			return fmt.Errorf("tag %d: %q/%v/%d vs %q/%v/%d", j,
				ta[j].Name, ta[j].Kind, ta[j].Size, tb[j].Name, tb[j].Kind, tb[j].Size)
		}
	}
	return nil
}

func compareEntity(pa, pb *Part, e mesh.Ent) error {
	ma, mb := pa.M, pb.M
	if pa.Gid(e) != pb.Gid(e) {
		return fmt.Errorf("gid %d vs %d", pa.Gid(e), pb.Gid(e))
	}
	if ma.Classification(e) != mb.Classification(e) {
		return fmt.Errorf("classification %v vs %v", ma.Classification(e), mb.Classification(e))
	}
	if ma.Owner(e) != mb.Owner(e) || ma.Flags(e) != mb.Flags(e) {
		return fmt.Errorf("owner/flags %d/%d vs %d/%d", ma.Owner(e), ma.Flags(e), mb.Owner(e), mb.Flags(e))
	}
	if e.T == mesh.Vertex {
		if ma.Coord(e) != mb.Coord(e) {
			return fmt.Errorf("coords %v vs %v", ma.Coord(e), mb.Coord(e))
		}
	} else if !slices.Equal(ma.Down(e), mb.Down(e)) {
		return fmt.Errorf("down %v vs %v", ma.Down(e), mb.Down(e))
	}
	if !slices.Equal(ma.Remotes(e), mb.Remotes(e)) {
		return fmt.Errorf("remotes %v vs %v", ma.Remotes(e), mb.Remotes(e))
	}
	tb := mb.Tags.Tags()
	for j, t := range ma.Tags.Tags() {
		u := tb[j]
		if ma.Tags.Has(t, e) != mb.Tags.Has(u, e) {
			return fmt.Errorf("tag %q presence differs", t.Name)
		}
		same := true
		switch t.Kind {
		case ds.TagInt:
			x, _ := ma.Tags.GetInt(t, e)
			y, _ := mb.Tags.GetInt(u, e)
			same = x == y
		case ds.TagFloat:
			x, _ := ma.Tags.GetFloat(t, e)
			y, _ := mb.Tags.GetFloat(u, e)
			same = x == y
		case ds.TagIntSlice:
			x, _ := ma.Tags.GetInts(t, e)
			y, _ := mb.Tags.GetInts(u, e)
			same = slices.Equal(x, y)
		case ds.TagFloatSlice:
			x, _ := ma.Tags.GetFloats(t, e)
			y, _ := mb.Tags.GetFloats(u, e)
			same = slices.Equal(x, y)
		case ds.TagBytes:
			x, _ := ma.Tags.GetBytes(t, e)
			y, _ := mb.Tags.GetBytes(u, e)
			same = bytes.Equal(x, y)
		}
		if !same {
			return fmt.Errorf("tag %q value differs", t.Name)
		}
	}
	return nil
}

// distributionPlans sends part 0's elements to slabs along x, with a
// seeded fraction scattered to random parts and some left in place.
func distributionPlans(dm *DMesh, rng *xorshift) []Plan {
	plans := make([]Plan, len(dm.Parts))
	if dm.Ctx.Rank() != 0 {
		return plans
	}
	m := dm.Parts[0].M
	n := int32(dm.NParts())
	lo, hi := 1e300, -1e300
	for v := range m.Iter(0) {
		x := m.Coord(v).X
		lo, hi = min(lo, x), max(hi, x)
	}
	plans[0] = Plan{}
	for el := range m.Elements() {
		q := int32((m.Centroid(el).X - lo) / (hi - lo + 1e-9) * float64(n))
		if r := rng.next(); r%5 == 0 {
			q = int32((r >> 8) % uint64(n))
		}
		plans[0][el] = q
	}
	return plans
}

// smallPlans is a ParMA-sized round: each part moves a few elements,
// mostly to a part it already shares a vertex with. selfMoves adds
// plan entries naming the element's own part, which must be dropped.
func smallPlans(dm *DMesh, rng *xorshift, selfMoves bool) []Plan {
	plans := make([]Plan, len(dm.Parts))
	n := uint64(dm.NParts())
	var vs []mesh.Ent
	var nb []int32
	for i, p := range dm.Parts {
		m := p.M
		plans[i] = Plan{}
		for el := range m.Elements() {
			r := rng.next()
			switch {
			case r%100 < 6:
				nb = nb[:0]
				vs = m.AdjacentTo(el, 0, vs[:0])
				for _, v := range vs {
					nb = m.AppendRemoteParts(v, nb)
				}
				if len(nb) > 0 {
					plans[i][el] = nb[(r>>8)%uint64(len(nb))]
				} else {
					plans[i][el] = int32((r >> 8) % n)
				}
			case selfMoves && r%100 < 12:
				plans[i][el] = m.Part()
			}
		}
	}
	return plans
}

// oracleStep runs the same plans through both implementations and
// compares the results.
func oracleStep(a, b *DMesh, ga, gb []*recGuard, plans []Plan, what string) error {
	if err := refTryMigrate(a, plans); err != nil {
		return fmt.Errorf("%s: reference: %w", what, err)
	}
	if err := TryMigrate(b, plans); err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	if err := oracleCompare(a, b, ga, gb); err != nil {
		return fmt.Errorf("%s: rank %d: %w", what, a.Ctx.Rank(), err)
	}
	return nil
}

// TestTryMigrateMatchesOracle runs the differential oracle over every
// mesh kind, 1, 2 and 4 parts per rank on 2 and 4 ranks: a full
// distribution from part 0, an empty round, a round of self-moves, and
// chained ParMA-sized rounds, then verifies the final mesh.
func TestTryMigrateMatchesOracle(t *testing.T) {
	for _, om := range oracleMeshes {
		for _, ranks := range []int{2, 4} {
			for _, k := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("%s/ranks=%d/k=%d", om.name, ranks, k), func(t *testing.T) {
					err := pcu.Run(ranks, func(ctx *pcu.Ctx) error {
						a, ga := oracleWorld(ctx, om, k)
						b, gb := oracleWorld(ctx, om, k)
						if err := oracleCompare(a, b, ga, gb); err != nil {
							return fmt.Errorf("builds differ: %w", err)
						}
						rng := xorshift(0x2545f4914f6cdd1d ^ uint64(ctx.Rank()+1)*0x9e3779b97f4a7c15)
						if err := oracleStep(a, b, ga, gb, distributionPlans(a, &rng), "distribution"); err != nil {
							return err
						}
						if err := oracleStep(a, b, ga, gb, make([]Plan, len(a.Parts)), "empty plans"); err != nil {
							return err
						}
						self := make([]Plan, len(a.Parts))
						for i, p := range a.Parts {
							self[i] = Plan{}
							for el := range p.M.Elements() {
								self[i][el] = p.M.Part()
							}
						}
						if err := oracleStep(a, b, ga, gb, self, "self-moves"); err != nil {
							return err
						}
						for round := 0; round < 4; round++ {
							plans := smallPlans(a, &rng, round%2 == 1)
							if err := oracleStep(a, b, ga, gb, plans, fmt.Sprintf("round %d", round)); err != nil {
								return err
							}
						}
						return Verify(b)
					})
					if err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
