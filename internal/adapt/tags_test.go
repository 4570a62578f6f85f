package adapt

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/field"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// bothTransfer carries a linear and a quadratic field through the same
// modification.
type bothTransfer struct {
	lin  *FieldTransfer
	quad *QuadraticFieldTransfer
}

func (b bothTransfer) EdgeSplit(m *mesh.Mesh, edge, mid mesh.Ent) {
	b.lin.EdgeSplit(m, edge, mid)
	b.quad.EdgeSplit(m, edge, mid)
}

func (b bothTransfer) EdgeSplitDone(m *mesh.Mesh, a, bv, mid mesh.Ent) {
	b.quad.EdgeSplitDone(m, a, bv, mid)
}

func (b bothTransfer) Collapse(m *mesh.Mesh, removed, kept mesh.Ent) {}

// tagRecord renders every tag's data on e bit-exactly, tags in name
// order, so records compare across meshes whose tag ids differ.
func tagRecord(m *mesh.Mesh, e mesh.Ent) string {
	tags := slices.Clone(m.Tags.Tags())
	slices.SortFunc(tags, func(a, b *ds.Tag) int { return strings.Compare(a.Name, b.Name) })
	var out bytes.Buffer
	for _, t := range tags {
		if !m.Tags.Has(t, e) {
			continue
		}
		fmt.Fprintf(&out, "%s:", t.Name)
		switch t.Kind {
		case ds.TagInt:
			v, _ := m.Tags.GetInt(t, e)
			fmt.Fprint(&out, v)
		case ds.TagFloat:
			v, _ := m.Tags.GetFloat(t, e)
			fmt.Fprint(&out, math.Float64bits(v))
		case ds.TagIntSlice:
			v, _ := m.Tags.GetInts(t, e)
			fmt.Fprint(&out, v)
		case ds.TagFloatSlice:
			v, _ := m.Tags.GetFloats(t, e)
			for _, x := range v {
				fmt.Fprint(&out, math.Float64bits(x), ",")
			}
		case ds.TagBytes:
			v, _ := m.Tags.GetBytes(t, e)
			fmt.Fprintf(&out, "%x", v)
		}
		out.WriteByte(';')
	}
	return out.String()
}

// entKey names an entity independently of its handle: its type and the
// bit patterns of its sorted vertex coordinates.
func entKey(m *mesh.Mesh, e mesh.Ent) string {
	var pts [][3]uint64
	for _, v := range m.Verts(e) {
		p := m.Coord(v)
		pts = append(pts, [3]uint64{math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Z)})
	}
	slices.SortFunc(pts, func(a, b [3]uint64) int { return slices.Compare(a[:], b[:]) })
	return fmt.Sprint(e.T, pts)
}

// TestTagsThroughAdaptSaveLoadAndMigrate runs the dense tag store
// through the mesh operations that recycle and move entity slots:
// Coarsen/Refine rounds (destroyed slots are reused by new entities), a
// meshio save/load, and a partition.Migrate. A new entity must start
// with no tag data even in a recycled slot, every tag value must be
// one the entity was given, and save/load and migration must carry
// every kind of tag bit-identically.
func TestTagsThroughAdaptSaveLoadAndMigrate(t *testing.T) {
	model := gmi.Box(1, 1, 1)
	m := meshgen.Box3D(model, 4, 4, 4)
	lin := func(p vec.V) []float64 { return []float64{p.X + 2*p.Y - p.Z, 3 * p.Z} }
	quad := func(p vec.V) []float64 { return []float64{p.X*p.X - 2*p.Y*p.Y + p.X*p.Z + 3*p.Y - 1} }
	u, err := field.New(m, "u", 2, field.Linear)
	if err != nil {
		t.Fatal(err)
	}
	q, err := field.New(m, "q", 1, field.Quadratic)
	if err != nil {
		t.Fatal(err)
	}
	u.SetByFunc(lin)
	q.SetByFunc(quad)

	// given holds the entities written since their creation; OnCreate
	// checks a new entity carries nothing, recycled slot or not.
	given := map[mesh.Ent]bool{}
	prevOnSet := m.Tags.OnSet
	m.Tags.OnSet = func(e mesh.Ent) {
		given[e] = true
		prevOnSet(e)
	}
	for d := 0; d <= 3; d++ {
		for e := range m.Iter(d) {
			given[e] = true
		}
	}
	var highest [mesh.TypeCount]int32
	for ty := mesh.Type(0); ty < mesh.TypeCount; ty++ {
		highest[ty] = -1
		for e := range m.IterType(ty) {
			highest[ty] = max(highest[ty], e.I)
		}
	}
	recycled := 0
	m.OnCreate(func(e mesh.Ent) {
		delete(given, e)
		if e.I <= highest[e.T] {
			recycled++
		} else {
			highest[e.T] = e.I
		}
		for _, tag := range m.Tags.Tags() {
			if m.Tags.Has(tag, e) {
				t.Errorf("new %v carries %q data it was never given", e, tag.Name)
			}
		}
	})
	checkGiven := func(stage string) {
		t.Helper()
		for d := 0; d <= 3; d++ {
			for e := range m.Iter(d) {
				if !given[e] && tagRecord(m, e) != "" {
					t.Fatalf("%s: %v reports %q but was never given a value", stage, e, tagRecord(m, e))
				}
			}
		}
	}
	checkExact := func(stage string, f *field.Field, fn func(vec.V) []float64) {
		t.Helper()
		for _, d := range f.Shape().NodeDims() {
			for e := range m.Iter(d) {
				got, ok := f.Get(e)
				want := fn(m.Centroid(e))
				if !ok {
					t.Fatalf("%s: %v lost its %s node", stage, e, f.Name())
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-9 {
						t.Fatalf("%s: %s at %v = %v, want %v", stage, f.Name(), e, got, want)
					}
				}
			}
		}
	}

	tr := bothTransfer{NewFieldTransfer("u"), NewQuadraticFieldTransfer("q")}
	for round := 0; round < 3; round++ {
		// Quadratic transfer does not cover collapses: coarsening leaves
		// new edges without a q node, which must read as unset.
		if Coarsen(m, Uniform(0.9), tr.lin, 3) == 0 {
			t.Fatalf("round %d: no collapses", round)
		}
		checkGiven(fmt.Sprintf("round %d coarsen", round))
		checkExact(fmt.Sprintf("round %d coarsen", round), u, lin)
		q.SetByFunc(quad) // re-evaluate after collapse
		if Refine(m, Uniform(0.35), tr, 3) == 0 {
			t.Fatalf("round %d: no splits", round)
		}
		checkGiven(fmt.Sprintf("round %d refine", round))
		checkExact(fmt.Sprintf("round %d refine", round), u, lin)
		checkExact(fmt.Sprintf("round %d refine", round), q, quad)
	}
	if recycled == 0 {
		t.Fatal("no entity reused a destroyed slot; the test exercises nothing")
	}
	if err := m.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	m.Tags.OnSet = prevOnSet

	// Every kind, on a sparse subset of each dimension.
	mk := func(name string, kind ds.TagKind, size int) *ds.Tag {
		tag, err := m.Tags.Create(name, kind, size)
		if err != nil {
			t.Fatal(err)
		}
		return tag
	}
	tn, tw := mk("n", ds.TagInt, 0), mk("w", ds.TagFloat, 0)
	tids, tflag := mk("ids", ds.TagIntSlice, 2), mk("flag", ds.TagBytes, 3)
	i := 0
	for d := 0; d <= 3; d++ {
		for e := range m.Iter(d) {
			i++
			switch i % 5 {
			case 0:
				m.Tags.SetInt(tn, e, int64(i)<<40-7)
			case 1:
				m.Tags.SetFloat(tw, e, math.Sqrt(float64(i)))
			case 2:
				m.Tags.SetInts(tids, e, []int64{int64(i), -int64(e.I)})
			case 3:
				m.Tags.SetBytes(tflag, e, []byte{byte(i), byte(e.T), 0xff})
			}
		}
	}

	// Save/load: entity order is file order, so records align.
	var buf bytes.Buffer
	if err := meshio.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := meshio.Read(&buf, model.Model)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d <= 3; d++ {
		var a, b []string
		for e := range m.Iter(d) {
			a = append(a, entKey(m, e)+" "+tagRecord(m, e))
		}
		for e := range m2.Iter(d) {
			b = append(b, entKey(m2, e)+" "+tagRecord(m2, e))
		}
		if !slices.Equal(a, b) {
			t.Fatalf("dimension %d: save/load changed tag data", d)
		}
	}

	// Migration: every copy of every entity carries its original record.
	want := map[string]string{}
	var elems []mesh.Ent
	for d := 0; d <= 3; d++ {
		for e := range m.Iter(d) {
			want[entKey(m, e)] = tagRecord(m, e)
		}
	}
	for el := range m.Elements() {
		elems = append(elems, el)
	}
	var mu sync.Mutex
	seen := map[string]bool{}
	err = pcu.Run(2, func(ctx *pcu.Ctx) error {
		var serial *mesh.Mesh
		var assign map[mesh.Ent]int32
		if ctx.Rank() == 0 {
			serial = m
			assign = map[mesh.Ent]int32{}
			for _, el := range elems {
				assign[el] = int32(m.Centroid(el).X * 4 / 1.0001)
			}
		}
		dm := partition.Adopt(ctx, model.Model, 3, serial, 2)
		partition.Migrate(dm, partition.PlansFromAssignment(dm, assign))
		for _, part := range dm.Parts {
			pm := part.M
			for d := 0; d <= 3; d++ {
				for e := range pm.Iter(d) {
					k := entKey(pm, e)
					if got := tagRecord(pm, e); got != want[k] {
						return fmt.Errorf("part %d %v: tags %q after migration, want %q", pm.Part(), e, got, want[k])
					}
					mu.Lock()
					seen[k] = true
					mu.Unlock()
				}
			}
		}
		return partition.Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatalf("migration kept %d of %d entities", len(seen), len(want))
	}
}
