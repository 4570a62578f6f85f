package mesh_test

import (
	"slices"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
)

// Allocation-regression tests: the topology queries walk the stored
// downward arrays and use-lists, so finding an entity and filling a
// caller buffer never touch the garbage collector. They are skipped
// under -race (instrumentation changes allocation behavior); CI runs
// them in the plain test lane.

func allocGate(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// firstOf returns the first live entity of type ty.
func firstOf(t *testing.T, m *mesh.Mesh, ty mesh.Type) mesh.Ent {
	t.Helper()
	for e := range m.IterType(ty) {
		return e
	}
	t.Fatalf("no %v in mesh", ty)
	return mesh.NilEnt
}

func TestFindFromVertsZeroAlloc(t *testing.T) {
	allocGate(t)
	box := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	mixed := mixedBlock(3, 1)
	for _, c := range []struct {
		m  *mesh.Mesh
		ty mesh.Type
	}{
		{box, mesh.Edge}, {box, mesh.Tri}, {box, mesh.Tet},
		{mixed, mesh.Quad}, {mixed, mesh.Hex},
	} {
		e := firstOf(t, c.m, c.ty)
		vs := c.m.Verts(e)
		vs[0], vs[len(vs)-1] = vs[len(vs)-1], vs[0]
		var got mesh.Ent
		if n := testing.AllocsPerRun(100, func() { got = c.m.FindFromVerts(c.ty, vs) }); n != 0 {
			t.Errorf("FindFromVerts(%v): %v allocs/op, want 0", c.ty, n)
		}
		if got != e {
			t.Errorf("FindFromVerts(%v) = %v, want %v", c.ty, got, e)
		}
	}
}

func TestAdjacentToZeroAlloc(t *testing.T) {
	allocGate(t)
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	v := mesh.NilEnt
	for x := range m.Iter(0) {
		if v == mesh.NilEnt || m.UpCount(x) > m.UpCount(v) {
			v = x
		}
	}
	tet := firstOf(t, m, mesh.Tet)
	buf := make([]mesh.Ent, 0, 64)
	if n := testing.AllocsPerRun(100, func() {
		buf = m.AdjacentTo(v, 3, buf[:0])
		buf = m.AdjacentTo(tet, 0, buf[:0])
		buf = m.AdjacentTo(tet, 1, buf[:0])
	}); n != 0 {
		t.Errorf("AdjacentTo: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = m.VertsTo(tet, buf[:0]) }); n != 0 {
		t.Errorf("VertsTo: %v allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf = m.Verts(tet) }); n > 1 {
		t.Errorf("Verts: %v allocs/op, want at most 1", n)
	}
}

func TestMeasureZeroAlloc(t *testing.T) {
	allocGate(t)
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	for _, ty := range []mesh.Type{mesh.Edge, mesh.Tri, mesh.Tet} {
		e := firstOf(t, m, ty)
		var got float64
		if n := testing.AllocsPerRun(100, func() { got = m.Measure(e) }); n != 0 {
			t.Errorf("Measure(%v): %v allocs/op, want 0", ty, n)
		}
		if got <= 0 {
			t.Errorf("Measure(%v) = %v, want > 0", ty, got)
		}
	}
}

// TestAppendResidenceZeroAlloc pins the residence query into a caller
// buffer and checks it against Residence: ascending, this part merged
// in wherever it falls among the peers.
func TestAppendResidenceZeroAlloc(t *testing.T) {
	allocGate(t)
	m := meshgen.Box3D(gmi.Box(1, 1, 1), 1, 1, 1)
	m.SetPart(5)
	v := firstOf(t, m, mesh.Vertex)
	for _, p := range []int32{9, 2, 7} {
		m.SetRemote(v, p, v)
	}
	buf := make([]int32, 0, 8)
	if n := testing.AllocsPerRun(100, func() { buf = m.AppendResidence(v, buf[:0]) }); n != 0 {
		t.Errorf("AppendResidence: %v allocs/op, want 0", n)
	}
	want := []int32{2, 5, 7, 9}
	if !slices.Equal(buf, want) || !slices.Equal(m.Residence(v).Values(), want) {
		t.Errorf("residence %v / %v, want %v", buf, m.Residence(v).Values(), want)
	}
	for _, part := range []int32{0, 10} {
		m.SetPart(part)
		got := m.AppendResidence(v, nil)
		if !slices.IsSorted(got) || len(got) != 4 || !slices.Contains(got, part) {
			t.Errorf("part %d: residence %v", part, got)
		}
	}
	e := firstOf(t, m, mesh.Edge)
	if got := m.AppendResidence(e, buf[:0]); !slices.Equal(got, []int32{10}) {
		t.Errorf("unshared residence %v, want [10]", got)
	}
}
