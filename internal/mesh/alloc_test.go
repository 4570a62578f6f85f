package mesh_test

import (
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
