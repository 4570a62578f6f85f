package mesh_test

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/vec"
)

// The reference implementation below is the original, allocating
// topology query code: level-by-level Adjacent with a quadratic
// appendUnique and a reflective sort, FindFromVerts as a sorted scan of
// the first vertex's upward adjacency, and map-based region vertex
// recovery. It uses only the public one-level API (Down, Up), so the
// differential test below checks the array-walking fast paths against
// a definition that shares none of their logic.

func refAdjacent(m *mesh.Mesh, e mesh.Ent, dim int) []mesh.Ent {
	ed := e.Dim()
	if dim == ed {
		return nil
	}
	cur := []mesh.Ent{e}
	for d := ed; d < dim; d++ {
		cur = refStepUp(m, cur)
	}
	for d := ed; d > dim; d-- {
		cur = refStepDown(m, cur)
	}
	sort.Slice(cur, func(i, j int) bool { return cur[i].Less(cur[j]) })
	return cur
}

func refAppendUnique(out []mesh.Ent, e mesh.Ent) []mesh.Ent {
	for _, x := range out {
		if x == e {
			return out
		}
	}
	return append(out, e)
}

func refStepUp(m *mesh.Mesh, ents []mesh.Ent) []mesh.Ent {
	var out []mesh.Ent
	for _, e := range ents {
		for _, u := range m.Up(e) {
			out = refAppendUnique(out, u)
		}
	}
	return out
}

func refStepDown(m *mesh.Mesh, ents []mesh.Ent) []mesh.Ent {
	var out []mesh.Ent
	for _, e := range ents {
		for _, d := range m.Down(e) {
			out = refAppendUnique(out, d)
		}
	}
	return out
}

func refBridgeAdjacent(m *mesh.Mesh, e mesh.Ent, bridgeDim, targetDim int) []mesh.Ent {
	seen := map[mesh.Ent]bool{e: true}
	var out []mesh.Ent
	for _, b := range refAdjacent(m, e, bridgeDim) {
		for _, t := range refAdjacent(m, b, targetDim) {
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

func refVerts(m *mesh.Mesh, e mesh.Ent) []mesh.Ent {
	switch e.Dim() {
	case 0:
		return []mesh.Ent{e}
	case 1:
		return m.Down(e)
	case 2:
		return refFaceVerts(m, e)
	default:
		return refRegionVerts(m, e)
	}
}

func refFaceVerts(m *mesh.Mesh, f mesh.Ent) []mesh.Ent {
	edges := m.Down(f)
	n := len(edges)
	out := make([]mesh.Ent, n)
	for i := 0; i < n; i++ {
		out[i] = refSharedVert(m, edges[(i+n-1)%n], edges[i])
	}
	return out
}

func refSharedVert(m *mesh.Mesh, e1, e2 mesh.Ent) mesh.Ent {
	for _, v1 := range m.Down(e1) {
		for _, v2 := range m.Down(e2) {
			if v1 == v2 {
				return v1
			}
		}
	}
	panic(fmt.Sprintf("edges %v and %v share no vertex", e1, e2))
}

func refRegionVerts(m *mesh.Mesh, r mesh.Ent) []mesh.Ent {
	faces := m.Down(r)
	base := refFaceVerts(m, faces[0])
	inBase := map[mesh.Ent]bool{}
	for _, v := range base {
		inBase[v] = true
	}
	switch r.T {
	case mesh.Tet, mesh.Pyramid:
		for _, v := range refFaceVerts(m, faces[1]) {
			if !inBase[v] {
				return append(base, v)
			}
		}
		panic(fmt.Sprintf("%v has no apex vertex", r))
	default:
		top := refFaceVerts(m, faces[1])
		inTop := map[mesh.Ent]bool{}
		for _, v := range top {
			inTop[v] = true
		}
		out := append([]mesh.Ent{}, base...)
		for _, v := range base {
			partner := mesh.NilEnt
			for _, edge := range refAdjacent(m, v, 1) {
				d := m.Down(edge)
				o := d[0]
				if o == v {
					o = d[1]
				}
				if inTop[o] && refEdgeInRegion(m, edge, r) {
					partner = o
					break
				}
			}
			if !partner.Ok() {
				panic(fmt.Sprintf("no vertical partner for %v in %v", v, r))
			}
			out = append(out, partner)
		}
		return out
	}
}

func refEdgeInRegion(m *mesh.Mesh, edge, r mesh.Ent) bool {
	for _, f := range refAdjacent(m, edge, 2) {
		if slices.Contains(m.Up(f), r) {
			return true
		}
	}
	return false
}

func refFindFromVerts(m *mesh.Mesh, t mesh.Type, verts []mesh.Ent) mesh.Ent {
	if t == mesh.Vertex {
		return verts[0]
	}
	if t == mesh.Edge {
		// The first edge in use-list order whose vertex multiset is
		// verts.
		for _, e := range m.Up(verts[0]) {
			d := m.Down(e)
			if len(verts) == 2 && ((d[0] == verts[0] && d[1] == verts[1]) ||
				(d[0] == verts[1] && d[1] == verts[0])) {
				return e
			}
		}
		return mesh.NilEnt
	}
	for _, cand := range refAdjacent(m, verts[0], t.Dim()) {
		if cand.T == t && refVertSetEquals(m, cand, verts) {
			return cand
		}
	}
	return mesh.NilEnt
}

func refVertSetEquals(m *mesh.Mesh, e mesh.Ent, verts []mesh.Ent) bool {
	have := refAdjacent(m, e, 0)
	if len(have) != len(verts) {
		return false
	}
	for _, want := range verts {
		if !slices.Contains(have, want) {
			return false
		}
	}
	return true
}

type oracleRNG uint64

func (x *oracleRNG) intn(n int) int {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = oracleRNG(v)
	return int(v % uint64(n))
}

// mixedBlock builds one layer of nx x ny unit cells cycling through a
// hex, two prisms split on the cell's diagonal, and six pyramids about
// the cell centre, so every region type shares quad faces with its
// neighbours.
func mixedBlock(nx, ny int) *mesh.Mesh {
	m := mesh.New(nil, 3)
	grid := make([]mesh.Ent, (nx+1)*(ny+1)*2)
	at := func(i, j, k int) mesh.Ent { return grid[(k*(ny+1)+j)*(nx+1)+i] }
	for k := 0; k <= 1; k++ {
		for j := 0; j <= ny; j++ {
			for i := 0; i <= nx; i++ {
				grid[(k*(ny+1)+j)*(nx+1)+i] = m.CreateVertex(gmi.NoRef,
					vec.V{X: float64(i), Y: float64(j), Z: float64(k)})
			}
		}
	}
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			c := [8]mesh.Ent{
				at(i, j, 0), at(i+1, j, 0), at(i+1, j+1, 0), at(i, j+1, 0),
				at(i, j, 1), at(i+1, j, 1), at(i+1, j+1, 1), at(i, j+1, 1),
			}
			switch (i + j) % 3 {
			case 0:
				m.BuildFromVerts(mesh.Hex, c[:], gmi.NoRef)
			case 1:
				m.BuildFromVerts(mesh.Prism, []mesh.Ent{c[0], c[1], c[2], c[4], c[5], c[6]}, gmi.NoRef)
				m.BuildFromVerts(mesh.Prism, []mesh.Ent{c[0], c[2], c[3], c[4], c[6], c[7]}, gmi.NoRef)
			case 2:
				apex := m.CreateVertex(gmi.NoRef, vec.V{X: float64(i) + 0.5, Y: float64(j) + 0.5, Z: 0.5})
				for _, q := range [6][4]int{
					{0, 1, 2, 3}, {4, 7, 6, 5}, {0, 4, 5, 1},
					{1, 5, 6, 2}, {2, 6, 7, 3}, {3, 7, 4, 0},
				} {
					m.BuildFromVerts(mesh.Pyramid,
						[]mesh.Ent{c[q[0]], c[q[1]], c[q[2]], c[q[3]], apex}, gmi.NoRef)
				}
			}
		}
	}
	return m
}

type namedMesh struct {
	name string
	m    *mesh.Mesh
}

// oracleMeshes returns the differential test's inputs, including
// meshes taken mid-way through refinement and coarsening rounds (whose
// entity slots have been freed and reused).
func oracleMeshes(t *testing.T) []namedMesh {
	graded := func(p vec.V) float64 { return 0.12 + 0.5*p.X }
	ref := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	co := meshgen.Box3D(gmi.Box(1, 1, 1), 2, 2, 2)
	rect := meshgen.Rect2D(gmi.Rect(1, 1), 3, 3)
	if adapt.Refine(ref, graded, adapt.NopTransfer{}, 1) == 0 ||
		adapt.Refine(co, graded, adapt.NopTransfer{}, 2) == 0 ||
		adapt.Coarsen(co, func(vec.V) float64 { return 0.4 }, adapt.NopTransfer{}, 1) == 0 ||
		adapt.Refine(rect, graded, adapt.NopTransfer{}, 1) == 0 {
		t.Fatal("adaptation left an oracle mesh unmodified")
	}
	return []namedMesh{
		{"box", meshgen.Box3D(gmi.Box(1, 1, 1), 3, 3, 2)},
		{"vessel", meshgen.Vessel3D(gmi.Vessel(10, 1, 0.5, 1), 4, 2)},
		{"mixed", mixedBlock(4, 3)},
		{"refine1", ref},
		{"coarsen1", co},
		{"rect-refine1", rect},
	}
}

// TestAdjacencyOracle checks every topology fast path against the
// reference implementation, entity for entity and in order.
func TestAdjacencyOracle(t *testing.T) {
	for _, nm := range oracleMeshes(t) {
		m := nm.m
		t.Run(nm.name, func(t *testing.T) {
			if err := m.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
			rng := oracleRNG(0x9e3779b97f4a7c15)
			var allVerts []mesh.Ent
			for v := range m.Iter(0) {
				allVerts = append(allVerts, v)
			}
			prefix := []mesh.Ent{mesh.NilEnt, {T: mesh.Hex, I: 7}}
			buf := append([]mesh.Ent{}, prefix...)
			finds := 0
			for d := 0; d <= m.Dim(); d++ {
				for e := range m.Iter(d) {
					for dim := 0; dim <= m.Dim(); dim++ {
						want := refAdjacent(m, e, dim)
						if got := m.Adjacent(e, dim); !slices.Equal(got, want) {
							t.Fatalf("Adjacent(%v, %d) = %v, want %v", e, dim, got, want)
						}
						buf = m.AdjacentTo(e, dim, buf[:len(prefix)])
						if !slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], want) {
							t.Fatalf("AdjacentTo(%v, %d) = %v, want %v after %v", e, dim, buf, want, prefix)
						}
						for td := 0; td <= m.Dim(); td++ {
							want := refBridgeAdjacent(m, e, dim, td)
							if got := m.BridgeAdjacent(e, dim, td); !slices.Equal(got, want) {
								t.Fatalf("BridgeAdjacent(%v, %d, %d) = %v, want %v", e, dim, td, got, want)
							}
						}
					}
					if got, want := m.UpCount(e), len(m.Up(e)); got != want {
						t.Fatalf("UpCount(%v) = %d, want %d", e, got, want)
					}
					vs := refVerts(m, e)
					if got := m.Verts(e); !slices.Equal(got, vs) {
						t.Fatalf("Verts(%v) = %v, want %v", e, got, vs)
					}
					buf = m.VertsTo(e, buf[:len(prefix)])
					if !slices.Equal(buf[:len(prefix)], prefix) || !slices.Equal(buf[len(prefix):], vs) {
						t.Fatalf("VertsTo(%v) = %v, want %v after %v", e, buf, vs, prefix)
					}
					for _, q := range findQueries(&rng, vs, allVerts) {
						for _, ty := range queryTypes(len(q)) {
							finds++
							want := refFindFromVerts(m, ty, q)
							if got := m.FindFromVerts(ty, q); got != want {
								t.Fatalf("FindFromVerts(%v, %v) = %v, want %v", ty, q, got, want)
							}
						}
					}
				}
			}
			if finds == 0 {
				t.Fatal("no FindFromVerts queries ran")
			}
		})
	}
}

// findQueries derives FindFromVerts inputs from an entity's vertices:
// the vertices as stored, a random permutation, one vertex repeated,
// one vertex replaced by a random mesh vertex (usually naming no
// entity), and the first vertex alone repeated.
func findQueries(rng *oracleRNG, vs, all []mesh.Ent) [][]mesh.Ent {
	n := len(vs)
	if n < 2 {
		return nil
	}
	perm := slices.Clone(vs)
	for i := n - 1; i > 0; i-- {
		j := rng.intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	rep := slices.Clone(perm)
	rep[rng.intn(n)] = rep[rng.intn(n)]
	other := slices.Clone(perm)
	other[rng.intn(n)] = all[rng.intn(len(all))]
	same := make([]mesh.Ent, n)
	for i := range same {
		same[i] = vs[0]
	}
	return [][]mesh.Ent{slices.Clone(vs), perm, rep, other, same}
}

// queryTypes lists the non-vertex types with n canonical vertices.
func queryTypes(n int) []mesh.Type {
	var out []mesh.Type
	for ty := mesh.Edge; ty < mesh.TypeCount; ty++ {
		if ty.VertCount() == n {
			out = append(out, ty)
		}
	}
	return out
}
