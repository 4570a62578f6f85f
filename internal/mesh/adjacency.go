package mesh

import (
	"fmt"
	"slices"

	"github.com/fastmath/pumi-go/internal/gmi"
)

// Down returns e's one-level downward adjacent entities in canonical
// order. The returned slice is freshly allocated; use DownTo to reuse a
// buffer in hot loops.
func (m *Mesh) Down(e Ent) []Ent {
	return m.DownTo(e, nil)
}

// DownTo appends e's one-level downward adjacencies to buf and returns
// it.
func (m *Mesh) DownTo(e Ent, buf []Ent) []Ent {
	return append(buf, m.down(e)...)
}

// Up returns the one-level upward adjacent entities of e (most recently
// created first — the use-list order). The slice is freshly allocated;
// use UpTo to reuse a buffer.
func (m *Mesh) Up(e Ent) []Ent {
	return m.UpTo(e, nil)
}

// UpTo appends e's one-level upward adjacencies to buf and returns it.
// An entity may appear once per use (e.g. both end vertices of a
// collapsed edge); uses of the same entity are deduplicated.
func (m *Mesh) UpTo(e Ent, buf []Ent) []Ent {
	start := len(buf)
	for u := m.td[e.T].firstUse[e.I]; u.e.Ok(); u = m.useNext(u) {
		dup := false
		for _, prev := range buf[start:] {
			if prev == u.e {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, u.e)
		}
	}
	return buf
}

// UpCount returns the number of distinct one-level upward adjacencies.
// It walks the use-list, counting a use only when no earlier use names
// the same entity, so it never allocates.
func (m *Mesh) UpCount(e Ent) int {
	n := 0
	first := m.td[e.T].firstUse[e.I]
	for u := first; u.e.Ok(); u = m.useNext(u) {
		p := first
		for p != u && p.e != u.e {
			p = m.useNext(p)
		}
		if p == u {
			n++
		}
	}
	return n
}

// HasUp reports whether e bounds any higher-dimension entity.
func (m *Mesh) HasUp(e Ent) bool { return m.td[e.T].firstUse[e.I].e.Ok() }

// down returns a read-only view of e's stored downward adjacencies.
func (m *Mesh) down(e Ent) []Ent {
	td := &m.td[e.T]
	base := int(e.I) * td.degree
	return td.down[base : base+td.degree]
}

// Adjacent returns the entities of dimension dim adjacent to e,
// traversing one level at a time through the complete representation.
// Same-dimension queries return nil (use BridgeAdjacent for
// second-order adjacency). Results are deduplicated and sorted for
// determinism. The result is freshly allocated; use AdjacentTo to
// reuse a buffer in hot loops.
func (m *Mesh) Adjacent(e Ent, dim int) []Ent {
	var tmp [64]Ent // holds two levels of a typical vertex's star
	adj := m.AdjacentTo(e, dim, tmp[:0])
	if len(adj) == 0 {
		return nil
	}
	return slices.Clone(adj)
}

// AdjacentTo appends the entities Adjacent(e, dim) returns, in the same
// order, to buf and returns it. It walks the stored downward arrays and
// use-lists one level at a time, keeping each deduplicated level in
// buf, so it allocates only when buf must grow.
func (m *Mesh) AdjacentTo(e Ent, dim int, buf []Ent) []Ent {
	ed := e.Dim()
	if dim == ed {
		return buf
	}
	step := 1
	if dim < ed {
		step = -1
	}
	start := len(buf)
	buf = append(buf, e)
	for d := ed; d != dim; d += step {
		next := len(buf)
		for _, x := range buf[start:next] {
			if step > 0 {
				for u := m.td[x.T].firstUse[x.I]; u.e.Ok(); u = m.useNext(u) {
					buf = appendUnique(buf, next, u.e)
				}
			} else {
				for _, y := range m.down(x) {
					buf = appendUnique(buf, next, y)
				}
			}
		}
		buf = buf[:start+copy(buf[start:], buf[next:])]
	}
	slices.SortFunc(buf[start:], cmpEnt)
	return buf
}

func cmpEnt(a, b Ent) int {
	switch {
	case a.Less(b):
		return -1
	case b.Less(a):
		return 1
	}
	return 0
}

// appendUnique adds e to buf unless buf[start:] holds it. Local
// adjacency sets are small (bounded by valence), so a linear scan beats
// hashing.
func appendUnique(buf []Ent, start int, e Ent) []Ent {
	if slices.Contains(buf[start:], e) {
		return buf
	}
	return append(buf, e)
}

// BridgeAdjacent returns the second-order adjacency of e: entities of
// dimension targetDim reachable through shared entities of dimension
// bridgeDim (e.g. the elements sharing a face with an element). e
// itself is excluded; results are sorted.
func (m *Mesh) BridgeAdjacent(e Ent, bridgeDim, targetDim int) []Ent {
	var bridges, targets [64]Ent
	var out []Ent
	for _, b := range m.AdjacentTo(e, bridgeDim, bridges[:0]) {
		for _, t := range m.AdjacentTo(b, targetDim, targets[:0]) {
			if t != e {
				out = append(out, t)
			}
		}
	}
	slices.SortFunc(out, cmpEnt)
	return slices.Compact(out)
}

// Verts returns e's vertices in an order consistent with the canonical
// templates in downVerts: for faces the edge cycle order, for regions
// an order with the base face first. Regions may be returned in a
// rotation/reflection of their creation order; all derived quantities
// (volumes, shape functions) treat that as an equivalent labeling.
// Only the result is allocated; VertsTo fills a caller buffer.
func (m *Mesh) Verts(e Ent) []Ent {
	return m.VertsTo(e, make([]Ent, 0, e.T.VertCount()))
}

// VertsTo appends Verts(e) to buf and returns it; it allocates only
// when buf must grow.
func (m *Mesh) VertsTo(e Ent, buf []Ent) []Ent {
	switch e.Dim() {
	case 0:
		return append(buf, e)
	case 1:
		return append(buf, m.down(e)...)
	case 2:
		vs, n := m.faceVerts(e)
		return append(buf, vs[:n]...)
	default:
		vs, n := m.regionVerts(e)
		return append(buf, vs[:n]...)
	}
}

// faceVerts recovers a face's n-vertex cycle from its edges: vertex i
// is the vertex shared by edges i-1 and i.
func (m *Mesh) faceVerts(f Ent) (out [4]Ent, n int) {
	edges := m.down(f)
	n = len(edges)
	for i := 0; i < n; i++ {
		out[i] = m.sharedVert(edges[(i+n-1)%n], edges[i])
	}
	return out, n
}

func (m *Mesh) sharedVert(e1, e2 Ent) Ent {
	b := m.down(e2)
	for _, v := range m.down(e1) {
		if v == b[0] || v == b[1] {
			return v
		}
	}
	panic(fmt.Sprintf("mesh: edges %v and %v share no vertex", e1, e2))
}

// regionVerts recovers a region's n vertices: the base face's cycle
// plus the remaining vertices matched through mesh edges.
func (m *Mesh) regionVerts(r Ent) (out [8]Ent, n int) {
	faces := m.down(r)
	base, nb := m.faceVerts(faces[0])
	top, nt := m.faceVerts(faces[1])
	n = copy(out[:], base[:nb])
	switch r.T {
	case Tet, Pyramid:
		// One apex vertex: any vertex of the second face not in the base.
		for _, v := range top[:nt] {
			if !slices.Contains(base[:nb], v) {
				out[n] = v
				return out, n + 1
			}
		}
		panic(fmt.Sprintf("mesh: %v has no apex vertex", r))
	case Hex, Prism:
		// Top face vertices matched to base vertices through vertical
		// mesh edges of this region.
		for _, v := range base[:nb] {
			partner := m.verticalPartner(r, v, top[:nt])
			if !partner.Ok() {
				panic(fmt.Sprintf("mesh: no vertical partner for %v in %v", v, r))
			}
			out[n] = partner
			n++
		}
		return out, n
	}
	panic(fmt.Sprintf("mesh: Verts unsupported for %v", r.T))
}

// verticalPartner returns the top vertex joined to base vertex v by an
// edge of region r, or NilEnt. If several edges qualify, the one with
// the lowest handle wins.
func (m *Mesh) verticalPartner(r, v Ent, top []Ent) Ent {
	bestEdge, partner := NilEnt, NilEnt
	for _, f := range m.down(r) {
		for _, edge := range m.down(f) {
			ev := m.down(edge)
			o := ev[0]
			switch v {
			case ev[0]:
				o = ev[1]
			case ev[1]:
			default:
				continue
			}
			if slices.Contains(top, o) && (!bestEdge.Ok() || edge.Less(bestEdge)) {
				bestEdge, partner = edge, o
			}
		}
	}
	return partner
}

// FindByDown returns the live entity of type t whose downward set
// equals the given entities (order-insensitive), or NilEnt.
func (m *Mesh) FindByDown(t Type, down []Ent) Ent {
	d0 := down[0]
	for u := m.td[d0.T].firstUse[d0.I]; u.e.Ok(); u = m.useNext(u) {
		if u.e.T != t {
			continue
		}
		if m.downSetEquals(u.e, down) {
			return u.e
		}
	}
	return NilEnt
}

func (m *Mesh) downSetEquals(e Ent, down []Ent) bool {
	have := m.down(e)
	if len(have) != len(down) {
		return false
	}
	// Multiset equality: each stored entity may be matched once.
	var used [8]bool
	for _, want := range down {
		found := false
		for k, h := range have {
			if !used[k] && h == want {
				used[k] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// FindFromVerts returns the live entity of type t whose vertex set
// equals verts, or NilEnt. If several entities match (verts repeating
// a vertex), the lowest handle wins.
//
// Candidates are found by downward identity, walking up from an entity
// every match must bound: for a simplex the edge joining verts[0] to
// another listed vertex (every vertex pair of a simplex is an edge),
// for other types verts[0] itself. The query never allocates.
func (m *Mesh) FindFromVerts(t Type, verts []Ent) Ent {
	switch t {
	case Vertex:
		return verts[0]
	case Edge:
		return m.FindByDown(Edge, verts)
	}
	q := vertQuery{t: t, verts: verts, distinct: len(verts) <= 32}
	for i, v := range verts {
		if slices.Contains(verts[:i], v) {
			q.distinct = false
		}
	}
	v0 := verts[0]
	if t == Tri || t == Tet {
		for _, v1 := range verts[1:] {
			if v1 == v0 {
				continue
			}
			edge := m.FindByDown(Edge, []Ent{v0, v1})
			if !edge.Ok() {
				return NilEnt
			}
			return m.findUpward(edge, &q)
		}
	}
	return m.findUpward(v0, &q)
}

// vertQuery is one FindFromVerts search: the wanted type and vertices,
// and whether the vertices are distinct (and few enough for a bitmask).
type vertQuery struct {
	t        Type
	verts    []Ent
	distinct bool
}

// findUpward returns the lowest-handle entity of type q.t above e whose
// vertex set equals q.verts, or NilEnt.
func (m *Mesh) findUpward(e Ent, q *vertQuery) Ent {
	best := NilEnt
	for u := m.td[e.T].firstUse[e.I]; u.e.Ok(); u = m.useNext(u) {
		c := u.e
		if c.Dim() < q.t.Dim() {
			c = m.findUpward(c, q)
		} else if c.T != q.t || (best.Ok() && c.I > best.I) || !m.vertSetEquals(c, q) {
			continue
		}
		if c.Ok() && (!best.Ok() || c.I < best.I) {
			best = c
		}
	}
	return best
}

// vertSetEquals reports whether e's distinct closure vertices are
// exactly len(q.verts) many and include every entry of q.verts. For
// distinct q.verts that means the closure is exactly q.verts, so the
// walk stops at the first closure vertex outside it.
func (m *Mesh) vertSetEquals(e Ent, q *vertQuery) bool {
	if q.distinct {
		var mask uint32
		return m.vertMask(e, q.verts, &mask) && mask == 1<<len(q.verts)-1
	}
	var buf [32]Ent
	have := m.AdjacentTo(e, 0, buf[:0])
	if len(have) != len(q.verts) {
		return false
	}
	for _, want := range q.verts {
		if !slices.Contains(have, want) {
			return false
		}
	}
	return true
}

// vertMask sets bit i of mask for each closure vertex of e equal to
// verts[i]; it reports false at the first closure vertex not in verts.
func (m *Mesh) vertMask(e Ent, verts []Ent, mask *uint32) bool {
	for _, d := range m.down(e) {
		if d.T != Vertex {
			if !m.vertMask(d, verts, mask) {
				return false
			}
			continue
		}
		i := slices.Index(verts, d)
		if i < 0 {
			return false
		}
		*mask |= 1 << i
	}
	return true
}

// BuildFromVerts creates (or finds, if already present) the entity of
// type t with the given canonical vertex order, creating any missing
// intermediate entities. Intermediate entities are classified on c as
// well unless they already exist; callers typically reclassify boundary
// sides afterwards or pass the region classification. It returns the
// entity.
func (m *Mesh) BuildFromVerts(t Type, verts []Ent, c gmi.Ref) Ent {
	if len(verts) != t.VertCount() {
		panic(fmt.Sprintf("mesh: %v needs %d vertices, got %d", t, t.VertCount(), len(verts)))
	}
	if t == Vertex {
		return verts[0]
	}
	if e := m.FindFromVerts(t, verts); e.Ok() {
		return e
	}
	var down [6]Ent
	var dv [4]Ent
	for i, dt := range downTypes[t] {
		for j, li := range downVerts[t][i] {
			dv[j] = verts[li]
		}
		down[i] = m.BuildFromVerts(dt, dv[:len(downVerts[t][i])], c)
	}
	return m.CreateEntity(t, c, down[:len(downTypes[t])])
}
