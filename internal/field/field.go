// Package field implements the third of PUMI's three data models: the
// tensor quantities defining physical parameter distributions of the
// PDE over the mesh. A field attaches nodal values to mesh entities
// according to its shape — linear Lagrange (nodes on vertices) or
// quadratic Lagrange (nodes on vertices and edges) — and supports
// evaluation inside elements, global DOF numbering across a distributed
// mesh, synchronization of shared nodes, and solution transfer under
// mesh modification.
package field

import (
	"fmt"
	"math"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Shape selects the nodal distribution of a field.
type Shape int

// Supported shapes.
const (
	// Linear places one node on every mesh vertex.
	Linear Shape = iota
	// Quadratic places nodes on vertices and edge midpoints.
	Quadratic
)

// HasNodes reports whether the shape places nodes on entities of the
// given dimension.
func (s Shape) HasNodes(dim int) bool {
	switch s {
	case Linear:
		return dim == 0
	case Quadratic:
		return dim <= 1
	}
	return false
}

// NodeDims lists the dimensions carrying nodes.
func (s Shape) NodeDims() []int {
	if s == Quadratic {
		return []int{0, 1}
	}
	return []int{0}
}

// Field is a tensor field over one mesh part. Values are stored under a
// mesh tag, so they follow entity lifecycle automatically.
type Field struct {
	m     *mesh.Mesh
	name  string
	comps int
	shape Shape
	tag   *ds.Tag
}

// New creates a field with the given number of components per node.
func New(m *mesh.Mesh, name string, comps int, shape Shape) (*Field, error) {
	if comps < 1 {
		return nil, fmt.Errorf("field: %d components", comps)
	}
	tag, err := m.Tags.Create("field:"+name, ds.TagFloatSlice, comps)
	if err != nil {
		return nil, err
	}
	return &Field{m: m, name: name, comps: comps, shape: shape, tag: tag}, nil
}

// Find returns the existing field of that name on the mesh, or nil.
// The shape and component count must be supplied by the caller's
// convention; Find trusts the tag size for comps.
func Find(m *mesh.Mesh, name string, shape Shape) *Field {
	tag := m.Tags.Find("field:" + name)
	if tag == nil {
		return nil
	}
	return &Field{m: m, name: name, comps: tag.Size, shape: shape, tag: tag}
}

// Name returns the field name.
func (f *Field) Name() string { return f.name }

// Components returns the tensor component count per node.
func (f *Field) Components() int { return f.comps }

// Shape returns the field's nodal shape.
func (f *Field) Shape() Shape { return f.shape }

// Mesh returns the underlying mesh part.
func (f *Field) Mesh() *mesh.Mesh { return f.m }

// Set stores nodal values on a node-bearing entity.
func (f *Field) Set(e mesh.Ent, vals ...float64) {
	if !f.shape.HasNodes(e.Dim()) {
		panic(fmt.Sprintf("field %s: no nodes on %v", f.name, e))
	}
	f.m.Tags.SetFloats(f.tag, e, vals)
}

// Get reads nodal values; ok is false when the node is unset. The
// result is a view into the field's storage: it must not be mutated,
// and it is valid only until the next Set of e (or e's destruction).
func (f *Field) Get(e mesh.Ent) ([]float64, bool) {
	return f.m.Tags.GetFloats(f.tag, e)
}

// MustGet reads nodal values like Get, returning fresh zeros when
// unset. The same view rules apply.
func (f *Field) MustGet(e mesh.Ent) []float64 {
	if v, ok := f.Get(e); ok {
		return v
	}
	return make([]float64, f.comps)
}

// SetByFunc fills every node from an analytic function of position
// (edge nodes use the midpoint).
func (f *Field) SetByFunc(fn func(vec.V) []float64) {
	for _, d := range f.shape.NodeDims() {
		for e := range f.m.Iter(d) {
			f.Set(e, fn(f.m.Centroid(e))...)
		}
	}
}

// NodeEntities returns the node-bearing entities of an element in a
// deterministic order: vertices then (for quadratic) edges — the order
// an element matrix indexes its local DOFs.
func (f *Field) NodeEntities(el mesh.Ent) []mesh.Ent {
	nodes := f.m.Adjacent(el, 0)
	if f.shape == Quadratic {
		nodes = append(nodes, f.m.Adjacent(el, 1)...)
	}
	return nodes
}

// CountNodes returns the number of node-bearing entities on the part
// (ghosts excluded).
func (f *Field) CountNodes() int {
	n := 0
	for _, d := range f.shape.NodeDims() {
		for e := range f.m.Iter(d) {
			if !f.m.IsGhost(e) {
				n++
			}
		}
	}
	return n
}

// Barycentric returns the barycentric coordinates of point p in a
// simplex element (tri in 2D with z ignored, tet in 3D). Coordinates
// may be negative when p is outside.
func Barycentric(m *mesh.Mesh, el mesh.Ent, p vec.V) []float64 {
	var vbuf [8]mesh.Ent
	w := barycentric(m, el.T, m.VertsTo(el, vbuf[:0]), p)
	return w[:el.T.VertCount()]
}

// barycentric computes the coordinates of p in the simplex of type t
// with vertices vs, without allocating; a triangle leaves w[3] zero.
func barycentric(m *mesh.Mesh, t mesh.Type, vs []mesh.Ent, p vec.V) (w [4]float64) {
	switch t {
	case mesh.Tet:
		a, b, c, d := m.Coord(vs[0]), m.Coord(vs[1]), m.Coord(vs[2]), m.Coord(vs[3])
		vol := vec.TetVolume(a, b, c, d)
		if vol == 0 {
			return [4]float64{0.25, 0.25, 0.25, 0.25}
		}
		return [4]float64{
			vec.TetVolume(p, b, c, d) / vol,
			vec.TetVolume(a, p, c, d) / vol,
			vec.TetVolume(a, b, p, d) / vol,
			vec.TetVolume(a, b, c, p) / vol,
		}
	case mesh.Tri:
		a, b, c := m.Coord(vs[0]), m.Coord(vs[1]), m.Coord(vs[2])
		// Signed areas in the triangle's plane via cross products.
		n := b.Sub(a).Cross(c.Sub(a))
		den := n.Norm2()
		if den == 0 {
			return [4]float64{1. / 3, 1. / 3, 1. / 3}
		}
		w0 := b.Sub(p).Cross(c.Sub(p)).Dot(n) / den
		w1 := c.Sub(p).Cross(a.Sub(p)).Dot(n) / den
		w2 := 1 - w0 - w1
		return [4]float64{w0, w1, w2}
	}
	panic(fmt.Sprintf("field: barycentric unsupported for %v", t))
}

// Eval interpolates the field at point p inside simplex element el. It
// allocates only the returned slice.
func (f *Field) Eval(el mesh.Ent, p vec.V) []float64 {
	var vbuf [8]mesh.Ent
	vs := f.m.VertsTo(el, vbuf[:0])
	bary := barycentric(f.m, el.T, vs, p)
	out := make([]float64, f.comps)
	// add accumulates w times e's nodal values; unset nodes are zero.
	add := func(w float64, e mesh.Ent) {
		if nv, ok := f.Get(e); ok {
			for c := range out {
				out[c] += w * nv[c]
			}
		}
	}
	switch f.shape {
	case Linear:
		for i, v := range vs {
			add(bary[i], v)
		}
	case Quadratic:
		// Standard quadratic Lagrange on simplices: vertex shapes
		// L_i(2L_i - 1), edge shapes 4 L_i L_j.
		for i, v := range vs {
			add(bary[i]*(2*bary[i]-1), v)
		}
		n := len(vs)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				pair := [2]mesh.Ent{vs[i], vs[j]}
				if edge := f.m.FindFromVerts(mesh.Edge, pair[:]); edge.Ok() {
					add(4*bary[i]*bary[j], edge)
				}
			}
		}
	}
	return out
}

// L2Diff integrates the squared difference between the field and an
// analytic function over the mesh with one-point (centroid) quadrature,
// returning its square root — a convergence-test helper.
func (f *Field) L2Diff(fn func(vec.V) []float64) float64 {
	sum := 0.0
	for el := range f.m.Elements() {
		if f.m.IsGhost(el) {
			continue
		}
		c := f.m.Centroid(el)
		got := f.Eval(el, c)
		want := fn(c)
		d2 := 0.0
		for i := range got {
			d2 += (got[i] - want[i]) * (got[i] - want[i])
		}
		sum += d2 * f.m.Measure(el)
	}
	return math.Sqrt(sum)
}

// partFields resolves one field by name on each part a boundary
// exchange visits, once per part rather than once per entity.
type partFields struct {
	name   string
	shape  Shape
	parts  []*partition.Part
	fields []*Field
}

func (c *partFields) on(p *partition.Part) *Field {
	for i, q := range c.parts {
		if q == p {
			return c.fields[i]
		}
	}
	f := Find(p.M, c.name, c.shape)
	c.parts = append(c.parts, p)
	c.fields = append(c.fields, f)
	return f
}

// pack encodes e's nodal values, or an empty record when the part has
// no such field or e's node is unset.
func (c *partFields) pack(p *partition.Part, e mesh.Ent, b *pcu.Buffer) {
	var v []float64
	if f := c.on(p); f != nil {
		v, _ = f.Get(e)
	}
	b.Float64s(v)
}

// Sync pushes owned shared node values to all remote copies, making the
// field single-valued across part boundaries (collective).
func Sync(dm *partition.DMesh, name string, shape Shape) {
	fs := &partFields{name: name, shape: shape}
	var vals []float64
	partition.SyncShared(dm, shape.NodeDims(), fs.pack,
		func(p *partition.Part, e mesh.Ent, r *pcu.Reader) {
			vals = r.AppendFloat64s(vals[:0])
			if len(vals) == 0 {
				return
			}
			if f := fs.on(p); f != nil {
				f.Set(e, vals...)
			}
		})
}

// AccumulateShared adds non-owner contributions into owner nodes
// (collective) — the communication step of a parallel FE assembly. The
// copies' values are left untouched; follow with Sync to redistribute.
func AccumulateShared(dm *partition.DMesh, name string, shape Shape) {
	fs := &partFields{name: name, shape: shape}
	var sum []float64
	partition.ReduceShared(dm, shape.NodeDims(), fs.pack,
		func(p *partition.Part, e mesh.Ent, r *pcu.Reader) {
			sum = r.AppendFloat64s(sum[:0])
			if len(sum) == 0 {
				return
			}
			f := fs.on(p)
			if f == nil {
				return
			}
			// The owner's current values are a read-only view; the sum
			// is formed in a local buffer and stored through Set, so
			// the write passes the owner-only guard like any other.
			if cur, ok := f.Get(e); ok {
				for i := range cur {
					sum[i] += cur[i]
				}
			}
			f.Set(e, sum...)
		})
}
