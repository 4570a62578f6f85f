// Package gmi is the Geometric Model Interface: the high-level,
// mesh-independent definition of the domain as a non-manifold boundary
// representation. The mesh interacts with it through a functional
// interface supporting interrogation of model entity adjacencies and of
// the geometric shape of the entities, exactly the role the geometric
// model plays in PUMI's software structure.
//
// The paper's applications use CAD models (Parasolid/ACIS via Simmetrix);
// those kernels are unavailable here, so gmi provides analytic models
// with the same interface: a rectangle (2D), a box, a bent-tube "vessel"
// standing in for the abdominal aorta aneurysm model, and a swept wing
// box standing in for the ONERA M6 wing. Geometric classification of
// mesh entities against these models drives meshing and adaptation the
// same way CAD classification drives them in PUMI.
package gmi

import (
	"fmt"
	"sort"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Ref identifies a model entity by dimension and tag. It is the value
// mesh entities store as their geometric classification. The zero Ref
// is invalid (Dim -1 below is used for "unclassified").
type Ref struct {
	Dim int8
	Tag int32
}

// NoRef is the classification of an entity not yet classified.
var NoRef = Ref{Dim: -1}

// Valid reports whether r names a model entity.
func (r Ref) Valid() bool { return r.Dim >= 0 }

func (r Ref) String() string {
	if !r.Valid() {
		return "g(none)"
	}
	return fmt.Sprintf("g%dd#%d", r.Dim, r.Tag)
}

// Shape evaluates the geometry of one model entity.
type Shape interface {
	// Closest returns the point of the entity closest to p. Meshing
	// and adaptation use it to snap new boundary vertices onto the
	// true geometry.
	Closest(p vec.V) vec.V
}

// Entity is one topological entity of the model: a model vertex (0),
// edge (1), face (2) or region (3).
type Entity struct {
	Ref   Ref
	pos   int // index in the model's entities of this dimension
	shape Shape
	up    []*Entity
	down  []*Entity
}

// Model is a non-manifold boundary representation: entities per
// dimension with bidirectional one-level adjacencies, plus a tag table
// for attaching user data to model entities.
type Model struct {
	ents  [4][]*Entity
	byTag [4]map[int32]*Entity
	// Tags attaches arbitrary user data to model entities.
	Tags *ds.TagTable[Ref]
	// Dim is the highest entity dimension present (2 or 3).
	Dim int
}

// New returns an empty model of the given dimension (2 or 3).
func New(dim int) *Model {
	m := &Model{Dim: dim}
	for d := range m.byTag {
		m.byTag[d] = make(map[int32]*Entity)
	}
	m.Tags = ds.NewTagTable(len(m.ents), m.tagSlot)
	return m
}

// tagSlot addresses a model entity's tag data by its dimension and its
// position among the entities of that dimension; model tags are
// arbitrary integers, so they cannot index storage directly. A Ref
// naming no entity has no slot.
func (m *Model) tagSlot(r Ref) (col, idx int) {
	e := m.Get(r)
	if e == nil {
		return 0, -1
	}
	return int(r.Dim), e.pos
}

// Add creates a model entity of the given dimension and tag with the
// given shape (may be nil for interior regions), declaring its downward
// adjacent entities. It panics on duplicate tags or dimension mismatch,
// which indicate a malformed model definition.
func (m *Model) Add(dim int, tag int32, shape Shape, down ...*Entity) *Entity {
	if dim < 0 || dim > 3 {
		panic(fmt.Sprintf("gmi: bad dimension %d", dim))
	}
	if _, dup := m.byTag[dim][tag]; dup {
		panic(fmt.Sprintf("gmi: duplicate entity %dd#%d", dim, tag))
	}
	e := &Entity{Ref: Ref{Dim: int8(dim), Tag: tag}, pos: len(m.ents[dim]), shape: shape}
	for _, d := range down {
		if int(d.Ref.Dim) >= dim {
			panic(fmt.Sprintf("gmi: %v cannot bound %v", d.Ref, e.Ref))
		}
		e.down = append(e.down, d)
		d.up = append(d.up, e)
	}
	m.ents[dim] = append(m.ents[dim], e)
	m.byTag[dim][tag] = e
	return e
}

// Find returns the entity with the given dimension and tag, or nil.
func (m *Model) Find(dim int, tag int32) *Entity {
	if dim < 0 || dim > 3 {
		return nil
	}
	return m.byTag[dim][tag]
}

// Get resolves a Ref to its entity, or nil.
func (m *Model) Get(r Ref) *Entity { return m.Find(int(r.Dim), r.Tag) }

// Count returns the number of entities of the given dimension.
func (m *Model) Count(dim int) int { return len(m.ents[dim]) }

// Entities iterates the entities of one dimension in creation order.
func (m *Model) Entities(dim int) ds.Seq[*Entity] {
	return func(yield func(*Entity) bool) {
		for _, e := range m.ents[dim] {
			if !yield(e) {
				return
			}
		}
	}
}

// Adjacent returns the model entities of dimension dim adjacent to e.
// One-level up and down adjacencies are stored; multi-level queries
// traverse through intermediate dimensions, and the result is sorted by
// tag and deduplicated.
func (e *Entity) Adjacent(dim int) []*Entity {
	ed := int(e.Ref.Dim)
	if dim == ed {
		return nil
	}
	cur := []*Entity{e}
	step := func(ents []*Entity, up bool) []*Entity {
		seen := map[*Entity]bool{}
		var out []*Entity
		for _, x := range ents {
			adj := x.down
			if up {
				adj = x.up
			}
			for _, a := range adj {
				if !seen[a] {
					seen[a] = true
					out = append(out, a)
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Ref.Tag < out[j].Ref.Tag })
		return out
	}
	for d := ed; d < dim; d++ {
		cur = step(cur, true)
	}
	for d := ed; d > dim; d-- {
		cur = step(cur, false)
	}
	return cur
}

// Closest returns the point of e's shape closest to p; entities without
// a shape (e.g. interior regions) return p unchanged.
func (e *Entity) Closest(p vec.V) vec.V {
	if e.shape == nil {
		return p
	}
	return e.shape.Closest(p)
}

// Snap projects p onto the model entity named by r; an invalid or
// unknown ref returns p unchanged.
func (m *Model) Snap(r Ref, p vec.V) vec.V {
	e := m.Get(r)
	if e == nil {
		return p
	}
	return e.Closest(p)
}

// CommonDown returns the highest-dimension model entity lying in the
// closure of every given entity (each ref's own entity counts as part
// of its closure). It returns NoRef if the closures are disjoint.
// Mesh generation uses it to classify mesh entities where several model
// boundary entities meet (e.g. a mesh edge on the rim where a tube wall
// meets an end cap).
func (m *Model) CommonDown(refs []Ref) Ref {
	if len(refs) == 0 {
		return NoRef
	}
	closure := func(r Ref) map[Ref]bool {
		e := m.Get(r)
		set := map[Ref]bool{}
		if e == nil {
			return set
		}
		set[r] = true
		for d := 0; d < int(r.Dim); d++ {
			for _, a := range e.Adjacent(d) {
				set[a.Ref] = true
			}
		}
		return set
	}
	common := closure(refs[0])
	for _, r := range refs[1:] {
		next := closure(r)
		for k := range common {
			if !next[k] {
				delete(common, k)
			}
		}
	}
	best := NoRef
	for r := range common {
		if r.Dim > best.Dim || (r.Dim == best.Dim && best.Valid() && r.Tag < best.Tag) {
			best = r
		}
	}
	return best
}

// CheckConsistency verifies the boundary representation: every entity of
// dimension > 0 has downward adjacencies, up/down links are symmetric,
// and refs resolve. It returns the first problem found.
func (m *Model) CheckConsistency() error {
	for d := 1; d <= 3; d++ {
		for _, e := range m.ents[d] {
			if len(e.down) == 0 {
				// A periodic-like face with no bounding edges is legal
				// in a non-manifold BRep (e.g. full cylinder wall), so
				// only regions strictly require closure.
				if d == 3 {
					return fmt.Errorf("gmi: region %v has no bounding faces", e.Ref)
				}
				continue
			}
			for _, dn := range e.down {
				found := false
				for _, up := range dn.up {
					if up == e {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("gmi: asymmetric adjacency %v <-> %v", e.Ref, dn.Ref)
				}
			}
		}
	}
	for d := 0; d <= 3; d++ {
		for tag, e := range m.byTag[d] {
			if e.Ref.Tag != tag || int(e.Ref.Dim) != d {
				return fmt.Errorf("gmi: tag index corrupt at %dd#%d", d, tag)
			}
		}
	}
	return nil
}

// NormalAt returns the unit surface normal of the model face named by r
// at (the closest point to) p; ok is false when r does not name a face
// with normal information.
func (m *Model) NormalAt(r Ref, p vec.V) (vec.V, bool) {
	e := m.Get(r)
	if e == nil || e.shape == nil {
		return vec.V{}, false
	}
	ns, ok := e.shape.(NormalShape)
	if !ok {
		return vec.V{}, false
	}
	return ns.Normal(p), true
}
