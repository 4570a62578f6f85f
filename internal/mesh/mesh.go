// Package mesh implements the unstructured mesh representation at the
// heart of PUMI: a complete, boundary-representation mesh storing the
// base topological entities (vertex, edge, face, region) with O(1)
// one-level adjacency in both directions, geometric classification
// against a gmi model, coordinates, tags, sets and iterators, and the
// per-entity parallel data (remote copies, ownership, ghost flags) the
// partition layer maintains.
//
// Storage follows PUMI's MDS design: per-type struct-of-arrays with
// free lists, so entities can be created and destroyed dynamically (as
// mesh adaptation and migration require) without invalidating other
// handles. Downward adjacency is stored explicitly; upward adjacency is
// stored as intrusive "use" lists threaded through the downward slots,
// giving constant-time insertion, deletion and iteration proportional
// only to local valence — the "complete representation with O(1)
// adjacency interrogation" the paper requires.
//
// Queries walk those arrays directly. The caller-buffer variants
// DownTo, UpTo, AdjacentTo and VertsTo, and FindByDown, FindFromVerts,
// UpCount and HasUp, never allocate once the buffer has capacity; Down,
// Up, Adjacent and Verts allocate only the slice they return.
package mesh

import (
	"fmt"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/vec"
)

// use identifies one downward slot of an upward entity: entity e's
// slot-th downward adjacency points at the use's target. Uses of the
// same target form a singly linked list (the upward adjacency).
type use struct {
	e    Ent
	slot uint8
}

var nilUse = use{e: NilEnt}

// typeData is the storage of all entities of one type.
type typeData struct {
	degree   int       // downward adjacencies per entity
	down     []Ent     // len = slots * degree
	firstUse []use     // per slot: head of this entity's upward use list
	nextUse  []use     // len = slots * degree: next use after (ent, slot)
	classif  []gmi.Ref // geometric classification
	flags    []uint8
	owner    []int32 // owning part id
	alive    []bool
	free     []int32
	nAlive   int
}

func (td *typeData) slots() int32 { return int32(len(td.alive)) }

// Entity flags.
const (
	// FlagGhost marks a read-only off-part copy localized by ghosting.
	FlagGhost uint8 = 1 << iota
)

// Mesh is one part of a (possibly distributed) mesh: a serial mesh plus
// the part boundary data linking it to peer parts. All methods are
// single-goroutine; in a parallel run each rank owns its parts.
type Mesh struct {
	model *gmi.Model
	dim   int
	part  int32

	td [TypeCount]typeData

	coords []vec.V // per vertex slot

	// links stores the remote-copy links of part-boundary entities:
	// per type, array-backed chains of (peer part, handle) sorted by
	// part (see links.go).
	links [TypeCount]linkStore

	// epoch is the topology epoch: bumped by every mutation that can
	// change the part-boundary communication structure. See TopoEpoch.
	epoch uint64

	// nb caches NeighborParts per dimension against the epoch.
	nb [4]nbCache

	// Tags attaches user data to entities, stored densely per entity
	// type like the topology arrays.
	Tags *ds.TagTable[Ent]

	// sets are named groupings of entities.
	sets map[string]*ds.Set[Ent]

	// onCreate/onDestroy observers let higher layers (global
	// numbering, fields) track entity lifecycle regardless of which
	// module creates or destroys entities.
	onCreate  []func(Ent)
	onDestroy []func(Ent)

	// guard, when non-nil, checks every mutation (pumi-san).
	guard Guard
}

// New creates an empty mesh part of the given dimension (2 or 3)
// classified against the given geometric model (which may be nil for
// model-free meshes).
func New(model *gmi.Model, dim int) *Mesh {
	if dim < 1 || dim > 3 {
		panic(fmt.Sprintf("mesh: bad dimension %d", dim))
	}
	m := &Mesh{
		model: model,
		dim:   dim,
		Tags:  ds.NewTagTable(int(TypeCount), tagSlot),
		sets:  map[string]*ds.Set[Ent]{},
	}
	for t := Type(0); t < TypeCount; t++ {
		m.td[t].degree = t.DownCount()
		m.links[t].free = -1
	}
	m.epoch = 1
	m.Tags.OnSet = func(e Ent) { m.guardWrite("tag", e) }
	return m
}

// tagSlot addresses an entity's tag data by its type and index, the
// same slot its topology occupies.
func tagSlot(e Ent) (col, idx int) { return int(e.T), int(e.I) }

// Model returns the geometric model the mesh is classified against.
func (m *Mesh) Model() *gmi.Model { return m.model }

// Dim returns the mesh dimension: the highest entity dimension meshes
// of this part may carry (elements are entities of this dimension).
func (m *Mesh) Dim() int { return m.dim }

// Part returns this part's id within the distributed mesh.
func (m *Mesh) Part() int32 { return m.part }

// SetPart assigns this part's id; the partition layer calls it when
// parts are created.
func (m *Mesh) SetPart(id int32) { m.part = id }

// Count returns the number of live entities of the given dimension.
func (m *Mesh) Count(dim int) int {
	n := 0
	for _, t := range typesOfDim[dim] {
		n += m.td[t].nAlive
	}
	return n
}

// CountType returns the number of live entities of one type.
func (m *Mesh) CountType(t Type) int { return m.td[t].nAlive }

// Alive reports whether the handle names a live entity.
func (m *Mesh) Alive(e Ent) bool {
	if !e.Ok() || e.T >= TypeCount {
		return false
	}
	td := &m.td[e.T]
	return e.I < td.slots() && td.alive[e.I]
}

// alloc returns a fresh slot for type t, growing arrays as needed.
func (m *Mesh) alloc(t Type) int32 {
	td := &m.td[t]
	var idx int32
	ls := &m.links[t]
	if n := len(td.free); n > 0 {
		idx = td.free[n-1]
		td.free = td.free[:n-1]
		td.alive[idx] = true
		ls.clear(idx)
		td.classif[idx] = gmi.NoRef
		td.flags[idx] = 0
		td.owner[idx] = m.part
		for j := 0; j < td.degree; j++ {
			td.down[int(idx)*td.degree+j] = NilEnt
			td.nextUse[int(idx)*td.degree+j] = nilUse
		}
		td.firstUse[idx] = nilUse
	} else {
		idx = td.slots()
		for j := 0; j < td.degree; j++ {
			td.down = append(td.down, NilEnt)
			td.nextUse = append(td.nextUse, nilUse)
		}
		td.firstUse = append(td.firstUse, nilUse)
		td.classif = append(td.classif, gmi.NoRef)
		td.flags = append(td.flags, 0)
		td.owner = append(td.owner, m.part)
		td.alive = append(td.alive, true)
		ls.growTo(int(idx) + 1)
		if t == Vertex {
			m.coords = append(m.coords, vec.V{})
		}
	}
	td.nAlive++
	m.bumpEpoch()
	return idx
}

// OnCreate registers an observer called after every entity creation.
func (m *Mesh) OnCreate(f func(Ent)) { m.onCreate = append(m.onCreate, f) }

// OnDestroy registers an observer called before every entity
// destruction (while the entity is still alive).
func (m *Mesh) OnDestroy(f func(Ent)) { m.onDestroy = append(m.onDestroy, f) }

func (m *Mesh) notifyCreate(e Ent) {
	for _, f := range m.onCreate {
		f(e)
	}
}

// CreateVertex creates a mesh vertex classified on the given model
// entity at the given position.
func (m *Mesh) CreateVertex(c gmi.Ref, p vec.V) Ent {
	idx := m.alloc(Vertex)
	m.coords[idx] = p
	m.td[Vertex].classif[idx] = c
	e := Ent{T: Vertex, I: idx}
	m.guardWrite("create", e)
	m.notifyCreate(e)
	return e
}

// CreateEntity creates an entity of type t from its one-level downward
// adjacent entities, which must be live, of the correct types, and —
// for faces — listed in cycle order (edge i runs from face vertex i to
// i+1). Use BuildFromVerts to create higher-dimension entities directly
// from vertices.
func (m *Mesh) CreateEntity(t Type, c gmi.Ref, down []Ent) Ent {
	if t == Vertex {
		panic("mesh: use CreateVertex for vertices")
	}
	want := downTypes[t]
	if len(down) != len(want) {
		panic(fmt.Sprintf("mesh: %v needs %d downward entities, got %d", t, len(want), len(down)))
	}
	for i, d := range down {
		if !m.Alive(d) {
			panic(fmt.Sprintf("mesh: downward entity %v of new %v is not alive", d, t))
		}
		if d.Dim() != want[i].Dim() {
			panic(fmt.Sprintf("mesh: downward entity %d of %v has dim %d, want %d",
				i, t, d.Dim(), want[i].Dim()))
		}
	}
	idx := m.alloc(t)
	e := Ent{T: t, I: idx}
	td := &m.td[t]
	base := int(idx) * td.degree
	for j, d := range down {
		td.down[base+j] = d
		dtd := &m.td[d.T]
		td.nextUse[base+j] = dtd.firstUse[d.I]
		dtd.firstUse[d.I] = use{e: e, slot: uint8(j)}
	}
	td.classif[idx] = c
	m.guardWrite("create", e)
	m.notifyCreate(e)
	return e
}

// Destroy removes an entity, which must have no live upward
// adjacencies. Downward entities are left alone (PUMI semantics: the
// caller removes orphans explicitly or via DestroyRecursive).
func (m *Mesh) Destroy(e Ent) {
	if !m.Alive(e) {
		panic(fmt.Sprintf("mesh: destroying dead entity %v", e))
	}
	td := &m.td[e.T]
	if td.firstUse[e.I].e.Ok() {
		panic(fmt.Sprintf("mesh: destroying %v which still bounds other entities", e))
	}
	m.guardWrite("destroy", e)
	for _, f := range m.onDestroy {
		f(e)
	}
	base := int(e.I) * td.degree
	for j := 0; j < td.degree; j++ {
		d := td.down[base+j]
		m.unlinkUse(d, use{e: e, slot: uint8(j)})
		td.down[base+j] = NilEnt
	}
	m.Tags.DeleteAll(e)
	m.links[e.T].clear(e.I)
	for _, s := range m.sets {
		s.Remove(e)
	}
	td.alive[e.I] = false
	td.classif[e.I] = gmi.NoRef
	td.flags[e.I] = 0
	td.firstUse[e.I] = nilUse
	td.free = append(td.free, e.I)
	td.nAlive--
	m.bumpEpoch()
}

// DestroyRecursive removes an entity and any downward entities left
// without upward adjacencies, cascading to vertices.
func (m *Mesh) DestroyRecursive(e Ent) {
	var down []Ent
	if e.T != Vertex {
		down = append(down, m.Down(e)...)
	}
	m.Destroy(e)
	for _, d := range down {
		if m.Alive(d) && !m.td[d.T].firstUse[d.I].e.Ok() {
			m.DestroyRecursive(d)
		}
	}
}

// unlinkUse removes the given use from target's use list.
func (m *Mesh) unlinkUse(target Ent, u use) {
	dtd := &m.td[target.T]
	cur := dtd.firstUse[target.I]
	if cur == u {
		dtd.firstUse[target.I] = m.useNext(cur)
		return
	}
	for cur.e.Ok() {
		next := m.useNext(cur)
		if next == u {
			m.setUseNext(cur, m.useNext(next))
			return
		}
		cur = next
	}
	panic(fmt.Sprintf("mesh: use of %v by %v not found", target, u.e))
}

func (m *Mesh) useNext(u use) use {
	td := &m.td[u.e.T]
	return td.nextUse[int(u.e.I)*td.degree+int(u.slot)]
}

func (m *Mesh) setUseNext(u, next use) {
	td := &m.td[u.e.T]
	td.nextUse[int(u.e.I)*td.degree+int(u.slot)] = next
}

// Coord returns a vertex's position.
func (m *Mesh) Coord(v Ent) vec.V {
	if v.T != Vertex {
		panic(fmt.Sprintf("mesh: Coord of non-vertex %v", v))
	}
	return m.coords[v.I]
}

// SetCoord moves a vertex.
func (m *Mesh) SetCoord(v Ent, p vec.V) {
	if v.T != Vertex {
		panic(fmt.Sprintf("mesh: SetCoord of non-vertex %v", v))
	}
	m.guardWrite("coord", v)
	m.coords[v.I] = p
}

// Classification returns the model entity e is classified on.
func (m *Mesh) Classification(e Ent) gmi.Ref { return m.td[e.T].classif[e.I] }

// SetClassification reclassifies e.
func (m *Mesh) SetClassification(e Ent, c gmi.Ref) {
	m.guardWrite("classify", e)
	m.td[e.T].classif[e.I] = c
}

// Flags returns e's flag byte.
func (m *Mesh) Flags(e Ent) uint8 { return m.td[e.T].flags[e.I] }

// SetFlag sets or clears one flag bit on e.
func (m *Mesh) SetFlag(e Ent, flag uint8, on bool) {
	m.guardWrite("flag", e)
	if on {
		m.td[e.T].flags[e.I] |= flag
	} else {
		m.td[e.T].flags[e.I] &^= flag
	}
}

// IterType iterates the live entities of one type in slot order.
func (m *Mesh) IterType(t Type) ds.Seq[Ent] {
	return func(yield func(Ent) bool) {
		td := &m.td[t]
		for i := int32(0); i < td.slots(); i++ {
			if td.alive[i] {
				if !yield(Ent{T: t, I: i}) {
					return
				}
			}
		}
	}
}

// Iter iterates the live entities of one dimension, vertex-type first,
// in slot order.
func (m *Mesh) Iter(dim int) ds.Seq[Ent] {
	return func(yield func(Ent) bool) {
		for _, t := range typesOfDim[dim] {
			for e := range m.IterType(t) {
				if !yield(e) {
					return
				}
			}
		}
	}
}

// Elements iterates the mesh elements (entities of the mesh dimension).
func (m *Mesh) Elements() ds.Seq[Ent] { return m.Iter(m.dim) }

// Set returns the named entity set, creating it if absent.
func (m *Mesh) Set(name string) *ds.Set[Ent] {
	s := m.sets[name]
	if s == nil {
		s = ds.NewSet[Ent]()
		m.sets[name] = s
	}
	return s
}

// DeleteSet removes a named set (the entities are unaffected).
func (m *Mesh) DeleteSet(name string) { delete(m.sets, name) }

// SetNames returns the names of all sets (unordered).
func (m *Mesh) SetNames() []string {
	out := make([]string, 0, len(m.sets))
	for n := range m.sets {
		out = append(out, n)
	}
	return out
}
