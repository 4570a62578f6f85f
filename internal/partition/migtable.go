package partition

import (
	"slices"

	"github.com/fastmath/pumi-go/internal/mesh"
)

// migTable is one local part's migration bookkeeping for the length of
// one TryMigrate call. Every entity the move touches gets a slot, in
// this order: the part's moving elements (slots [0, nMov), element
// order), then the downward closure of the moving elements (step 1),
// then entities first heard of from a peer (step 2) and entities
// received with a shipped closure (step 3). An open-addressing index
// maps handles to slots; per-slot sets are chains threaded through one
// flat record arena, like the mesh's own remote-link store. All of it
// is sized to the move and dropped when the call returns — nothing is
// kept per entity on the mesh between calls.
type migTable struct {
	index []int32 // open addressing on entKey: slot+1, 0 = empty
	shift uint    // 64 - log2(len(index))

	ents  []mesh.Ent // per slot: the entity
	res   []int32    // per slot: head of the ascending residence chain, -1 = none
	dests []int32    // per slot: head of the local-destination chain, -1 = none
	stays []bool     // per closure slot: some element above it stays

	part []int32 // chain record: part id
	next []int32 // chain record: next record, -1 = end

	movers  []mover // this part's moves, element-sorted
	closure []int32 // closure slots, entity-sorted (so dimension-grouped)
}

// mover is one normalized plan entry.
type mover struct {
	el   mesh.Ent
	dest int32
}

// slotBits bounds the slots of one table so a slot and its entity key
// pack into one sortable uint64.
const slotBits = 30

// entKey orders handles exactly as Ent.Less does (type, then index).
func entKey(e mesh.Ent) uint64 { return uint64(e.T)<<31 | uint64(uint32(e.I)) }

// newMigTable returns a table with its moving elements in slots
// [0, len(movers)); capacity is a guess from the move size and grows.
func newMigTable(movers []mover) *migTable {
	n := 4*len(movers) + 8
	size := 16
	for size < 2*n {
		size *= 2
	}
	t := &migTable{index: make([]int32, size), shift: 64}
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.ents = make([]mesh.Ent, 0, n)
	t.res = make([]int32, 0, n)
	t.dests = make([]int32, 0, n)
	t.stays = make([]bool, 0, n)
	t.movers = movers
	for _, mv := range movers {
		t.slot(mv.el)
	}
	return t
}

func (t *migTable) home(e mesh.Ent) int {
	return int((entKey(e) * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns e's slot, -1 if e has none.
func (t *migTable) find(e mesh.Ent) int32 {
	mask := len(t.index) - 1
	for h := t.home(e); ; h = (h + 1) & mask {
		s := t.index[h] - 1
		if s < 0 || t.ents[s] == e {
			return s
		}
	}
}

// slot returns e's slot, adding one if e has none; fresh reports the
// addition.
func (t *migTable) slot(e mesh.Ent) (s int32, fresh bool) {
	mask := len(t.index) - 1
	h := t.home(e)
	for ; t.index[h] != 0; h = (h + 1) & mask {
		if s := t.index[h] - 1; t.ents[s] == e {
			return s, false
		}
	}
	s = int32(len(t.ents))
	if s == 1<<slotBits {
		panic("partition: migration touches too many entities on one part")
	}
	t.ents = append(t.ents, e)
	t.res = append(t.res, -1)
	t.dests = append(t.dests, -1)
	t.stays = append(t.stays, false)
	t.index[h] = s + 1
	if 2*len(t.ents) > len(t.index) {
		t.rehash()
	}
	return s, true
}

// rehash doubles the index.
func (t *migTable) rehash() {
	t.index = make([]int32, 2*len(t.index))
	t.shift--
	mask := len(t.index) - 1
	for s, e := range t.ents {
		h := t.home(e)
		for t.index[h] != 0 {
			h = (h + 1) & mask
		}
		t.index[h] = int32(s) + 1
	}
}

func (t *migTable) rec(part, next int32) int32 {
	t.part = append(t.part, part)
	t.next = append(t.next, next)
	return int32(len(t.part) - 1)
}

// addRes inserts p into slot s's residence set.
func (t *migTable) addRes(s, p int32) {
	prev, cur := int32(-1), t.res[s]
	for cur >= 0 && t.part[cur] < p {
		prev, cur = cur, t.next[cur]
	}
	if cur >= 0 && t.part[cur] == p {
		return
	}
	r := t.rec(p, cur)
	if prev < 0 {
		t.res[s] = r
	} else {
		t.next[prev] = r
	}
}

// appendRes appends slot s's residence set, ascending, to dst.
func (t *migTable) appendRes(s int32, dst []int32) []int32 {
	for cur := t.res[s]; cur >= 0; cur = t.next[cur] {
		dst = append(dst, t.part[cur])
	}
	return dst
}

// addClosure records destination q on every entity of e's downward
// closure. An entity that already holds q had its own closure walked
// for q when it got it, so the walk stops there.
func (t *migTable) addClosure(m *mesh.Mesh, e mesh.Ent, q int32) {
	var buf [8]mesh.Ent
	for _, x := range m.DownTo(e, buf[:0]) {
		s, fresh := t.slot(x)
		if fresh {
			t.closure = append(t.closure, s)
		} else if t.hasDest(s, q) {
			continue
		}
		t.dests[s] = t.rec(q, t.dests[s])
		if x.T != mesh.Vertex {
			t.addClosure(m, x, q)
		}
	}
}

func (t *migTable) hasDest(s, q int32) bool {
	for cur := t.dests[s]; cur >= 0; cur = t.next[cur] {
		if t.part[cur] == q {
			return true
		}
	}
	return false
}

// sortSlots sorts slots by entity (Ent.Less), using keys as scratch,
// and returns the scratch.
func (t *migTable) sortSlots(slots []int32, keys []uint64) []uint64 {
	keys = keys[:0]
	for _, s := range slots {
		keys = append(keys, entKey(t.ents[s])<<slotBits|uint64(s))
	}
	slices.Sort(keys)
	for i, k := range keys {
		slots[i] = int32(k & (1<<slotBits - 1))
	}
	return keys
}

// levels returns the bounds of each dimension's run in entity-sorted
// slots: slots[b[dd]:b[dd+1]] holds the dimension-dd entities.
func (t *migTable) levels(slots []int32) (b [5]int) {
	k := 0
	for dd := 0; dd < 4; dd++ {
		b[dd] = k
		for k < len(slots) && t.ents[slots[k]].Dim() == dd {
			k++
		}
	}
	b[4] = k
	return b
}
