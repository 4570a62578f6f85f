package ds

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

// mapTagTable is the reference tag store the dense columns replaced:
// one map per tag, every value boxed, slices copied on Set. It is kept
// here, unoptimized, as the oracle the dense store must match
// operation for operation.
type mapTagTable[K comparable] struct {
	tags   []*Tag
	byName map[string]*Tag
	data   []map[K]any // indexed by tag id
	OnSet  func(K)
}

func newMapTagTable[K comparable]() *mapTagTable[K] {
	return &mapTagTable[K]{byName: make(map[string]*Tag)}
}

func (t *mapTagTable[K]) Create(name string, kind TagKind, size int) (*Tag, error) {
	if _, ok := t.byName[name]; ok {
		return nil, fmt.Errorf("ds: tag %q already exists", name)
	}
	switch kind {
	case TagIntSlice, TagFloatSlice, TagBytes:
		if size < 1 {
			return nil, fmt.Errorf("ds: tag %q: size %d invalid for kind %v", name, size, kind)
		}
	default:
		size = 1
	}
	// The map store took len(t.tags) as the id, which a Destroy shrinks,
	// so a tag created after a Destroy aliased a live tag's map. The
	// oracle uses the corrected rule (one id per Create, never reused).
	tag := &Tag{Name: name, Kind: kind, Size: size, id: len(t.data)}
	t.tags = append(t.tags, tag)
	t.byName[name] = tag
	t.data = append(t.data, make(map[K]any))
	return tag, nil
}

func (t *mapTagTable[K]) Find(name string) *Tag { return t.byName[name] }

func (t *mapTagTable[K]) Tags() []*Tag { return t.tags }

func (t *mapTagTable[K]) Destroy(tag *Tag) {
	if t.byName[tag.Name] != tag {
		return
	}
	delete(t.byName, tag.Name)
	t.data[tag.id] = nil
	for i, x := range t.tags {
		if x == tag {
			t.tags = append(t.tags[:i], t.tags[i+1:]...)
			break
		}
	}
}

func (t *mapTagTable[K]) Has(tag *Tag, key K) bool {
	m := t.data[tag.id]
	if m == nil {
		return false
	}
	_, ok := m[key]
	return ok
}

func (t *mapTagTable[K]) Delete(tag *Tag, key K) {
	if m := t.data[tag.id]; m != nil {
		delete(m, key)
	}
}

func (t *mapTagTable[K]) DeleteAll(key K) {
	for _, m := range t.data {
		if m != nil {
			delete(m, key)
		}
	}
}

func (t *mapTagTable[K]) CountTagged(tag *Tag) int {
	if m := t.data[tag.id]; m != nil {
		return len(m)
	}
	return 0
}

func (t *mapTagTable[K]) set(tag *Tag, key K, v any) {
	if t.OnSet != nil {
		t.OnSet(key)
	}
	t.data[tag.id][key] = v
}

func (t *mapTagTable[K]) get(tag *Tag, key K) (any, bool) {
	m := t.data[tag.id]
	if m == nil {
		return nil, false
	}
	v, ok := m[key]
	return v, ok
}

func refMustKind(tag *Tag, k TagKind) {
	if tag.Kind != k {
		panic(fmt.Sprintf("ds: tag %q has kind %v, accessed as %v", tag.Name, tag.Kind, k))
	}
}

func refMustSize(tag *Tag, n int) {
	if tag.Size != n {
		panic(fmt.Sprintf("ds: tag %q has size %d, got %d values", tag.Name, tag.Size, n))
	}
}

func (t *mapTagTable[K]) SetInt(tag *Tag, key K, v int64) {
	refMustKind(tag, TagInt)
	t.set(tag, key, v)
}

func (t *mapTagTable[K]) GetInt(tag *Tag, key K) (int64, bool) {
	refMustKind(tag, TagInt)
	x, ok := t.get(tag, key)
	if !ok {
		return 0, false
	}
	return x.(int64), true
}

func (t *mapTagTable[K]) SetFloat(tag *Tag, key K, v float64) {
	refMustKind(tag, TagFloat)
	t.set(tag, key, v)
}

func (t *mapTagTable[K]) GetFloat(tag *Tag, key K) (float64, bool) {
	refMustKind(tag, TagFloat)
	x, ok := t.get(tag, key)
	if !ok {
		return 0, false
	}
	return x.(float64), true
}

func (t *mapTagTable[K]) SetInts(tag *Tag, key K, v []int64) {
	refMustKind(tag, TagIntSlice)
	refMustSize(tag, len(v))
	t.set(tag, key, slices.Clone(v))
}

func (t *mapTagTable[K]) GetInts(tag *Tag, key K) ([]int64, bool) {
	refMustKind(tag, TagIntSlice)
	x, ok := t.get(tag, key)
	if !ok {
		return nil, false
	}
	return x.([]int64), true
}

func (t *mapTagTable[K]) SetFloats(tag *Tag, key K, v []float64) {
	refMustKind(tag, TagFloatSlice)
	refMustSize(tag, len(v))
	t.set(tag, key, slices.Clone(v))
}

func (t *mapTagTable[K]) GetFloats(tag *Tag, key K) ([]float64, bool) {
	refMustKind(tag, TagFloatSlice)
	x, ok := t.get(tag, key)
	if !ok {
		return nil, false
	}
	return x.([]float64), true
}

func (t *mapTagTable[K]) SetBytes(tag *Tag, key K, v []byte) {
	refMustKind(tag, TagBytes)
	refMustSize(tag, len(v))
	t.set(tag, key, slices.Clone(v))
}

func (t *mapTagTable[K]) GetBytes(tag *Tag, key K) ([]byte, bool) {
	refMustKind(tag, TagBytes)
	x, ok := t.get(tag, key)
	if !ok {
		return nil, false
	}
	return x.([]byte), true
}

// okey is an oracle test key: a column and an index, like an entity's
// (type, index) handle.
type okey struct {
	c uint8
	i int32
}

const okeyCols = 3

func okeySlot(k okey) (col, idx int) { return int(k.c), int(k.i) }

// tagStore is the method set shared by the dense table and the oracle.
type tagStore interface {
	Create(string, TagKind, int) (*Tag, error)
	Destroy(*Tag)
	Has(*Tag, okey) bool
	Delete(*Tag, okey)
	DeleteAll(okey)
	CountTagged(*Tag) int
	SetInt(*Tag, okey, int64)
	GetInt(*Tag, okey) (int64, bool)
	SetFloat(*Tag, okey, float64)
	GetFloat(*Tag, okey) (float64, bool)
	SetInts(*Tag, okey, []int64)
	GetInts(*Tag, okey) ([]int64, bool)
	SetFloats(*Tag, okey, []float64)
	GetFloats(*Tag, okey) ([]float64, bool)
	SetBytes(*Tag, okey, []byte)
	GetBytes(*Tag, okey) ([]byte, bool)
}

// outcome is what one operation observably did: its panic (if any)
// and its results, rendered bit-exactly.
func outcome(op func() string) (res string) {
	defer func() {
		if r := recover(); r != nil {
			res = "panic"
		}
	}()
	return op()
}

// readAll renders key's data under tag through every getter: the
// getter of the tag's kind returns the value, the others must panic.
func readAll(s tagStore, tag *Tag, k okey) string {
	return fmt.Sprint(
		outcome(func() string { v, ok := s.GetInt(tag, k); return fmt.Sprint(v, ok) }),
		outcome(func() string { v, ok := s.GetFloat(tag, k); return fmt.Sprint(math.Float64bits(v), ok) }),
		outcome(func() string { v, ok := s.GetInts(tag, k); return fmt.Sprint(v, ok) }),
		outcome(func() string { v, ok := s.GetFloats(tag, k); return fmt.Sprint(floatBits(v), ok) }),
		outcome(func() string { v, ok := s.GetBytes(tag, k); return fmt.Sprint(v, ok) }),
		s.Has(tag, k), s.CountTagged(tag),
	)
}

func floatBits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// heldView is a view returned by the dense store together with a copy
// of its values at the time: until its key is written again, the view
// must keep showing those values whatever else is set.
type heldView struct {
	tag  int // index into the tag pairs
	key  okey
	view []float64
	want []float64
}

// TestTagTableMatchesMapOracle drives the dense table and the map
// oracle with the same seeded random operation stream — tag creation
// (including duplicate names and invalid sizes) and destruction, every
// setter and getter with right and wrong kinds and sizes, Has, Delete,
// DeleteAll and CountTagged — over sparse keys that are reused after
// DeleteAll, and requires identical results at every step.
func TestTagTableMatchesMapOracle(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { runTagOracle(t, seed, 6000) })
	}
}

func runTagOracle(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 99))
	dense := NewTagTable(okeyCols, okeySlot)
	ref := newMapTagTable[okey]()
	var denseSeen, refSeen []okey
	dense.OnSet = func(k okey) { denseSeen = append(denseSeen, k) }
	ref.OnSet = func(k okey) { refSeen = append(refSeen, k) }
	stores := [2]tagStore{dense, ref}

	// Keys: a dense run of small indices plus a few far-apart ones, so
	// columns both grow step by step and jump.
	var keys []okey
	for c := uint8(0); c < okeyCols; c++ {
		for i := int32(0); i < 24; i++ {
			keys = append(keys, okey{c, i})
		}
		for _, i := range []int32{63, 64, 65, 200, 1000, 4097} {
			keys = append(keys, okey{c, i})
		}
	}
	var tags [][2]*Tag // live and destroyed tag pairs (dense, ref)
	var held *heldView

	tagNames := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	kinds := []TagKind{TagInt, TagFloat, TagIntSlice, TagFloatSlice, TagBytes}
	values := func(n int) ([]int64, []float64, []byte) {
		is, fs, bs := make([]int64, n), make([]float64, n), make([]byte, n)
		for i := range n {
			is[i] = rng.Int64()
			fs[i] = rng.NormFloat64()
			bs[i] = byte(rng.Uint32())
		}
		return is, fs, bs
	}
	touched := func(ti int, k okey) {
		if held != nil && held.tag == ti && held.key == k {
			held = nil
		}
	}
	same := func(step int, what string, op func(s tagStore) string) {
		t.Helper()
		got, want := outcome(func() string { return op(dense) }), outcome(func() string { return op(ref) })
		if got != want {
			t.Fatalf("step %d: %s: dense %q, map %q", step, what, got, want)
		}
	}

	for step := 0; step < steps; step++ {
		k := keys[rng.IntN(len(keys))]
		if len(tags) == 0 || rng.IntN(40) == 0 {
			name, kind, size := tagNames[rng.IntN(len(tagNames))], kinds[rng.IntN(len(kinds))], rng.IntN(5)
			var pair [2]*Tag
			var errs [2]bool
			for s := range stores {
				tag, err := stores[s].Create(name, kind, size)
				pair[s], errs[s] = tag, err != nil
			}
			if errs[0] != errs[1] {
				t.Fatalf("step %d: Create(%q, %v, %d) errors differ: %v", step, name, kind, size, errs)
			}
			if !errs[0] {
				if pair[0].Size != pair[1].Size || pair[0].Kind != pair[1].Kind {
					t.Fatalf("step %d: Create layouts differ: %+v vs %+v", step, *pair[0], *pair[1])
				}
				tags = append(tags, pair)
			}
			continue
		}
		ti := rng.IntN(len(tags))
		pair := tags[ti]
		pick := func(s tagStore) *Tag {
			if s == tagStore(dense) {
				return pair[0]
			}
			return pair[1]
		}
		// A wrong-size slice now and then exercises the size checks.
		n := pair[0].Size
		if rng.IntN(20) == 0 {
			n += 1 + rng.IntN(2)
		}
		is, fs, bs := values(n)
		switch op := rng.IntN(14); op {
		case 0:
			same(step, "SetInt", func(s tagStore) string { s.SetInt(pick(s), k, is[0]); return "" })
			touched(ti, k)
		case 1:
			same(step, "SetFloat", func(s tagStore) string { s.SetFloat(pick(s), k, fs[0]); return "" })
			touched(ti, k)
		case 2:
			same(step, "SetInts", func(s tagStore) string { s.SetInts(pick(s), k, is); return "" })
			touched(ti, k)
		case 3, 4:
			same(step, "SetFloats", func(s tagStore) string { s.SetFloats(pick(s), k, fs); return "" })
			touched(ti, k)
		case 5:
			same(step, "SetBytes", func(s tagStore) string { s.SetBytes(pick(s), k, bs); return "" })
			touched(ti, k)
		case 6:
			// Set the tag's own kind, the common case.
			same(step, "Set", func(s tagStore) string {
				tag := pick(s)
				switch tag.Kind {
				case TagInt:
					s.SetInt(tag, k, is[0])
				case TagFloat:
					s.SetFloat(tag, k, fs[0])
				case TagIntSlice:
					s.SetInts(tag, k, is[:tag.Size])
				case TagFloatSlice:
					s.SetFloats(tag, k, fs[:tag.Size])
				case TagBytes:
					s.SetBytes(tag, k, bs[:tag.Size])
				}
				return ""
			})
			touched(ti, k)
		case 7, 8:
			same(step, "read", func(s tagStore) string { return readAll(s, pick(s), k) })
			if held != nil || pair[0].Kind != TagFloatSlice {
				break
			}
			if v, ok := dense.GetFloats(pair[0], k); ok {
				if cap(v) != len(v) {
					t.Fatalf("step %d: GetFloats view has cap %d > len %d", step, cap(v), len(v))
				}
				held = &heldView{tag: ti, key: k, view: v, want: slices.Clone(v)}
			}
		case 9:
			same(step, "Delete", func(s tagStore) string { s.Delete(pick(s), k); return "" })
			touched(ti, k)
		case 10:
			same(step, "DeleteAll", func(s tagStore) string { s.DeleteAll(k); return "" })
			if held != nil && held.key == k {
				held = nil
			}
		case 11:
			same(step, "CountTagged", func(s tagStore) string { return fmt.Sprint(s.CountTagged(pick(s))) })
		case 12:
			if rng.IntN(8) == 0 {
				same(step, "Destroy", func(s tagStore) string { s.Destroy(pick(s)); return "" })
				if held != nil && held.tag == ti {
					held = nil
				}
			}
		case 13:
			same(step, "Has", func(s tagStore) string { return fmt.Sprint(s.Has(pick(s), k)) })
		}
		if !slices.Equal(denseSeen, refSeen) {
			t.Fatalf("step %d: OnSet observed %v, map %v", step, denseSeen, refSeen)
		}
		if held != nil && !slices.Equal(floatBits(held.view), floatBits(held.want)) {
			t.Fatalf("step %d: held view of %v changed to %v, want %v", step, held.key, held.view, held.want)
		}
		if step%500 == 499 {
			for ti := range tags {
				for _, k := range keys {
					same(step, fmt.Sprintf("sweep tag %d key %v", ti, k), func(s tagStore) string {
						tag := tags[ti][0]
						if s != tagStore(dense) {
							tag = tags[ti][1]
						}
						return readAll(s, tag, k)
					})
				}
			}
			if got, want := names(dense.Tags()), names(ref.Tags()); !slices.Equal(got, want) {
				t.Fatalf("step %d: Tags() %v, map %v", step, got, want)
			}
		}
	}
}

func names(tags []*Tag) []string {
	out := make([]string, len(tags))
	for i, t := range tags {
		out[i] = t.Name
	}
	return out
}
