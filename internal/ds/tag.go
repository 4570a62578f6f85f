package ds

import "fmt"

// TagKind identifies the value type stored by a tag. The numeric
// values are part of the mesh file and migration wire formats.
type TagKind int

// Tag value kinds. Every kind is fixed-width: slice kinds store exactly
// the tag's Size components per tagged datum.
const (
	TagInt TagKind = iota
	TagFloat
	TagIntSlice
	TagFloatSlice
	TagBytes
)

func (k TagKind) String() string {
	switch k {
	case TagInt:
		return "int"
	case TagFloat:
		return "float"
	case TagIntSlice:
		return "int[]"
	case TagFloatSlice:
		return "float[]"
	case TagBytes:
		return "bytes"
	}
	return fmt.Sprintf("TagKind(%d)", int(k))
}

// Tag describes a named piece of user data attachable to arbitrary data.
// A Tag is created once per (name, kind, size) on a TagTable and then
// used as the handle for get/set operations.
type Tag struct {
	Name string
	Kind TagKind
	// Size is the number of components per datum for slice kinds,
	// and 1 otherwise.
	Size int
	id   int
}

// column is one tag's storage for one slot column: a presence bitset
// and the values of the tag's kind, Size per index, laid out flat.
// Values of unset indices are garbage; only the presence bit makes
// them visible.
type column struct {
	present []uint64
	ints    []int64
	floats  []float64
	bytes   []byte
}

// tagData is one tag's storage across all slot columns.
type tagData struct {
	cols []column
	n    int // keys currently tagged
}

// TagTable attaches tag data to keys (entity handles, model entities,
// ...) that map to dense slots. Storage is dense: each (tag, column)
// pair keeps one flat typed array indexed by slot index plus a
// presence bitset, the same layout the mesh uses for its entity data.
// A column grows to the highest index ever set, so memory is
// O(highest set index x Size) per (tag, column), not O(tagged keys).
//
// Getters return views into that storage. A view stays valid only
// until the next Set or Delete of the same key under the same tag, and
// must not be mutated.
type TagTable[K comparable] struct {
	tags    []*Tag
	byName  map[string]*Tag
	data    []tagData // indexed by tag id; nil cols once destroyed
	slot    func(K) (col, idx int)
	columns int

	// OnSet, when non-nil, observes every tag write before it lands.
	// The mesh layer hooks pumi-san's owner-only write checking here.
	OnSet func(K)
}

// NewTagTable returns an empty tag table. slot maps a key to its dense
// storage slot: a column in [0, columns) and a non-negative index
// within that column (an entity's type and its index within the type,
// say). A key without a slot maps to a negative index; it reads as
// untagged, and setting it panics.
func NewTagTable[K comparable](columns int, slot func(K) (col, idx int)) *TagTable[K] {
	return &TagTable[K]{byName: make(map[string]*Tag), slot: slot, columns: columns}
}

// Create registers a new tag. It returns an error if the name is taken,
// the kind is unknown, or the size is invalid for the kind.
func (t *TagTable[K]) Create(name string, kind TagKind, size int) (*Tag, error) {
	if _, ok := t.byName[name]; ok {
		return nil, fmt.Errorf("ds: tag %q already exists", name)
	}
	switch kind {
	case TagIntSlice, TagFloatSlice, TagBytes:
		if size < 1 {
			return nil, fmt.Errorf("ds: tag %q: size %d invalid for kind %v", name, size, kind)
		}
	case TagInt, TagFloat:
		size = 1
	default:
		return nil, fmt.Errorf("ds: tag %q: unknown kind %v", name, kind)
	}
	// Ids index data and are never reused: a destroyed tag's id stays
	// retired, so a later tag cannot alias its storage.
	tag := &Tag{Name: name, Kind: kind, Size: size, id: len(t.data)}
	t.tags = append(t.tags, tag)
	t.byName[name] = tag
	t.data = append(t.data, tagData{cols: make([]column, t.columns)})
	return tag, nil
}

// Find returns the tag with the given name, or nil.
func (t *TagTable[K]) Find(name string) *Tag { return t.byName[name] }

// Tags returns all registered tags in creation order.
func (t *TagTable[K]) Tags() []*Tag { return t.tags }

// Destroy removes a tag and all data attached under it.
func (t *TagTable[K]) Destroy(tag *Tag) {
	if t.byName[tag.Name] != tag {
		return
	}
	delete(t.byName, tag.Name)
	t.data[tag.id] = tagData{}
	// Keep ids stable; slot is retired.
	for i, x := range t.tags {
		if x == tag {
			t.tags = append(t.tags[:i], t.tags[i+1:]...)
			break
		}
	}
}

// locate returns the column and index holding key's data under tag, or
// ok false when key is untagged.
func (t *TagTable[K]) locate(tag *Tag, key K) (c *column, i int, ok bool) {
	col, i := t.slot(key)
	cols := t.data[tag.id].cols
	if i < 0 || col < 0 || col >= len(cols) {
		return nil, 0, false
	}
	c = &cols[col]
	if w := i >> 6; w >= len(c.present) || c.present[w]&(1<<(i&63)) == 0 {
		return nil, 0, false
	}
	return c, i, true
}

// write marks key tagged under tag and returns the column and index to
// store its values at. OnSet runs first, before any storage changes.
func (t *TagTable[K]) write(tag *Tag, key K) (*column, int) {
	if t.OnSet != nil {
		t.OnSet(key)
	}
	col, i := t.slot(key)
	d := &t.data[tag.id]
	if i < 0 || col < 0 || col >= len(d.cols) {
		panic(fmt.Sprintf("ds: tag %q: key %v has no storage slot", tag.Name, key))
	}
	c := &d.cols[col]
	w, bit := i>>6, uint64(1)<<(i&63)
	c.present = grow(c.present, w+1)
	if c.present[w]&bit == 0 {
		c.present[w] |= bit
		d.n++
	}
	return c, i
}

// grow extends s to at least n elements, amortizing reallocation the
// way append does. New elements are zero.
func grow[E any](s []E, n int) []E {
	if n <= len(s) {
		return s
	}
	return append(s, make([]E, n-len(s))...)
}

// Has reports whether key carries data under tag.
func (t *TagTable[K]) Has(tag *Tag, key K) bool {
	_, _, ok := t.locate(tag, key)
	return ok
}

// Delete removes tag data from key.
func (t *TagTable[K]) Delete(tag *Tag, key K) {
	if c, i, ok := t.locate(tag, key); ok {
		c.present[i>>6] &^= 1 << (i & 63)
		t.data[tag.id].n--
	}
}

// DeleteAll removes tag data for key under every tag (used when the
// underlying datum is destroyed, so a recycled slot starts untagged).
func (t *TagTable[K]) DeleteAll(key K) {
	col, i := t.slot(key)
	if i < 0 || col < 0 || col >= t.columns {
		return
	}
	w, bit := i>>6, uint64(1)<<(i&63)
	for id := range t.data {
		d := &t.data[id]
		if d.cols == nil {
			continue
		}
		if p := d.cols[col].present; w < len(p) && p[w]&bit != 0 {
			p[w] &^= bit
			d.n--
		}
	}
}

// CountTagged returns the number of keys carrying data under tag.
func (t *TagTable[K]) CountTagged(tag *Tag) int { return t.data[tag.id].n }

// view returns the stride-wide window of s at index i, capacity-clipped
// so appending to it cannot write into a neighbor's values.
func view[E any](s []E, i, stride int) []E {
	return s[i*stride : (i+1)*stride : (i+1)*stride]
}

// SetInt attaches an integer value. The tag must have kind TagInt.
func (t *TagTable[K]) SetInt(tag *Tag, key K, v int64) {
	mustKind(tag, TagInt)
	c, i := t.write(tag, key)
	c.ints = grow(c.ints, i+1)
	c.ints[i] = v
}

// GetInt reads an integer value; ok is false if key is untagged.
func (t *TagTable[K]) GetInt(tag *Tag, key K) (v int64, ok bool) {
	mustKind(tag, TagInt)
	c, i, ok := t.locate(tag, key)
	if !ok {
		return 0, false
	}
	return c.ints[i], true
}

// SetFloat attaches a float value. The tag must have kind TagFloat.
func (t *TagTable[K]) SetFloat(tag *Tag, key K, v float64) {
	mustKind(tag, TagFloat)
	c, i := t.write(tag, key)
	c.floats = grow(c.floats, i+1)
	c.floats[i] = v
}

// GetFloat reads a float value; ok is false if key is untagged.
func (t *TagTable[K]) GetFloat(tag *Tag, key K) (v float64, ok bool) {
	mustKind(tag, TagFloat)
	c, i, ok := t.locate(tag, key)
	if !ok {
		return 0, false
	}
	return c.floats[i], true
}

// SetInts attaches a fixed-size integer slice (copied).
func (t *TagTable[K]) SetInts(tag *Tag, key K, v []int64) {
	mustKind(tag, TagIntSlice)
	mustSize(tag, len(v))
	c, i := t.write(tag, key)
	c.ints = grow(c.ints, (i+1)*tag.Size)
	copy(view(c.ints, i, tag.Size), v)
}

// GetInts reads an integer slice. The result is a view into the table:
// it must not be mutated and is valid until key's next Set or Delete
// under tag.
func (t *TagTable[K]) GetInts(tag *Tag, key K) ([]int64, bool) {
	mustKind(tag, TagIntSlice)
	c, i, ok := t.locate(tag, key)
	if !ok {
		return nil, false
	}
	return view(c.ints, i, tag.Size), true
}

// SetFloats attaches a fixed-size float slice (copied).
func (t *TagTable[K]) SetFloats(tag *Tag, key K, v []float64) {
	mustKind(tag, TagFloatSlice)
	mustSize(tag, len(v))
	c, i := t.write(tag, key)
	c.floats = grow(c.floats, (i+1)*tag.Size)
	copy(view(c.floats, i, tag.Size), v)
}

// GetFloats reads a float slice. The result is a view into the table:
// it must not be mutated and is valid until key's next Set or Delete
// under tag.
func (t *TagTable[K]) GetFloats(tag *Tag, key K) ([]float64, bool) {
	mustKind(tag, TagFloatSlice)
	c, i, ok := t.locate(tag, key)
	if !ok {
		return nil, false
	}
	return view(c.floats, i, tag.Size), true
}

// SetBytes attaches raw bytes of the tag's size (copied).
func (t *TagTable[K]) SetBytes(tag *Tag, key K, v []byte) {
	mustKind(tag, TagBytes)
	mustSize(tag, len(v))
	c, i := t.write(tag, key)
	c.bytes = grow(c.bytes, (i+1)*tag.Size)
	copy(view(c.bytes, i, tag.Size), v)
}

// GetBytes reads raw bytes. The result is a view into the table: it
// must not be mutated and is valid until key's next Set or Delete
// under tag.
func (t *TagTable[K]) GetBytes(tag *Tag, key K) ([]byte, bool) {
	mustKind(tag, TagBytes)
	c, i, ok := t.locate(tag, key)
	if !ok {
		return nil, false
	}
	return view(c.bytes, i, tag.Size), true
}

func mustKind(tag *Tag, k TagKind) {
	if tag.Kind != k {
		panic(fmt.Sprintf("ds: tag %q has kind %v, accessed as %v", tag.Name, tag.Kind, k))
	}
}

func mustSize(tag *Tag, n int) {
	if tag.Size != n {
		panic(fmt.Sprintf("ds: tag %q has size %d, got %d values", tag.Name, tag.Size, n))
	}
}
