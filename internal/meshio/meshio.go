// Package meshio serializes meshes and partition assignments to a
// compact binary format, so command-line tools can stage workflows
// (generate, partition, improve, adapt) the way the paper's tools pass
// meshes between steps. The format stores the full topology (downward
// adjacencies per dimension), coordinates, and classification; parallel
// state (remote copies) is not stored — a loaded mesh is a serial part,
// partitioned afresh.
package meshio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"slices"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

const (
	magicV1 = "PUMIGO01" // topology only
	magicV2 = "PUMIGO02" // topology + numeric tag data (fields included)
)

// Write serializes a mesh.
func Write(w io.Writer, m *mesh.Mesh) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magicV2); err != nil {
		return err
	}
	wu32 := func(v uint32) { binary.Write(bw, binary.LittleEndian, v) }
	wu32(uint32(m.Dim()))

	// Vertices: assign sequential ids in iteration order.
	index := map[mesh.Ent]uint32{}
	wu32(uint32(m.Count(0)))
	for v := range m.Iter(0) {
		index[v] = uint32(len(index))
		p := m.Coord(v)
		binary.Write(bw, binary.LittleEndian, [3]float64{p.X, p.Y, p.Z})
		writeClassif(bw, m.Classification(v))
	}
	// Higher dimensions: entities as vertex tuples (set semantics are
	// recovered by BuildFromVerts on load; the canonical order is
	// preserved by storing Verts order).
	for d := 1; d <= m.Dim(); d++ {
		wu32(uint32(m.Count(d)))
		for e := range m.Iter(d) {
			bw.WriteByte(byte(e.T))
			verts := m.Verts(e)
			wu32(uint32(len(verts)))
			for _, v := range verts {
				wu32(index[v])
			}
			writeClassif(bw, m.Classification(e))
		}
	}
	if err := writeTags(bw, m); err != nil {
		return err
	}
	return bw.Flush()
}

// Read deserializes a mesh against the given model (may be nil).
func Read(r io.Reader, model *gmi.Model) (*mesh.Mesh, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(magicV1))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("meshio: reading header: %w", err)
	}
	version := 0
	switch string(head) {
	case magicV1:
		version = 1
	case magicV2:
		version = 2
	default:
		return nil, fmt.Errorf("meshio: bad magic %q", head)
	}
	var dim uint32
	if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
		return nil, err
	}
	if dim < 1 || dim > 3 {
		return nil, fmt.Errorf("meshio: bad dimension %d", dim)
	}
	m := mesh.New(model, int(dim))
	var nv uint32
	if err := binary.Read(br, binary.LittleEndian, &nv); err != nil {
		return nil, err
	}
	verts := make([]mesh.Ent, nv)
	for i := range verts {
		var p [3]float64
		if err := binary.Read(br, binary.LittleEndian, &p); err != nil {
			return nil, err
		}
		cls, err := readClassif(br)
		if err != nil {
			return nil, err
		}
		verts[i] = m.CreateVertex(cls, vec.V{X: p[0], Y: p[1], Z: p[2]})
	}
	for d := 1; d <= int(dim); d++ {
		var n uint32
		if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		for i := uint32(0); i < n; i++ {
			tb, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			t := mesh.Type(tb)
			if t >= mesh.TypeCount || t.Dim() != d {
				return nil, fmt.Errorf("meshio: entity type %d in dimension %d section", tb, d)
			}
			var k uint32
			if err := binary.Read(br, binary.LittleEndian, &k); err != nil {
				return nil, err
			}
			if int(k) != t.VertCount() {
				return nil, fmt.Errorf("meshio: %v with %d vertices", t, k)
			}
			vs := make([]mesh.Ent, k)
			for j := range vs {
				var vi uint32
				if err := binary.Read(br, binary.LittleEndian, &vi); err != nil {
					return nil, err
				}
				if vi >= nv {
					return nil, fmt.Errorf("meshio: vertex index %d out of range", vi)
				}
				vs[j] = verts[vi]
			}
			cls, err := readClassif(br)
			if err != nil {
				return nil, err
			}
			e := m.BuildFromVerts(t, vs, cls)
			m.SetClassification(e, cls)
		}
	}
	if version >= 2 {
		if err := readTags(br, m); err != nil {
			return nil, err
		}
	}
	return m, nil
}

func writeClassif(w io.Writer, c gmi.Ref) {
	binary.Write(w, binary.LittleEndian, int8(c.Dim))
	binary.Write(w, binary.LittleEndian, c.Tag)
}

func readClassif(r io.Reader) (gmi.Ref, error) {
	var d int8
	var tag int32
	if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
		return gmi.NoRef, err
	}
	if err := binary.Read(r, binary.LittleEndian, &tag); err != nil {
		return gmi.NoRef, err
	}
	return gmi.Ref{Dim: d, Tag: tag}, nil
}

// SaveFile writes a mesh to the named file.
func SaveFile(path string, m *mesh.Mesh) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Write(f, m); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a mesh from the named file.
func LoadFile(path string, model *gmi.Model) (*mesh.Mesh, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, model)
}

// WriteAssignment stores an element-to-part assignment aligned with the
// mesh's element iteration order.
func WriteAssignment(w io.Writer, parts []int32) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("PUMIPT01"); err != nil {
		return err
	}
	binary.Write(bw, binary.LittleEndian, uint32(len(parts)))
	for _, p := range parts {
		binary.Write(bw, binary.LittleEndian, p)
	}
	return bw.Flush()
}

// ReadAssignment loads an element-to-part assignment.
func ReadAssignment(r io.Reader) ([]int32, error) {
	br := bufio.NewReader(r)
	head := make([]byte, 8)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, err
	}
	if string(head) != "PUMIPT01" {
		return nil, fmt.Errorf("meshio: bad assignment magic %q", head)
	}
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	out := make([]int32, n)
	if err := binary.Read(br, binary.LittleEndian, &out); err != nil {
		return nil, err
	}
	// Reject corrupt part ids here, at the serial load boundary: a
	// negative id surviving to PlansFromAssignment would blow up deep
	// inside a collective migration instead of failing every rank with
	// a structured error.
	for i, p := range out {
		if p < 0 {
			return nil, fmt.Errorf("meshio: assignment entry %d has negative part id %d", i, p)
		}
	}
	return out, nil
}

// maxTags is the most tags a tag section can index: per-entity records
// name their tag by one byte.
const maxTags = 255

// maxTagBytes caps the encoded size of one tagged datum. readTags
// rejects a directory entry needing more per entity before anything is
// sized from it, so a corrupt header cannot request a huge buffer.
const maxTagBytes = 1 << 16

// TagDirError reports a tag directory entry Read cannot accept: an
// unknown kind, a size past maxTagBytes, or a layout that disagrees
// with the tag the mesh already has under that name.
type TagDirError struct {
	Name   string
	Kind   ds.TagKind
	Size   uint32
	Reason string
}

func (e *TagDirError) Error() string {
	return fmt.Sprintf("meshio: tag %q (kind %v, size %d): %s", e.Name, e.Kind, e.Size, e.Reason)
}

// tagComponentBytes is the encoded width of one component of kind k,
// or 0 for a kind the format does not define.
func tagComponentBytes(k ds.TagKind) uint64 {
	switch k {
	case ds.TagInt, ds.TagFloat, ds.TagIntSlice, ds.TagFloatSlice:
		return 8
	case ds.TagBytes:
		return 1
	}
	return 0
}

// writeTags appends the tag section: a tag directory followed, per
// dimension and per entity in iteration order, by that entity's tagged
// values.
func writeTags(w *bufio.Writer, m *mesh.Mesh) error {
	tags := m.Tags.Tags()
	if len(tags) > maxTags {
		return fmt.Errorf("meshio: %d tags, at most %d fit the format", len(tags), maxTags)
	}
	binary.Write(w, binary.LittleEndian, uint32(len(tags)))
	for _, t := range tags {
		binary.Write(w, binary.LittleEndian, uint32(len(t.Name)))
		w.WriteString(t.Name)
		w.WriteByte(byte(t.Kind))
		binary.Write(w, binary.LittleEndian, uint32(t.Size))
	}
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			present := uint8(0)
			for _, t := range tags {
				if m.Tags.Has(t, e) {
					present++
				}
			}
			w.WriteByte(present)
			for ti, t := range tags {
				if !m.Tags.Has(t, e) {
					continue
				}
				w.WriteByte(byte(ti))
				switch t.Kind {
				case ds.TagInt:
					v, _ := m.Tags.GetInt(t, e)
					binary.Write(w, binary.LittleEndian, v)
				case ds.TagFloat:
					v, _ := m.Tags.GetFloat(t, e)
					binary.Write(w, binary.LittleEndian, v)
				case ds.TagIntSlice:
					v, _ := m.Tags.GetInts(t, e)
					binary.Write(w, binary.LittleEndian, v)
				case ds.TagFloatSlice:
					v, _ := m.Tags.GetFloats(t, e)
					binary.Write(w, binary.LittleEndian, v)
				case ds.TagBytes:
					v, _ := m.Tags.GetBytes(t, e)
					w.Write(v)
				}
			}
		}
	}
	return nil
}

// readTags restores the tag section written by writeTags. Entity order
// matches the write order because BuildFromVerts created entities in
// file order. Directory entries are validated before use (see
// TagDirError).
func readTags(r *bufio.Reader, m *mesh.Mesh) error {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return fmt.Errorf("meshio: tag directory: %w", err)
	}
	if n > maxTags {
		return fmt.Errorf("meshio: %d tags", n)
	}
	tags := make([]*ds.Tag, n)
	for i := range tags {
		var nameLen uint32
		if err := binary.Read(r, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("meshio: tag name of %d bytes", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(r, name); err != nil {
			return err
		}
		kindB, err := r.ReadByte()
		if err != nil {
			return err
		}
		var size uint32
		if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
			return err
		}
		bad := &TagDirError{Name: string(name), Kind: ds.TagKind(kindB), Size: size}
		width := tagComponentBytes(bad.Kind)
		switch {
		case width == 0:
			bad.Reason = "unknown kind"
			return bad
		case uint64(size)*width > maxTagBytes:
			bad.Reason = fmt.Sprintf("%d bytes per entity exceeds the %d-byte cap", uint64(size)*width, maxTagBytes)
			return bad
		}
		tag := m.Tags.Find(bad.Name)
		if tag == nil {
			tag, err = m.Tags.Create(bad.Name, bad.Kind, int(size))
			if err != nil {
				bad.Reason = err.Error()
				return bad
			}
		}
		if tag.Kind != bad.Kind || tag.Size != int(size) {
			bad.Reason = fmt.Sprintf("conflicts with the mesh's %v tag of size %d", tag.Kind, tag.Size)
			return bad
		}
		tags[i] = tag
	}
	// Set copies, so one scratch buffer per kind serves every entity.
	var ints []int64
	var floats []float64
	var raw []byte
	for d := 0; d <= m.Dim(); d++ {
		for e := range m.Iter(d) {
			present, err := r.ReadByte()
			if err != nil {
				return err
			}
			for k := 0; k < int(present); k++ {
				ti, err := r.ReadByte()
				if err != nil {
					return err
				}
				if int(ti) >= len(tags) {
					return fmt.Errorf("meshio: tag index %d out of range", ti)
				}
				tag := tags[ti]
				switch tag.Kind {
				case ds.TagInt:
					var v int64
					if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
						return err
					}
					m.Tags.SetInt(tag, e, v)
				case ds.TagFloat:
					var v float64
					if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
						return err
					}
					m.Tags.SetFloat(tag, e, v)
				case ds.TagIntSlice:
					ints = slices.Grow(ints[:0], tag.Size)[:tag.Size]
					if err := binary.Read(r, binary.LittleEndian, ints); err != nil {
						return err
					}
					m.Tags.SetInts(tag, e, ints)
				case ds.TagFloatSlice:
					floats = slices.Grow(floats[:0], tag.Size)[:tag.Size]
					if err := binary.Read(r, binary.LittleEndian, floats); err != nil {
						return err
					}
					m.Tags.SetFloats(tag, e, floats)
				case ds.TagBytes:
					raw = slices.Grow(raw[:0], tag.Size)[:tag.Size]
					if _, err := io.ReadFull(r, raw); err != nil {
						return err
					}
					m.Tags.SetBytes(tag, e, raw)
				}
			}
		}
	}
	return nil
}
