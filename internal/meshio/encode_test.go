package meshio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// refEncodePart and refDecodePart are the reflective binary.Write /
// binary.Read part codec that the appending one replaced, kept as the
// oracle for the file format: the new encoder must write the same
// bytes, and the new decoder must fail on every cut-short file with the
// same error.
func refEncodePart(p *partition.Part) ([]byte, error) {
	m := p.M
	var buf bytes.Buffer
	buf.WriteString(partMagic)
	var blob bytes.Buffer
	if err := Write(&blob, m); err != nil {
		return nil, err
	}
	binary.Write(&buf, binary.LittleEndian, uint64(blob.Len()))
	buf.Write(blob.Bytes())
	binary.Write(&buf, binary.LittleEndian, m.Part())
	binary.Write(&buf, binary.LittleEndian, p.FreshCounter())
	for d := 0; d <= m.Dim(); d++ {
		binary.Write(&buf, binary.LittleEndian, uint32(m.Count(d)))
		for e := range m.Iter(d) {
			binary.Write(&buf, binary.LittleEndian, p.Gid(e))
			binary.Write(&buf, binary.LittleEndian, m.Owner(e))
			res := m.Residence(e).Values()
			binary.Write(&buf, binary.LittleEndian, uint32(len(res)))
			binary.Write(&buf, binary.LittleEndian, res)
		}
	}
	return buf.Bytes(), nil
}

func refDecodePart(data []byte, pid int32, model *gmi.Model, dim int) (*partition.Part, map[mesh.Ent][]int32, error) {
	r := bytes.NewReader(data)
	head := make([]byte, len(partMagic))
	if _, err := r.Read(head); err != nil || string(head) != partMagic {
		return nil, nil, fmt.Errorf("meshio: part %d: bad part-file magic %q", pid, head)
	}
	var blobLen uint64
	if err := binary.Read(r, binary.LittleEndian, &blobLen); err != nil {
		return nil, nil, fmt.Errorf("meshio: part %d: truncated part file: %w", pid, err)
	}
	if blobLen > uint64(r.Len()) {
		return nil, nil, fmt.Errorf("meshio: part %d: mesh blob of %d bytes but only %d remain", pid, blobLen, r.Len())
	}
	blob := make([]byte, blobLen)
	if _, err := r.Read(blob); err != nil {
		return nil, nil, err
	}
	m, err := Read(bytes.NewReader(blob), model)
	if err != nil {
		return nil, nil, fmt.Errorf("meshio: part %d: %w", pid, err)
	}
	if m.Dim() != dim {
		return nil, nil, fmt.Errorf("meshio: part %d has dimension %d, manifest says %d", pid, m.Dim(), dim)
	}
	var storedPid int32
	var counter int64
	if err := binary.Read(r, binary.LittleEndian, &storedPid); err != nil {
		return nil, nil, fmt.Errorf("meshio: part %d: truncated part file: %w", pid, err)
	}
	if storedPid != pid {
		return nil, nil, fmt.Errorf("meshio: file for part %d stores part id %d", pid, storedPid)
	}
	if err := binary.Read(r, binary.LittleEndian, &counter); err != nil {
		return nil, nil, fmt.Errorf("meshio: part %d: truncated part file: %w", pid, err)
	}
	m.SetPart(pid)
	p := partition.NewPart(m)
	p.RestoreFreshCounter(counter)
	res := map[mesh.Ent][]int32{}
	for d := 0; d <= dim; d++ {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, nil, fmt.Errorf("meshio: part %d: truncated part file: %w", pid, err)
		}
		if int(n) != m.Count(d) {
			return nil, nil, fmt.Errorf("meshio: part %d: %d dim-%d records for %d entities", pid, n, d, m.Count(d))
		}
		for e := range m.Iter(d) {
			var gid int64
			var owner int32
			var nres uint32
			if err := binary.Read(r, binary.LittleEndian, &gid); err != nil {
				return nil, nil, fmt.Errorf("meshio: part %d: truncated part file: %w", pid, err)
			}
			binary.Read(r, binary.LittleEndian, &owner)
			if err := binary.Read(r, binary.LittleEndian, &nres); err != nil {
				return nil, nil, fmt.Errorf("meshio: part %d: truncated part file: %w", pid, err)
			}
			if nres == 0 || uint64(nres)*4 > uint64(r.Len()) {
				return nil, nil, fmt.Errorf("meshio: part %d: corrupt residence count %d", pid, nres)
			}
			vals := make([]int32, nres)
			if err := binary.Read(r, binary.LittleEndian, &vals); err != nil {
				return nil, nil, err
			}
			p.RestoreGid(e, gid)
			m.SetOwner(e, owner)
			if len(vals) > 1 {
				res[e] = vals
			}
		}
	}
	if r.Len() != 0 {
		return nil, nil, fmt.Errorf("meshio: part %d: %d trailing bytes", pid, r.Len())
	}
	return p, res, nil
}

// TestPartCodecMatchesReflective encodes every part of a distributed
// box with both encoders and requires identical bytes, then feeds both
// decoders prefixes cut at every byte residence (every 13th length in
// the records, a spread through the header and mesh blob) and
// single-byte corruptions of the records, requiring the same error
// text or the same decoded part.
func TestPartCodecMatchesReflective(t *testing.T) {
	model := gmi.Box(4, 1, 1)
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm := buildDistributed(ctx, 1)
		for _, p := range dm.Parts {
			want, err := refEncodePart(p)
			if err != nil {
				return err
			}
			got, err := encodePart(p)
			if err != nil {
				return err
			}
			if !bytes.Equal(got, want) {
				return fmt.Errorf("part %d: encodings differ (%d vs %d bytes)", p.M.Part(), len(got), len(want))
			}
			pid := p.M.Part()
			blobEnd := len(partMagic) + 8 + int(binary.LittleEndian.Uint64(want[len(partMagic):]))
			same := func(data []byte, what string) error {
				pa, ra, ea := refDecodePart(data, pid, model.Model, 3)
				pb, rb, eb := decodePart(data, pid, model.Model, 3)
				if fmt.Sprint(ea) != fmt.Sprint(eb) {
					return fmt.Errorf("part %d %s: errors differ: %v vs %v", pid, what, ea, eb)
				}
				if ea != nil {
					return nil
				}
				if fmt.Sprint(ra) != fmt.Sprint(rb) || pa.FreshCounter() != pb.FreshCounter() {
					return fmt.Errorf("part %d %s: decoded residence or counter differs", pid, what)
				}
				for d := 0; d <= 3; d++ {
					for e := range pa.M.Iter(d) {
						if pa.Gid(e) != pb.Gid(e) || pa.M.Owner(e) != pb.M.Owner(e) {
							return fmt.Errorf("part %d %s: %v decoded differently", pid, what, e)
						}
					}
				}
				return nil
			}
			for n := 0; n <= len(want); n++ {
				step := 13
				if n < blobEnd {
					step = 251
				}
				if n%step != 0 {
					continue
				}
				if err := same(want[:n], fmt.Sprintf("prefix %d", n)); err != nil {
					return err
				}
			}
			for i := blobEnd; i < len(want); i += 17 {
				bad := bytes.Clone(want)
				bad[i] ^= 0x81
				if err := same(bad, fmt.Sprintf("flip at %d", i)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
