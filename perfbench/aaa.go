package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// AAA-surrogate mesh size: aaaAxial layers of an aaaCross x aaaCross
// cross-section grid, six tets per cell.
const (
	aaaAxial, aaaCross = 12, 6
	aaaPartsPerRank    = 16
)

// aaaPipeline is the Tables II-III pipeline: read the serialized vessel
// mesh on rank 0, partition it with the hypergraph method, distribute
// it, repair the vertex imbalance with ParMA T2, checkpoint it and add a
// ghost layer. It is the "time to a balanced, written partition".
type aaaPipeline struct {
	rank  int
	dir   string
	model *gmi.VesselModel
	pri   parma.Priority

	input  []byte // rank 0: the serialized serial mesh
	nElems int64  // rank 0: its element count

	// Per-op results the check compares against.
	vtxBefore float64
	ckpt      string
}

func newAAA(rank int, seed int64, dir string) (pipeline, error) {
	rng := rand.New(rand.NewSource(seed))
	// The seed moves the aneurysm bulge within +-0.1 of the example's
	// 0.6; the mesh topology (and so the element count) is fixed.
	bulge := 0.5 + 0.2*rng.Float64()
	pri, err := parma.ParsePriority("Vtx=Edge>Rgn")
	if err != nil {
		return nil, err
	}
	return &aaaPipeline{rank: rank, dir: dir, model: gmi.Vessel(10, 1, bulge, 1.2), pri: pri}, nil
}

func (p *aaaPipeline) setup(c *pcu.Ctx, tr *tracer) error {
	if p.rank != 0 {
		return nil
	}
	tr.begin("meshgen.build", false)
	m := meshgen.Vessel3D(p.model, aaaAxial, aaaCross)
	tr.end()
	var buf bytes.Buffer
	tr.begin("meshio.write", false)
	err := meshio.Write(&buf, m)
	tr.end()
	if err != nil {
		return fmt.Errorf("aaa: serialize mesh: %w", err)
	}
	p.input, p.nElems = buf.Bytes(), int64(m.Count(3))
	return nil
}

func (p *aaaPipeline) op(c *pcu.Ctx, tr *tracer, i int) (*partition.DMesh, error) {
	var serial *mesh.Mesh
	var plan map[mesh.Ent]int32
	if p.rank == 0 {
		var err error
		tr.begin("meshio.read", false)
		serial, err = meshio.Read(bytes.NewReader(p.input), p.model.Model)
		tr.end()
		if err != nil {
			return nil, fmt.Errorf("aaa: read mesh: %w", err)
		}
		tr.count("meshio.bytes_read", float64(len(p.input)))
		tr.begin("zpart.hypergraph", false)
		h, els := zpart.ElementHypergraph(serial, 0)
		tr.end()
		tr.begin("zpart.phg", false)
		assign := zpart.PHG(h, c.Size()*aaaPartsPerRank)
		tr.end()
		plan = make(map[mesh.Ent]int32, len(els))
		for j, el := range els {
			plan[el] = assign[j]
			if assign[j] != 0 {
				tr.count("partition.elems_moved", 1)
			}
		}
	}
	tr.begin("partition.adopt", false)
	dm := partition.Adopt(c, p.model.Model, 3, serial, aaaPartsPerRank)
	tr.end()
	tr.begin("partition.migrate", true)
	partition.Migrate(dm, partition.PlansFromAssignment(dm, plan))
	tr.end()
	tr.begin("parma.balance", true)
	res := parma.Balance(dm, p.pri, parma.DefaultConfig())
	tr.end()
	countBalance(tr, res)
	p.vtxBefore = levelBefore(res, 0)
	p.ckpt = filepath.Join(p.dir, fmt.Sprintf("aaa-ckpt-%d", i))
	tr.begin("meshio.save", true)
	err := meshio.SaveCheckpoint(p.ckpt, dm, meshio.Cursor{Phase: "aaa"})
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("aaa: save checkpoint: %w", err)
	}
	tr.begin("partition.ghost", true)
	partition.Ghost(dm, 2, 1)
	tr.end()
	return dm, nil
}

// check: the distributed mesh verifies, no element was lost or
// duplicated, and ParMA did not leave vertices worse balanced than the
// hypergraph partition it started from.
func (p *aaaPipeline) check(c *pcu.Ctx, tr *tracer, dm *partition.DMesh, q quality) error {
	if p.rank == 0 {
		if n, err := dirBytes(p.ckpt); err == nil {
			tr.count("meshio.bytes_written", float64(n))
		}
		defer os.RemoveAll(p.ckpt)
	}
	if err := partition.Verify(dm); err != nil {
		return fmt.Errorf("aaa: verify: %w", err)
	}
	want := pcu.Bcast(c, 0, p.nElems)
	if got := partition.GlobalCount(dm, 3); got != want {
		return fmt.Errorf("aaa: %d elements after the pipeline, %d read", got, want)
	}
	if q.vtxImb > p.vtxBefore+1e-9 {
		return fmt.Errorf("aaa: vertex imbalance %.4f after ParMA, %.4f before", q.vtxImb, p.vtxBefore)
	}
	return nil
}

func (p *aaaPipeline) release() {}

// levelBefore is the imbalance ParMA measured for dim before balancing
// it, or 0 if the priority had no such level.
func levelBefore(res parma.Result, dim int) float64 {
	for _, l := range res.Levels {
		if l.Dim == dim {
			return l.Before
		}
	}
	return 0
}

// countBalance records a Balance result's per-op counters. Results are
// identical on every rank.
func countBalance(tr *tracer, res parma.Result) {
	if tr == nil {
		return
	}
	tol := parma.DefaultConfig().Tolerance
	var before, after float64
	for _, l := range res.Levels {
		tr.countRoot("parma.iters", float64(l.Iters))
		tr.countRoot("parma.levels", 1)
		if l.After <= tol {
			tr.countRoot("parma.levels_met", 1)
		}
		before, after = max(before, l.Before), max(after, l.After)
	}
	tr.countRoot("parma.imb_before", before)
	tr.countRoot("parma.imb_after", after)
}

// dirBytes is the total size of the regular files directly in dir.
func dirBytes(dir string) (int64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n, nil
}
