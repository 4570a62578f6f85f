package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	"github.com/fastmath/pumi-go/internal/adapt"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/meshio"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
	"github.com/fastmath/pumi-go/internal/zpart"
)

// The wing box is shockNX x shockNY x shockNZ cells, six tets per cell,
// saved over shockParts parts by a one-rank world.
const (
	shockNX, shockNY, shockNZ = 12, 6, 3
	shockParts                = 16
	// shockImbMargin is how far above ParMA's 5% target (1.05) the
	// repaired element imbalance may end before the op counts as failed.
	shockImbMargin = 0.01
)

// shockPipeline is the Fig 13 pipeline: restart from a checkpoint on a
// different rank count, adapt to a slanted shock band without balancing,
// then repair the element imbalance with heavy part splitting and
// diffusion.
type shockPipeline struct {
	rank  int
	ckpt  string
	model *gmi.BoxModel
	size  adapt.SizeField
	pri   parma.Priority

	ckptBytes int64 // rank 0: the checkpoint's size on disk
	adapted   int64 // element count after the first op's adaptation
	lastElems int64
}

func newShock(rank int, seed int64, dir string) (pipeline, error) {
	rng := rand.New(rand.NewSource(seed))
	// The seed moves the shock front (x + slope*y = offset) within
	// +-0.02 of the example's offset 2.35 and +-0.01 of its slope 0.35.
	offset := 2.33 + 0.04*rng.Float64()
	slope := 0.34 + 0.02*rng.Float64()
	pri, err := parma.ParsePriority("Rgn")
	if err != nil {
		return nil, err
	}
	return &shockPipeline{
		rank: rank, ckpt: filepath.Join(dir, "shock-ckpt"),
		model: gmi.Wing(4, 2, 0.5), pri: pri,
		size: func(p vec.V) float64 {
			if math.Abs(p.X+slope*p.Y-offset) < 0.25 {
				return 0.25
			}
			return 0.6
		},
	}, nil
}

// setup distributes the wing box over shockParts parts on a one-rank
// world and checkpoints it; every op restarts from that checkpoint on
// the two-rank world.
func (p *shockPipeline) setup(c *pcu.Ctx, tr *tracer) error {
	if p.rank != 0 {
		return nil
	}
	if err := os.RemoveAll(p.ckpt); err != nil {
		return err
	}
	_, err := pcu.RunOpt(1, pcu.Options{}, func(c1 *pcu.Ctx) error {
		tr.begin("meshgen.build", false)
		serial := meshgen.Box3D(p.model, shockNX, shockNY, shockNZ)
		tr.end()
		tr.begin("zpart.rcb", false)
		in, els := zpart.Centroids(serial)
		assign := zpart.RCB(in, shockParts)
		tr.end()
		plan := make(map[mesh.Ent]int32, len(els))
		for i, el := range els {
			plan[el] = assign[i]
		}
		dm := partition.Adopt(c1, p.model.Model, 3, serial, shockParts)
		tr.begin("partition.migrate", true)
		partition.Migrate(dm, partition.PlansFromAssignment(dm, plan))
		tr.end()
		tr.begin("meshio.save", true)
		defer tr.end()
		return meshio.SaveCheckpoint(p.ckpt, dm, meshio.Cursor{Phase: "shock"})
	})
	if err != nil {
		return fmt.Errorf("shock: build checkpoint: %w", err)
	}
	p.ckptBytes, err = dirBytes(p.ckpt)
	return err
}

func (p *shockPipeline) op(c *pcu.Ctx, tr *tracer, i int) (*partition.DMesh, error) {
	tr.begin("meshio.load", true)
	dm, _, err := meshio.LoadCheckpoint(p.ckpt, c, p.model.Model)
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("shock: load checkpoint: %w", err)
	}
	tr.count("meshio.bytes_read", float64(p.ckptBytes))
	tr.begin("adapt.parallel", true)
	st := adapt.Parallel(dm, p.size, adapt.DefaultOptions())
	tr.end()
	tr.countRoot("adapt.splits", float64(st.Splits))
	tr.countRoot("adapt.collapses", float64(st.Collapses))
	tr.countRoot("adapt.localized", float64(st.Localized))
	tr.countRoot("adapt.rounds", float64(st.Rounds))
	p.lastElems = st.ElemAfter
	cfg := parma.DefaultConfig()
	tr.begin("parma.split", true)
	parma.HeavyPartSplit(dm, cfg)
	tr.end()
	tr.begin("parma.balance", true)
	res := parma.Balance(dm, p.pri, cfg)
	tr.end()
	countBalance(tr, res)
	return dm, nil
}

// check: the repaired mesh verifies, its element imbalance is within
// shockImbMargin of the paper's 5% target, and adaptation is
// deterministic: every op of a run adapts to the same element count.
func (p *shockPipeline) check(c *pcu.Ctx, tr *tracer, dm *partition.DMesh, q quality) error {
	if err := partition.Verify(dm); err != nil {
		return fmt.Errorf("shock: verify: %w", err)
	}
	if target := parma.DefaultConfig().Tolerance + shockImbMargin; q.elemImb > target {
		return fmt.Errorf("shock: element imbalance %.4f after repair, limit %.4f", q.elemImb, target)
	}
	if p.adapted == 0 {
		p.adapted = p.lastElems
	}
	if p.lastElems != p.adapted {
		return fmt.Errorf("shock: adapted to %d elements, the first op to %d", p.lastElems, p.adapted)
	}
	return nil
}

func (p *shockPipeline) release() {}
