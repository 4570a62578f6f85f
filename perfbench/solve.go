package main

import (
	"fmt"
	"math"
	"math/rand"

	"github.com/fastmath/pumi-go/internal/field"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/parma"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
	"github.com/fastmath/pumi-go/internal/zpart"
)

const (
	solveN            = 8 // box cells per side, six tets per cell
	solvePartsPerRank = 2
	// solveTol is the max nodal error against the manufactured solution
	// at which the solve has converged; solveMaxIters caps the iterations
	// (the unseeded example needs about 300).
	solveTol      = 2e-3
	solveMaxIters = 2000
)

// solvePipeline is the examples/poisson damped-Jacobi solve on a fixed
// RCB+ParMA partition. Its ops build no meshes: they read adjacency and
// field tags and exchange boundary values through compiled plans.
type solvePipeline struct {
	rank  int
	model *gmi.BoxModel
	exact func(vec.V) float64

	dm    *partition.DMesh
	iters int // iterations the last op took
}

func newSolve(rank int, seed int64, dir string) (pipeline, error) {
	rng := rand.New(rand.NewSource(seed))
	// The seed draws the manufactured linear solution's coefficients
	// within +-0.05 of the example's x + 2y - 3z + 0.5, then scales them
	// so the solution's largest magnitude on the box stays the example's
	// 3.5: the iterations to an absolute tolerance then depend on the
	// solution's shape, not on its size.
	a := 0.95 + 0.1*rng.Float64()
	b := 1.95 + 0.1*rng.Float64()
	cz := -3.05 + 0.1*rng.Float64()
	d := 0.45 + 0.1*rng.Float64()
	peak := 0.0
	for corner := 0; corner < 8; corner++ {
		x, y, z := float64(corner&1), float64(corner>>1&1), float64(corner>>2)
		peak = max(peak, math.Abs(a*x+b*y+cz*z+d))
	}
	scale := 3.5 / peak
	a, b, cz, d = a*scale, b*scale, cz*scale, d*scale
	return &solvePipeline{
		rank: rank, model: gmi.Box(1, 1, 1),
		exact: func(p vec.V) float64 { return a*p.X + b*p.Y + cz*p.Z + d },
	}, nil
}

// setup builds, partitions and vertex-balances the box, creates the
// fields and assembles the stiffness diagonal.
func (p *solvePipeline) setup(c *pcu.Ctx, tr *tracer) error {
	var serial *mesh.Mesh
	var plan map[mesh.Ent]int32
	if p.rank == 0 {
		tr.begin("meshgen.build", false)
		serial = meshgen.Box3D(p.model, solveN, solveN, solveN)
		tr.end()
		tr.begin("zpart.rcb", false)
		in, els := zpart.Centroids(serial)
		assign := zpart.RCB(in, c.Size()*solvePartsPerRank)
		tr.end()
		plan = make(map[mesh.Ent]int32, len(els))
		for i, el := range els {
			plan[el] = assign[i]
		}
	}
	dm := partition.Adopt(c, p.model.Model, 3, serial, solvePartsPerRank)
	tr.begin("partition.migrate", true)
	partition.Migrate(dm, partition.PlansFromAssignment(dm, plan))
	tr.end()
	pri, err := parma.ParsePriority("Vtx>Rgn")
	if err != nil {
		return err
	}
	tr.begin("parma.balance", true)
	parma.Balance(dm, pri, parma.DefaultConfig())
	tr.end()
	tr.begin("field.assemble", false)
	for _, part := range dm.Parts {
		m := part.M
		for _, name := range []string{"u", "z", "diag"} {
			if _, err := field.New(m, name, 1, field.Linear); err != nil {
				return err
			}
		}
		diag := field.Find(m, "diag", field.Linear)
		for el := range m.Elements() {
			verts, grads, vol := elementGradients(m, el)
			for i, v := range verts {
				diag.Set(v, diag.MustGet(v)[0]+vol*grads[i].Dot(grads[i]))
			}
		}
	}
	tr.end()
	tr.begin("field.accumulate", true)
	field.AccumulateShared(dm, "diag", field.Linear)
	tr.end()
	tr.begin("field.sync", true)
	field.Sync(dm, "diag", field.Linear)
	tr.end()
	p.dm = dm
	return nil
}

// op resets the iterate to the Dirichlet data and iterates damped Jacobi
// until the max nodal error is within solveTol.
func (p *solvePipeline) op(c *pcu.Ctx, tr *tracer, _ int) (*partition.DMesh, error) {
	dm := p.dm
	tr.begin("field.reset", false)
	for _, part := range dm.Parts {
		m := part.M
		u := field.Find(m, "u", field.Linear)
		for v := range m.Iter(0) {
			if m.Classification(v).Dim < 3 {
				u.Set(v, p.exact(m.Coord(v)))
			} else {
				u.Set(v, 0)
			}
		}
	}
	tr.end()
	p.iters = 0
	for p.iters < solveMaxIters {
		p.iters++
		// z = K u, assembled element by element.
		tr.begin("field.assemble", false)
		queries := 0
		for _, part := range dm.Parts {
			m := part.M
			u := field.Find(m, "u", field.Linear)
			z := field.Find(m, "z", field.Linear)
			for v := range m.Iter(0) {
				z.Set(v, 0)
			}
			for el := range m.Elements() {
				verts, grads, vol := elementGradients(m, el)
				queries++
				var du [4]float64
				for j, v := range verts {
					du[j] = u.MustGet(v)[0]
				}
				for i, v := range verts {
					s := 0.0
					for j := range verts {
						s += vol * grads[i].Dot(grads[j]) * du[j]
					}
					z.Set(v, z.MustGet(v)[0]+s)
				}
			}
		}
		tr.end()
		tr.count("mesh.adj_queries", float64(queries))
		tr.begin("field.accumulate", true)
		field.AccumulateShared(dm, "z", field.Linear)
		tr.end()
		// u <- u - 0.9 z / diag on owned interior nodes; copies follow
		// their owners through Sync and the boundary stays pinned.
		tr.begin("field.update", false)
		for _, part := range dm.Parts {
			m := part.M
			u := field.Find(m, "u", field.Linear)
			z := field.Find(m, "z", field.Linear)
			diag := field.Find(m, "diag", field.Linear)
			for v := range m.Iter(0) {
				if !m.IsOwned(v) || m.Classification(v).Dim < 3 {
					continue
				}
				u.Set(v, u.MustGet(v)[0]-z.MustGet(v)[0]/diag.MustGet(v)[0]*0.9)
			}
		}
		tr.end()
		tr.begin("field.sync", true)
		field.Sync(dm, "u", field.Linear)
		tr.end()
		tr.begin("field.residual", true)
		worst := pcu.MaxFloat64(c, p.maxError())
		tr.end()
		if worst <= solveTol {
			break
		}
	}
	tr.countRoot("field.iters", float64(p.iters))
	return dm, nil
}

// maxError is this rank's max nodal error against the exact solution.
func (p *solvePipeline) maxError() float64 {
	var worst float64
	for _, part := range p.dm.Parts {
		m := part.M
		u := field.Find(m, "u", field.Linear)
		for v := range m.Iter(0) {
			worst = max(worst, math.Abs(u.MustGet(v)[0]-p.exact(m.Coord(v))))
		}
	}
	return worst
}

// check: the solve converged to solveTol within solveMaxIters (the
// driver also fails any op whose off-node frames needed retransmits).
func (p *solvePipeline) check(c *pcu.Ctx, tr *tracer, dm *partition.DMesh, q quality) error {
	worst := pcu.MaxFloat64(c, p.maxError())
	if worst > solveTol {
		return fmt.Errorf("solve: max error %.3g after %d iterations, tolerance %g", worst, p.iters, solveTol)
	}
	return nil
}

func (p *solvePipeline) release() { p.dm = nil }

// elementGradients returns a tet's vertices, the constant gradients of
// their linear shape functions, and the element volume.
func elementGradients(m *mesh.Mesh, el mesh.Ent) ([]mesh.Ent, [4]vec.V, float64) {
	verts := m.Verts(el)
	var x [4]vec.V
	for i, v := range verts {
		x[i] = m.Coord(v)
	}
	vol := math.Abs(x[1].Sub(x[0]).Cross(x[2].Sub(x[0])).Dot(x[3].Sub(x[0]))) / 6
	var grads [4]vec.V
	// grad(lambda_i) = n_i / (6V), with n_i the opposite face's cross
	// product oriented toward vertex i (|n_i| = 2 * face area).
	for i := 0; i < 4; i++ {
		a, b, c := x[(i+1)%4], x[(i+2)%4], x[(i+3)%4]
		n := b.Sub(a).Cross(c.Sub(a))
		if n.Dot(x[i].Sub(a)) < 0 {
			n = n.Scale(-1)
		}
		grads[i] = n.Scale(1 / (6 * vol))
	}
	return verts, grads, vol
}
