package zpart

import (
	"fmt"
	"math"
	"sort"

	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/vec"
)

// GeomInput is the element view geometric partitioners consume: one
// representative point (typically the centroid) and a weight per
// element. Weights default to 1 when nil.
type GeomInput struct {
	Pts []vec.V
	Wts []float64
}

func (in GeomInput) weight(i int) float64 {
	if in.Wts == nil {
		return 1
	}
	return in.Wts[i]
}

// Centroids extracts the geometric input of a mesh's elements, plus the
// element handles in matching order.
func Centroids(m *mesh.Mesh) (GeomInput, []mesh.Ent) {
	var in GeomInput
	var els []mesh.Ent
	for el := range m.Elements() {
		in.Pts = append(in.Pts, m.Centroid(el))
		els = append(els, el)
	}
	return in, els
}

// RCB partitions by recursive coordinate bisection: split the longest
// bounding-box axis at the weighted median, recursing with proportional
// part counts (any nparts, not just powers of two).
func RCB(in GeomInput, nparts int) []int32 {
	return recursiveBisect(in, nparts, splitLongestAxis)
}

// RIB partitions by recursive inertial bisection: project onto the
// principal inertial axis and split at the weighted median. It adapts
// to non-axis-aligned geometry better than RCB at slightly higher cost.
func RIB(in GeomInput, nparts int) []int32 {
	return recursiveBisect(in, nparts, splitInertialAxis)
}

type splitter func(in GeomInput, idx []int, leftFrac float64) (left, right []int)

func recursiveBisect(in GeomInput, nparts int, split splitter) []int32 {
	if nparts < 1 {
		panic(fmt.Sprintf("zpart: nparts = %d", nparts))
	}
	out := make([]int32, len(in.Pts))
	idx := make([]int, len(in.Pts))
	for i := range idx {
		idx[i] = i
	}
	var rec func(idx []int, base, k int)
	rec = func(idx []int, base, k int) {
		if k == 1 {
			for _, i := range idx {
				out[i] = int32(base)
			}
			return
		}
		kl := k / 2
		left, right := split(in, idx, float64(kl)/float64(k))
		rec(left, base, kl)
		rec(right, base+kl, k-kl)
	}
	rec(idx, 0, nparts)
	return out
}

// splitAtWeightedMedian orders idx by the given keys and cuts so the
// left side holds ~leftFrac of the total weight.
func splitAtWeightedMedian(in GeomInput, idx []int, key []float64, leftFrac float64) (left, right []int) {
	if len(idx) == 0 {
		// More parts than points: the surplus parts stay empty.
		return nil, nil
	}
	ord := make([]int, len(idx))
	copy(ord, idx)
	sort.SliceStable(ord, func(a, b int) bool {
		if key[ord[a]] != key[ord[b]] {
			return key[ord[a]] < key[ord[b]]
		}
		return ord[a] < ord[b]
	})
	total := 0.0
	for _, i := range ord {
		total += in.weight(i)
	}
	target := total * leftFrac
	acc := 0.0
	cut := 0
	for cut < len(ord)-1 {
		w := in.weight(ord[cut])
		if acc+w > target && acc > 0 {
			break
		}
		acc += w
		cut++
	}
	if cut == 0 {
		cut = 1
	}
	return ord[:cut], ord[cut:]
}

func splitLongestAxis(in GeomInput, idx []int, leftFrac float64) ([]int, []int) {
	lo := vec.V{X: math.Inf(1), Y: math.Inf(1), Z: math.Inf(1)}
	hi := vec.V{X: math.Inf(-1), Y: math.Inf(-1), Z: math.Inf(-1)}
	for _, i := range idx {
		p := in.Pts[i]
		for c := 0; c < 3; c++ {
			if p.Comp(c) < lo.Comp(c) {
				lo = lo.WithComp(c, p.Comp(c))
			}
			if p.Comp(c) > hi.Comp(c) {
				hi = hi.WithComp(c, p.Comp(c))
			}
		}
	}
	axis := 0
	best := -1.0
	for c := 0; c < 3; c++ {
		if d := hi.Comp(c) - lo.Comp(c); d > best {
			best = d
			axis = c
		}
	}
	key := make([]float64, len(in.Pts))
	for _, i := range idx {
		key[i] = in.Pts[i].Comp(axis)
	}
	return splitAtWeightedMedian(in, idx, key, leftFrac)
}

func splitInertialAxis(in GeomInput, idx []int, leftFrac float64) ([]int, []int) {
	// Weighted centroid.
	var c vec.V
	tw := 0.0
	for _, i := range idx {
		w := in.weight(i)
		c = c.Add(in.Pts[i].Scale(w))
		tw += w
	}
	if tw == 0 {
		tw = 1
	}
	c = c.Scale(1 / tw)
	// Covariance matrix (symmetric 3x3).
	var m [3][3]float64
	for _, i := range idx {
		d := in.Pts[i].Sub(c)
		w := in.weight(i)
		v := [3]float64{d.X, d.Y, d.Z}
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				m[a][b] += w * v[a] * v[b]
			}
		}
	}
	// Principal axis by power iteration with a deterministic start.
	axis := [3]float64{1, 1, 0.5}
	for iter := 0; iter < 50; iter++ {
		var next [3]float64
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				next[a] += m[a][b] * axis[b]
			}
		}
		n := math.Sqrt(next[0]*next[0] + next[1]*next[1] + next[2]*next[2])
		if n < 1e-30 {
			// Degenerate cloud: fall back to the longest axis.
			return splitLongestAxis(in, idx, leftFrac)
		}
		for a := 0; a < 3; a++ {
			axis[a] = next[a] / n
		}
	}
	dir := vec.V{X: axis[0], Y: axis[1], Z: axis[2]}
	key := make([]float64, len(in.Pts))
	for _, i := range idx {
		key[i] = in.Pts[i].Dot(dir)
	}
	return splitAtWeightedMedian(in, idx, key, leftFrac)
}
