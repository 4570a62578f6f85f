package zpart

import (
	"fmt"
	"runtime"
	"slices"

	"github.com/fastmath/pumi-go/internal/mesh"
)

// Hypergraph is a weighted hypergraph in dual CSR form: vertex v's nets
// are Nets[VX[v]:VX[v+1]]; net n's pins are Pins[NX[n]:NX[n+1]].
type Hypergraph struct {
	VX   []int32
	Nets []int32
	NX   []int32
	Pins []int32
	VWt  []float64
	NWt  []float64
}

// NV returns the vertex count.
func (h *Hypergraph) NV() int { return len(h.VWt) }

// NN returns the net count.
func (h *Hypergraph) NN() int { return len(h.NWt) }

// ConnectivityCut returns the (lambda-1) cut metric: for each net, its
// weight times (number of parts it spans - 1). This is the objective
// hypergraph partitioners like Zoltan PHG minimize, modeling true
// communication volume. Part ids must be non-negative.
func (h *Hypergraph) ConnectivityCut(part []int32) float64 {
	nparts := int32(0)
	for _, p := range part {
		nparts = max(nparts, p+1)
	}
	// stamp[p] == n+1 marks part p as already counted for net n.
	stamp := make([]int32, nparts)
	cut := 0.0
	for n := 0; n < h.NN(); n++ {
		spans := 0
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			if p := part[h.Pins[j]]; stamp[p] != int32(n+1) {
				stamp[p] = int32(n + 1)
				spans++
			}
		}
		if spans > 1 {
			cut += h.NWt[n] * float64(spans-1)
		}
	}
	return cut
}

// ElementHypergraph extracts the element hypergraph of a mesh: one
// vertex per element, one net per mesh entity of dimension netDim
// connecting all elements adjacent to it (netDim 0 models communication
// through shared vertices, as PHG setups for FE meshes typically do).
// Nets with fewer than two pins are dropped.
func ElementHypergraph(m *mesh.Mesh, netDim int) (*Hypergraph, []mesh.Ent) {
	var els []mesh.Ent
	index := map[mesh.Ent]int32{}
	for el := range m.Elements() {
		index[el] = int32(len(els))
		els = append(els, el)
	}
	h := &Hypergraph{VWt: make([]float64, len(els)), NX: []int32{0}}
	for i := range h.VWt {
		h.VWt[i] = 1
	}
	var adj []mesh.Ent
	for b := range m.Iter(netDim) {
		adj = m.AdjacentTo(b, m.Dim(), adj[:0])
		if len(adj) < 2 {
			continue
		}
		for _, el := range adj {
			h.Pins = append(h.Pins, index[el])
		}
		h.NX = append(h.NX, int32(len(h.Pins)))
		h.NWt = append(h.NWt, 1)
	}
	h.buildNets()
	return h, els
}

// buildNets derives the vertex-to-net view (VX, Nets) from the net-to-pin
// view (NX, Pins). Each vertex lists its nets in ascending net order,
// which fixes the summation order of every gain and score over them.
func (h *Hypergraph) buildNets() {
	nv := h.NV()
	h.VX = make([]int32, nv+1)
	for _, p := range h.Pins {
		h.VX[p+1]++
	}
	for i := 0; i < nv; i++ {
		h.VX[i+1] += h.VX[i]
	}
	h.Nets = make([]int32, len(h.Pins))
	fill := make([]int32, nv)
	for n := 0; n < h.NN(); n++ {
		for _, p := range h.Pins[h.NX[n]:h.NX[n+1]] {
			h.Nets[h.VX[p]+fill[p]] = int32(n)
			fill[p]++
		}
	}
}

// PHG partitions the hypergraph into nparts by multilevel recursive
// bisection minimizing the connectivity-1 cut: inner-product style
// coarsening (vertices matched with the neighbor sharing the most
// nets), greedy initial growth, and FM refinement with net-based gains.
// It is the stand-in for Zoltan's parallel hypergraph partitioner used
// as test T0 in the paper. Like Zoltan's, the recursion runs in
// parallel: the two halves of a bisection are partitioned concurrently
// while a slot in phgSlots is free. Each half writes its own disjoint
// entries of the result, so the assignment does not depend on
// scheduling or GOMAXPROCS.
func PHG(h *Hypergraph, nparts int) []int32 {
	if nparts < 1 {
		panic(fmt.Sprintf("zpart: nparts = %d", nparts))
	}
	out := make([]int32, h.NV())
	ids := make([]int32, h.NV())
	for i := range ids {
		ids[i] = int32(i)
	}
	phgRecurse(h, ids, 0, nparts, out)
	return out
}

// phgSlots bounds the goroutines PHG's recursion runs beside its callers.
var phgSlots = make(chan struct{}, runtime.GOMAXPROCS(0))

func phgRecurse(h *Hypergraph, globalIDs []int32, base, k int, out []int32) {
	if k == 1 {
		for _, gid := range globalIDs {
			out[gid] = int32(base)
		}
		return
	}
	kl := k / 2
	side := hBisectMultilevel(h, float64(kl)/float64(k))
	lh, lids := h.sub(side, 0, globalIDs)
	rh, rids := h.sub(side, 1, globalIDs)
	select {
	case phgSlots <- struct{}{}:
		done := make(chan struct{})
		go func() {
			defer func() { <-phgSlots; close(done) }()
			phgRecurse(rh, rids, base+kl, k-kl, out)
		}()
		phgRecurse(lh, lids, base, kl, out)
		<-done
	default:
		phgRecurse(lh, lids, base, kl, out)
		phgRecurse(rh, rids, base+kl, k-kl, out)
	}
}

func hBisectMultilevel(h *Hypergraph, leftFrac float64) []uint8 {
	if h.NV() <= coarsenTarget {
		p := hGreedyGrow(h, leftFrac)
		hFMRefine(h, p, leftFrac, 8)
		return p
	}
	ch, cmap := h.coarsen()
	if ch.NV() >= h.NV()*9/10 {
		p := hGreedyGrow(h, leftFrac)
		hFMRefine(h, p, leftFrac, 8)
		return p
	}
	cp := hBisectMultilevel(ch, leftFrac)
	p := make([]uint8, h.NV())
	for v := range p {
		p[v] = cp[cmap[v]]
	}
	hFMRefine(h, p, leftFrac, 4)
	return p
}

// coarsen matches each vertex with the unmatched vertex it shares the
// most net weight with (inner-product matching; ties go to the lowest
// vertex id, so the choice does not depend on visiting order).
func (h *Hypergraph) coarsen() (*Hypergraph, []int32) {
	nv := h.NV()
	match := make([]int32, nv)
	for i := range match {
		match[i] = -1
	}
	score := make([]float64, nv)
	// stamp[u] == v+1 marks u as already in touched for vertex v.
	stamp := make([]int32, nv)
	var touched []int32
	for v := 0; v < nv; v++ {
		if match[v] >= 0 {
			continue
		}
		touched = touched[:0]
		for j := h.VX[v]; j < h.VX[v+1]; j++ {
			n := h.Nets[j]
			sz := float64(h.NX[n+1] - h.NX[n])
			for pj := h.NX[n]; pj < h.NX[n+1]; pj++ {
				u := h.Pins[pj]
				if int(u) != v && match[u] < 0 {
					if stamp[u] != int32(v+1) {
						stamp[u] = int32(v + 1)
						score[u] = 0
						touched = append(touched, u)
					}
					score[u] += h.NWt[n] / (sz - 1)
				}
			}
		}
		best := int32(-1)
		bestS := 0.0
		for _, u := range touched {
			if s := score[u]; s > bestS || (s == bestS && best >= 0 && u < best) {
				bestS = s
				best = u
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = int32(v)
		} else {
			match[v] = int32(v)
		}
	}
	cmap := make([]int32, nv)
	nc := int32(0)
	for v := 0; v < nv; v++ {
		if int(match[v]) >= v {
			cmap[v] = nc
			if int(match[v]) != v {
				cmap[match[v]] = nc
			}
			nc++
		}
	}
	ch := &Hypergraph{VWt: make([]float64, nc), NX: []int32{0}}
	for v := 0; v < nv; v++ {
		ch.VWt[cmap[v]] += h.VWt[v]
	}
	// Remap nets; drop singletons; merge identical pin sets into the
	// first occurrence. first maps a pin-set hash to its latest coarse
	// net + 1 (0: none), next chains the earlier ones with that hash.
	first := make(map[uint64]int32, h.NN())
	var next []int32
	stamp = stamp[:nc]
	clear(stamp)
	for n := 0; n < h.NN(); n++ {
		start := int32(len(ch.Pins))
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			if c := cmap[h.Pins[j]]; stamp[c] != int32(n+1) {
				stamp[c] = int32(n + 1)
				ch.Pins = append(ch.Pins, c)
			}
		}
		pins := ch.Pins[start:]
		if len(pins) < 2 {
			ch.Pins = ch.Pins[:start]
			continue
		}
		slices.Sort(pins)
		key := uint64(14695981039346656037) // FNV-1a
		for _, p := range pins {
			key = (key ^ uint64(uint32(p))) * 1099511628211
		}
		c := first[key]
		for c > 0 && !slices.Equal(ch.Pins[ch.NX[c-1]:ch.NX[c]], pins) {
			c = next[c-1]
		}
		if c > 0 {
			ch.NWt[c-1] += h.NWt[n]
			ch.Pins = ch.Pins[:start]
			continue
		}
		next = append(next, first[key])
		first[key] = int32(len(ch.NWt)) + 1
		ch.NX = append(ch.NX, int32(len(ch.Pins)))
		ch.NWt = append(ch.NWt, h.NWt[n])
	}
	ch.buildNets()
	return ch, cmap
}

// sub extracts the sub-hypergraph induced by the vertices on the given
// side, keeping the nets with at least two pins there. It returns the
// sub-hypergraph and, per sub-vertex, its entry of ids.
func (h *Hypergraph) sub(part []uint8, side uint8, ids []int32) (*Hypergraph, []int32) {
	var subIDs []int32
	local := make([]int32, h.NV())
	for v := range local {
		local[v] = -1
		if part[v] == side {
			local[v] = int32(len(subIDs))
			subIDs = append(subIDs, ids[v])
		}
	}
	sh := &Hypergraph{VWt: make([]float64, len(subIDs)), NX: []int32{0}}
	for v, lv := range local {
		if lv >= 0 {
			sh.VWt[lv] = h.VWt[v]
		}
	}
	for n := 0; n < h.NN(); n++ {
		start := len(sh.Pins)
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			if lp := local[h.Pins[j]]; lp >= 0 {
				sh.Pins = append(sh.Pins, lp)
			}
		}
		if len(sh.Pins)-start < 2 {
			sh.Pins = sh.Pins[:start]
			continue
		}
		sh.NX = append(sh.NX, int32(len(sh.Pins)))
		sh.NWt = append(sh.NWt, h.NWt[n])
	}
	sh.buildNets()
	return sh, subIDs
}

// hGreedyGrow grows side 0 breadth-first from vertex 0 through shared
// nets until it holds ~leftFrac of the weight.
func hGreedyGrow(h *Hypergraph, leftFrac float64) []uint8 {
	return growBFS(h.VWt, 0, leftFrac, func(v int32, visit func(u int32)) {
		for _, n := range h.Nets[h.VX[v]:h.VX[v+1]] {
			for _, u := range h.Pins[h.NX[n]:h.NX[n+1]] {
				visit(u)
			}
		}
	})
}

// hFMRefine improves a hypergraph bisection with FM passes using the
// standard net-based gain: moving v helps when it empties its side of a
// net and hurts when it breaks a pure net.
func hFMRefine(h *Hypergraph, p []uint8, leftFrac float64, passes int) {
	cnt := make([][2]int32, h.NN()) // pins per side of each net
	nets := func(v int32) []int32 { return h.Nets[h.VX[v]:h.VX[v+1]] }
	fmPasses(h.VWt, p, leftFrac, passes, fmHooks{
		gain: func(v int32) float64 {
			g := 0.0
			from := p[v]
			to := from ^ 1
			for _, n := range nets(v) {
				if cnt[n][from] == 1 && cnt[n][to] > 0 {
					g += h.NWt[n]
				}
				if cnt[n][to] == 0 {
					g -= h.NWt[n]
				}
			}
			return g
		},
		boundary: func(v int32) bool {
			for _, n := range nets(v) {
				if cnt[n][0] > 0 && cnt[n][1] > 0 {
					return true
				}
			}
			return false
		},
		beginPass: func() {
			clear(cnt)
			for n := range cnt {
				for _, v := range h.Pins[h.NX[n]:h.NX[n+1]] {
					cnt[n][p[v]]++
				}
			}
		},
		move: func(v int32, from uint8, touch func(u int32)) {
			for _, n := range nets(v) {
				cnt[n][from]--
				cnt[n][from^1]++
				for _, u := range h.Pins[h.NX[n]:h.NX[n+1]] {
					touch(u)
				}
			}
		},
	})
}
