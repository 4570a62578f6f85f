package zpart

import (
	"fmt"
	"slices"
)

// MLGraph partitions the graph into nparts by multilevel recursive
// bisection: heavy-edge-matching coarsening, greedy-growing initial
// bisection, and Fiduccia–Mattheyses boundary refinement during
// uncoarsening. This is the role graph partitioners (ParMETIS/Zoltan
// graph) play in the paper's workflow.
func MLGraph(g *Graph, nparts int) []int32 {
	if nparts < 1 {
		panic(fmt.Sprintf("zpart: nparts = %d", nparts))
	}
	out := make([]int32, g.N())
	idx := make([]int32, g.N())
	for i := range idx {
		idx[i] = int32(i)
	}
	mlRecurse(g, idx, 0, nparts, out)
	return out
}

func mlRecurse(g *Graph, globalIDs []int32, base, k int, out []int32) {
	if k == 1 {
		for _, gid := range globalIDs {
			out[gid] = int32(base)
		}
		return
	}
	kl := k / 2
	side := bisectMultilevel(g, float64(kl)/float64(k))
	for s := uint8(0); s < 2; s++ {
		sg, ids := g.subgraph(side, s)
		sub := make([]int32, len(ids))
		for i, li := range ids {
			sub[i] = globalIDs[li]
		}
		if s == 0 {
			mlRecurse(sg, sub, base, kl, out)
		} else {
			mlRecurse(sg, sub, base+kl, k-kl, out)
		}
	}
}

const coarsenTarget = 64

// bisectMultilevel returns a 0/1 side assignment with ~leftFrac of the
// vertex weight on side 0.
func bisectMultilevel(g *Graph, leftFrac float64) []uint8 {
	if g.N() <= coarsenTarget {
		p := greedyGrow(g, leftFrac)
		fmRefine(g, p, leftFrac, 8)
		return p
	}
	cg, cmap := g.coarsen()
	if cg.N() >= g.N()*9/10 {
		// Matching stalled (e.g. star graphs); bisect directly.
		p := greedyGrow(g, leftFrac)
		fmRefine(g, p, leftFrac, 8)
		return p
	}
	cp := bisectMultilevel(cg, leftFrac)
	p := make([]uint8, g.N())
	for v := range p {
		p[v] = cp[cmap[v]]
	}
	fmRefine(g, p, leftFrac, 4)
	return p
}

// greedyGrow seeds side 0 from a pseudo-peripheral vertex and grows by
// BFS until it holds ~leftFrac of the weight.
func greedyGrow(g *Graph, leftFrac float64) []uint8 {
	seed := int32(0)
	if g.N() > 0 {
		seed = pseudoPeripheral(g)
	}
	return growBFS(g.VWt, seed, leftFrac, func(v int32, visit func(u int32)) {
		for _, u := range g.Adj[g.XAdj[v]:g.XAdj[v+1]] {
			visit(u)
		}
	})
}

// growBFS puts every vertex on side 1, then moves vertices to side 0
// breadth-first from seed, visiting each vertex's neighbors in the
// order neighbors lists them, until side 0 holds ~leftFrac of the
// weight. A disconnected search restarts from the first unvisited
// vertex.
func growBFS(vwt []float64, seed int32, leftFrac float64, neighbors func(v int32, visit func(u int32))) []uint8 {
	n := len(vwt)
	p := make([]uint8, n)
	for i := range p {
		p[i] = 1
	}
	if n == 0 {
		return p
	}
	total := 0.0
	for _, w := range vwt {
		total += w
	}
	target := total * leftFrac
	acc := 0.0
	visited := make([]bool, n)
	queue := make([]int32, 1, n)
	queue[0] = seed
	visited[seed] = true
	visit := func(u int32) {
		if !visited[u] {
			visited[u] = true
			queue = append(queue, u)
		}
	}
	for head := 0; head < len(queue) && acc < target; head++ {
		v := queue[head]
		p[v] = 0
		acc += vwt[v]
		neighbors(v, visit)
		if head+1 == len(queue) && acc < target {
			if u := slices.Index(visited, false); u >= 0 {
				visit(int32(u))
			}
		}
	}
	return p
}

func pseudoPeripheral(g *Graph) int32 {
	seed := int32(0)
	for iter := 0; iter < 2; iter++ {
		dist := make([]int32, g.N())
		for i := range dist {
			dist[i] = -1
		}
		dist[seed] = 0
		queue := []int32{seed}
		last := seed
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			last = v
			for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
				u := g.Adj[j]
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, u)
				}
			}
		}
		seed = last
	}
	return seed
}

// gainItem is a queued FM move: vertex v with its gain when queued and
// the vertex's version then (a bumped version invalidates the entry).
type gainItem struct {
	v    int32
	gain float64
	ver  int64
}

// gainHeap is a max-heap of gainItems with lazy invalidation. PushItem
// and PopItem sift in place with exactly container/heap's up/down
// comparisons, so the pop order, ties included, is the one
// heap.Push/heap.Pop would give, without boxing an item.
type gainHeap []gainItem

func (h gainHeap) Len() int { return len(h) }

// PushItem adds it to the heap.
func (h *gainHeap) PushItem(it gainItem) {
	*h = append(*h, it)
	q := *h
	j := len(q) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.gain > q[i].gain) {
			break
		}
		q[j] = q[i]
		j = i
	}
	q[j] = it
}

// PopItem removes and returns the item with the largest gain.
func (h *gainHeap) PopItem() gainItem {
	q := *h
	n := len(q) - 1
	top, it := q[0], q[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q[j2].gain > q[j].gain {
			j = j2
		}
		if !(q[j].gain > it.gain) {
			break
		}
		q[i] = q[j]
		i = j
	}
	q[i] = it
	*h = q[:n]
	return top
}

// fmRefine improves a graph bisection with FM passes using the edge-cut
// gain: external minus internal edge weight.
func fmRefine(g *Graph, p []uint8, leftFrac float64, passes int) {
	adj := func(v int32) []int32 { return g.Adj[g.XAdj[v]:g.XAdj[v+1]] }
	fmPasses(g.VWt, p, leftFrac, passes, fmHooks{
		gain: func(v int32) float64 {
			ext, inn := 0.0, 0.0
			for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
				if p[g.Adj[j]] == p[v] {
					inn += g.EWt[j]
				} else {
					ext += g.EWt[j]
				}
			}
			return ext - inn
		},
		boundary: func(v int32) bool {
			for _, u := range adj(v) {
				if p[u] != p[v] {
					return true
				}
			}
			return false
		},
		move: func(v int32, _ uint8, touch func(u int32)) {
			for _, u := range adj(v) {
				touch(u)
			}
		},
	})
}

// fmHooks adapt fmPasses to a graph or hypergraph. gain is the cut
// reduction of moving v to the other side; boundary selects the
// vertices a pass starts from; beginPass (optional) refreshes derived
// state; move applies the side effects of v having just left side
// from, calling touch on every vertex whose gain that may change.
type fmHooks struct {
	gain      func(v int32) float64
	boundary  func(v int32) bool
	beginPass func()
	move      func(v int32, from uint8, touch func(u int32))
}

// fmPasses improves a bisection in place with FM passes: vertices move
// to the other side in descending gain order (each at most once per
// pass) subject to a weight balance constraint; the best prefix of the
// move sequence is kept.
func fmPasses(vwt []float64, p []uint8, leftFrac float64, passes int, f fmHooks) {
	n := len(vwt)
	// Allowed deviation: 2% of total weight or the largest vertex,
	// whichever is bigger (otherwise single heavy vertices jam).
	total, maxVW := 0.0, 0.0
	for _, w := range vwt {
		total += w
		maxVW = max(maxVW, w)
	}
	target := total * leftFrac
	tol := max(total*0.02, maxVW)
	leftW := 0.0
	for v := 0; v < n; v++ {
		if p[v] == 0 {
			leftW += vwt[v]
		}
	}
	ver := make([]int64, n)
	moved := make([]bool, n)
	var h gainHeap
	var seq []int32
	touch := func(u int32) {
		if !moved[u] {
			ver[u]++
			h.PushItem(gainItem{v: u, gain: f.gain(u), ver: ver[u]})
		}
	}
	for pass := 0; pass < passes; pass++ {
		if f.beginPass != nil {
			f.beginPass()
		}
		h, seq = h[:0], seq[:0]
		clear(moved)
		for v := int32(0); v < int32(n); v++ {
			if f.boundary(v) {
				h.PushItem(gainItem{v: v, gain: f.gain(v), ver: ver[v]})
			}
		}
		cum, best := 0.0, 0.0
		bestLen := 0
		for h.Len() > 0 {
			it := h.PopItem()
			if moved[it.v] || it.ver != ver[it.v] {
				continue
			}
			// Balance check.
			newLeft := leftW
			if p[it.v] == 0 {
				newLeft -= vwt[it.v]
			} else {
				newLeft += vwt[it.v]
			}
			if newLeft < target-tol || newLeft > target+tol {
				continue
			}
			// Recompute gain (may be stale).
			gv := f.gain(it.v)
			if gv < it.gain-1e-12 {
				ver[it.v]++
				h.PushItem(gainItem{v: it.v, gain: gv, ver: ver[it.v]})
				continue
			}
			// Apply the move.
			from := p[it.v]
			p[it.v] ^= 1
			leftW = newLeft
			moved[it.v] = true
			f.move(it.v, from, touch)
			seq = append(seq, it.v)
			cum += gv
			if cum > best {
				best = cum
				bestLen = len(seq)
			}
			if len(seq)-bestLen > 200 {
				break // long negative tail; stop early
			}
		}
		// Roll back past the best prefix.
		for i := len(seq) - 1; i >= bestLen; i-- {
			v := seq[i]
			if p[v] == 0 {
				leftW -= vwt[v]
			} else {
				leftW += vwt[v]
			}
			p[v] ^= 1
		}
		if best <= 0 {
			break
		}
	}
}

// PartSizes sums vertex weights per part.
func PartSizes(g *Graph, part []int32, nparts int) []float64 {
	sizes := make([]float64, nparts)
	for v := 0; v < g.N(); v++ {
		sizes[part[v]] += g.VWt[v]
	}
	return sizes
}
