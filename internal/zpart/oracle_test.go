package zpart

import (
	"container/heap"
	"sort"
)

// This file freezes the reference implementation of PHG and MLGraph the
// fast paths are checked against: container/heap gain queues boxed
// through any, map-scored coarsening, [][]int32 pin lists and serial
// recursion. The differential tests require identical assignments, so
// any change to the fast paths that moves a single output bit fails.
// Graph coarsening and subgraph extraction (graph.go) are shared.

func oraclePHG(h *Hypergraph, nparts int) []int32 {
	out := make([]int32, h.NV())
	ids := make([]int32, h.NV())
	for i := range ids {
		ids[i] = int32(i)
	}
	oPhgRecurse(h, ids, 0, nparts, out)
	return out
}

func oPhgRecurse(h *Hypergraph, globalIDs []int32, base, k int, out []int32) {
	if k == 1 {
		for _, gid := range globalIDs {
			out[gid] = int32(base)
		}
		return
	}
	kl := k / 2
	side := oHBisectMultilevel(h, float64(kl)/float64(k))
	for s := uint8(0); s < 2; s++ {
		sh, ids := oHSub(h, side, s)
		subIDs := make([]int32, len(ids))
		for i, li := range ids {
			subIDs[i] = globalIDs[li]
		}
		if s == 0 {
			oPhgRecurse(sh, subIDs, base, kl, out)
		} else {
			oPhgRecurse(sh, subIDs, base+kl, k-kl, out)
		}
	}
}

func oHBisectMultilevel(h *Hypergraph, leftFrac float64) []uint8 {
	if h.NV() <= coarsenTarget {
		p := oHGreedyGrow(h, leftFrac)
		oHFMRefine(h, p, leftFrac, 8)
		return p
	}
	ch, cmap := oHCoarsen(h)
	if ch.NV() >= h.NV()*9/10 {
		p := oHGreedyGrow(h, leftFrac)
		oHFMRefine(h, p, leftFrac, 8)
		return p
	}
	cp := oHBisectMultilevel(ch, leftFrac)
	p := make([]uint8, h.NV())
	for v := range p {
		p[v] = cp[cmap[v]]
	}
	oHFMRefine(h, p, leftFrac, 4)
	return p
}

func oBuildFromPins(h *Hypergraph, pinLists [][]int32) {
	nn := len(pinLists)
	h.NWt = make([]float64, nn)
	h.NX = make([]int32, nn+1)
	for n, pins := range pinLists {
		h.NWt[n] = 1
		h.NX[n+1] = h.NX[n] + int32(len(pins))
	}
	h.Pins = make([]int32, h.NX[nn])
	vdeg := make([]int32, h.NV()+1)
	for n, pins := range pinLists {
		copy(h.Pins[h.NX[n]:], pins)
		for _, p := range pins {
			vdeg[p+1]++
		}
	}
	for i := 0; i < h.NV(); i++ {
		vdeg[i+1] += vdeg[i]
	}
	h.VX = vdeg
	h.Nets = make([]int32, h.VX[h.NV()])
	fill := make([]int32, h.NV())
	for n, pins := range pinLists {
		for _, p := range pins {
			h.Nets[h.VX[p]+fill[p]] = int32(n)
			fill[p]++
		}
	}
}

func oHCoarsen(h *Hypergraph) (*Hypergraph, []int32) {
	nv := h.NV()
	match := make([]int32, nv)
	for i := range match {
		match[i] = -1
	}
	score := map[int32]float64{}
	for v := 0; v < nv; v++ {
		if match[v] >= 0 {
			continue
		}
		for k := range score {
			delete(score, k)
		}
		for j := h.VX[v]; j < h.VX[v+1]; j++ {
			n := h.Nets[j]
			sz := float64(h.NX[n+1] - h.NX[n])
			for pj := h.NX[n]; pj < h.NX[n+1]; pj++ {
				u := h.Pins[pj]
				if int(u) != v && match[u] < 0 {
					score[u] += h.NWt[n] / (sz - 1)
				}
			}
		}
		best := int32(-1)
		bestS := 0.0
		for u, s := range score {
			if s > bestS || (s == bestS && best >= 0 && u < best) {
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
	ch := &Hypergraph{VWt: make([]float64, nc)}
	for v := 0; v < nv; v++ {
		ch.VWt[cmap[v]] += h.VWt[v]
	}
	var pinLists [][]int32
	netWts := []float64{}
	seenNets := map[string]int{}
	var keyBuf []byte
	for n := 0; n < h.NN(); n++ {
		set := map[int32]bool{}
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			set[cmap[h.Pins[j]]] = true
		}
		if len(set) < 2 {
			continue
		}
		pins := make([]int32, 0, len(set))
		for p := range set {
			pins = append(pins, p)
		}
		sort.Slice(pins, func(a, b int) bool { return pins[a] < pins[b] })
		keyBuf = keyBuf[:0]
		for _, p := range pins {
			keyBuf = append(keyBuf, byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
		}
		if idx, ok := seenNets[string(keyBuf)]; ok {
			netWts[idx] += h.NWt[n]
			continue
		}
		seenNets[string(keyBuf)] = len(pinLists)
		pinLists = append(pinLists, pins)
		netWts = append(netWts, h.NWt[n])
	}
	oBuildFromPins(ch, pinLists)
	copy(ch.NWt, netWts)
	return ch, cmap
}

func oHSub(h *Hypergraph, part []uint8, side uint8) (*Hypergraph, []int32) {
	var ids []int32
	local := make([]int32, h.NV())
	for i := range local {
		local[i] = -1
	}
	for v := 0; v < h.NV(); v++ {
		if part[v] == side {
			local[v] = int32(len(ids))
			ids = append(ids, int32(v))
		}
	}
	sh := &Hypergraph{VWt: make([]float64, len(ids))}
	for li, v := range ids {
		sh.VWt[li] = h.VWt[v]
	}
	var pinLists [][]int32
	var netWts []float64
	for n := 0; n < h.NN(); n++ {
		var pins []int32
		for j := h.NX[n]; j < h.NX[n+1]; j++ {
			if lp := local[h.Pins[j]]; lp >= 0 {
				pins = append(pins, lp)
			}
		}
		if len(pins) >= 2 {
			pinLists = append(pinLists, pins)
			netWts = append(netWts, h.NWt[n])
		}
	}
	oBuildFromPins(sh, pinLists)
	copy(sh.NWt, netWts)
	return sh, ids
}

func oHGreedyGrow(h *Hypergraph, leftFrac float64) []uint8 {
	nv := h.NV()
	p := make([]uint8, nv)
	for i := range p {
		p[i] = 1
	}
	if nv == 0 {
		return p
	}
	total := 0.0
	for _, w := range h.VWt {
		total += w
	}
	target := total * leftFrac
	acc := 0.0
	visited := make([]bool, nv)
	queue := []int32{0}
	visited[0] = true
	for len(queue) > 0 && acc < target {
		v := queue[0]
		queue = queue[1:]
		p[v] = 0
		acc += h.VWt[v]
		for j := h.VX[v]; j < h.VX[v+1]; j++ {
			n := h.Nets[j]
			for pj := h.NX[n]; pj < h.NX[n+1]; pj++ {
				u := h.Pins[pj]
				if !visited[u] {
					visited[u] = true
					queue = append(queue, u)
				}
			}
		}
		if len(queue) == 0 && acc < target {
			for u := 0; u < nv; u++ {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, int32(u))
					break
				}
			}
		}
	}
	return p
}

func oHFMRefine(h *Hypergraph, p []uint8, leftFrac float64, passes int) {
	nv := h.NV()
	total := 0.0
	maxVW := 0.0
	for _, w := range h.VWt {
		total += w
		if w > maxVW {
			maxVW = w
		}
	}
	target := total * leftFrac
	tol := total * 0.02
	if maxVW > tol {
		tol = maxVW
	}
	cnt := make([][2]int32, h.NN())
	recount := func() {
		for n := range cnt {
			cnt[n] = [2]int32{}
		}
		for n := 0; n < h.NN(); n++ {
			for j := h.NX[n]; j < h.NX[n+1]; j++ {
				cnt[n][p[h.Pins[j]]]++
			}
		}
	}
	gain := func(v int32) float64 {
		g := 0.0
		from := p[v]
		to := from ^ 1
		for j := h.VX[v]; j < h.VX[v+1]; j++ {
			n := h.Nets[j]
			if cnt[n][from] == 1 && cnt[n][to] > 0 {
				g += h.NWt[n]
			}
			if cnt[n][to] == 0 {
				g -= h.NWt[n]
			}
		}
		return g
	}
	leftW := 0.0
	for v := 0; v < nv; v++ {
		if p[v] == 0 {
			leftW += h.VWt[v]
		}
	}
	ver := make([]int64, nv)
	for pass := 0; pass < passes; pass++ {
		recount()
		var hp oGainHeap
		moved := make([]bool, nv)
		for v := int32(0); v < int32(nv); v++ {
			onBoundary := false
			for j := h.VX[v]; j < h.VX[v+1]; j++ {
				n := h.Nets[j]
				if cnt[n][0] > 0 && cnt[n][1] > 0 {
					onBoundary = true
					break
				}
			}
			if onBoundary {
				hp.PushItem(gainItem{v: v, gain: gain(v), ver: ver[v]})
			}
		}
		var seq []int32
		cum, best := 0.0, 0.0
		bestLen := 0
		for hp.Len() > 0 {
			it := hp.PopItem()
			if moved[it.v] || it.ver != ver[it.v] {
				continue
			}
			w := h.VWt[it.v]
			newLeft := leftW
			if p[it.v] == 0 {
				newLeft -= w
			} else {
				newLeft += w
			}
			if newLeft < target-tol || newLeft > target+tol {
				continue
			}
			gv := gain(it.v)
			if gv < it.gain-1e-12 {
				ver[it.v]++
				hp.PushItem(gainItem{v: it.v, gain: gv, ver: ver[it.v]})
				continue
			}
			from := p[it.v]
			p[it.v] ^= 1
			leftW = newLeft
			moved[it.v] = true
			for j := h.VX[it.v]; j < h.VX[it.v+1]; j++ {
				n := h.Nets[j]
				cnt[n][from]--
				cnt[n][from^1]++
				for pj := h.NX[n]; pj < h.NX[n+1]; pj++ {
					u := h.Pins[pj]
					if !moved[u] {
						ver[u]++
						hp.PushItem(gainItem{v: u, gain: gain(u), ver: ver[u]})
					}
				}
			}
			seq = append(seq, it.v)
			cum += gv
			if cum > best {
				best = cum
				bestLen = len(seq)
			}
			if len(seq)-bestLen > 200 {
				break
			}
		}
		for i := len(seq) - 1; i >= bestLen; i-- {
			v := seq[i]
			if p[v] == 0 {
				leftW -= h.VWt[v]
			} else {
				leftW += h.VWt[v]
			}
			p[v] ^= 1
		}
		if best <= 0 {
			break
		}
	}
}

func oracleMLGraph(g *Graph, nparts int) []int32 {
	out := make([]int32, g.N())
	idx := make([]int32, g.N())
	for i := range idx {
		idx[i] = int32(i)
	}
	oMlRecurse(g, idx, 0, nparts, out)
	return out
}

func oMlRecurse(g *Graph, globalIDs []int32, base, k int, out []int32) {
	if k == 1 {
		for _, gid := range globalIDs {
			out[gid] = int32(base)
		}
		return
	}
	kl := k / 2
	side := oBisectMultilevel(g, float64(kl)/float64(k))
	for s := uint8(0); s < 2; s++ {
		sg, ids := g.subgraph(side, s)
		sub := make([]int32, len(ids))
		for i, li := range ids {
			sub[i] = globalIDs[li]
		}
		if s == 0 {
			oMlRecurse(sg, sub, base, kl, out)
		} else {
			oMlRecurse(sg, sub, base+kl, k-kl, out)
		}
	}
}

func oBisectMultilevel(g *Graph, leftFrac float64) []uint8 {
	if g.N() <= coarsenTarget {
		p := oGreedyGrow(g, leftFrac)
		oFmRefine(g, p, leftFrac, 8)
		return p
	}
	cg, cmap := g.coarsen()
	if cg.N() >= g.N()*9/10 {
		p := oGreedyGrow(g, leftFrac)
		oFmRefine(g, p, leftFrac, 8)
		return p
	}
	cp := oBisectMultilevel(cg, leftFrac)
	p := make([]uint8, g.N())
	for v := range p {
		p[v] = cp[cmap[v]]
	}
	oFmRefine(g, p, leftFrac, 4)
	return p
}

func oGreedyGrow(g *Graph, leftFrac float64) []uint8 {
	n := g.N()
	p := make([]uint8, n)
	for i := range p {
		p[i] = 1
	}
	if n == 0 {
		return p
	}
	seed := oPseudoPeripheral(g)
	target := g.TotalVWt() * leftFrac
	acc := 0.0
	visited := make([]bool, n)
	queue := []int32{seed}
	visited[seed] = true
	for len(queue) > 0 && acc < target {
		v := queue[0]
		queue = queue[1:]
		p[v] = 0
		acc += g.VWt[v]
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			u := g.Adj[j]
			if !visited[u] {
				visited[u] = true
				queue = append(queue, u)
			}
		}
		if len(queue) == 0 && acc < target {
			for u := 0; u < n; u++ {
				if !visited[u] {
					visited[u] = true
					queue = append(queue, int32(u))
					break
				}
			}
		}
	}
	return p
}

func oPseudoPeripheral(g *Graph) int32 {
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

// oGainHeap is the reference container/heap gain queue.
type oGainHeap []gainItem

func (h oGainHeap) Len() int             { return len(h) }
func (h oGainHeap) Less(i, j int) bool   { return h[i].gain > h[j].gain }
func (h oGainHeap) Swap(i, j int)        { h[i], h[j] = h[j], h[i] }
func (h *oGainHeap) Push(x any)          { *h = append(*h, x.(gainItem)) }
func (h *oGainHeap) Pop() any            { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }
func (h *oGainHeap) PopItem() gainItem   { return heap.Pop(h).(gainItem) }
func (h *oGainHeap) PushItem(i gainItem) { heap.Push(h, i) }

func oFmRefine(g *Graph, p []uint8, leftFrac float64, passes int) {
	n := g.N()
	total := g.TotalVWt()
	target := total * leftFrac
	maxVW := 0.0
	for _, w := range g.VWt {
		if w > maxVW {
			maxVW = w
		}
	}
	tol := total * 0.02
	if maxVW > tol {
		tol = maxVW
	}
	gain := func(v int32) float64 {
		ext, inn := 0.0, 0.0
		for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
			if p[g.Adj[j]] == p[v] {
				inn += g.EWt[j]
			} else {
				ext += g.EWt[j]
			}
		}
		return ext - inn
	}
	leftW := 0.0
	for v := 0; v < n; v++ {
		if p[v] == 0 {
			leftW += g.VWt[v]
		}
	}
	ver := make([]int64, n)
	for pass := 0; pass < passes; pass++ {
		var h oGainHeap
		moved := make([]bool, n)
		for v := int32(0); v < int32(n); v++ {
			boundary := false
			for j := g.XAdj[v]; j < g.XAdj[v+1]; j++ {
				if p[g.Adj[j]] != p[v] {
					boundary = true
					break
				}
			}
			if boundary {
				h.PushItem(gainItem{v: v, gain: gain(v), ver: ver[v]})
			}
		}
		var seq []int32
		cum, best := 0.0, 0.0
		bestLen := 0
		for h.Len() > 0 {
			it := h.PopItem()
			if moved[it.v] || it.ver != ver[it.v] {
				continue
			}
			w := g.VWt[it.v]
			newLeft := leftW
			if p[it.v] == 0 {
				newLeft -= w
			} else {
				newLeft += w
			}
			if newLeft < target-tol || newLeft > target+tol {
				continue
			}
			gv := gain(it.v)
			if gv < it.gain-1e-12 {
				ver[it.v]++
				h.PushItem(gainItem{v: it.v, gain: gv, ver: ver[it.v]})
				continue
			}
			p[it.v] ^= 1
			leftW = newLeft
			moved[it.v] = true
			seq = append(seq, it.v)
			cum += gv
			if cum > best {
				best = cum
				bestLen = len(seq)
			}
			for j := g.XAdj[it.v]; j < g.XAdj[it.v+1]; j++ {
				u := g.Adj[j]
				if !moved[u] {
					ver[u]++
					h.PushItem(gainItem{v: u, gain: gain(u), ver: ver[u]})
				}
			}
			if len(seq)-bestLen > 200 {
				break
			}
		}
		for i := len(seq) - 1; i >= bestLen; i-- {
			v := seq[i]
			if p[v] == 0 {
				leftW -= g.VWt[v]
			} else {
				leftW += g.VWt[v]
			}
			p[v] ^= 1
		}
		if best <= 0 {
			break
		}
	}
}
