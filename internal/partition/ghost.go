package partition

import (
	"fmt"
	"sort"
	"time"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Ghosting localizes read-only copies of off-part elements adjacent to
// the part boundary, so that computations needing neighbor data (e.g.
// finite-volume gradients) avoid per-iteration communication. A ghost
// is a duplicated, read-only, off-part entity copy; ghosts do not enter
// residence sets or part boundaries, and are excluded from load
// statistics.

// Ghost adds `layers` layers of ghost elements to every part
// (collective). Bridge entities of dimension bridgeDim define
// adjacency: every element within `layers` bridge-adjacency steps of an
// entity shared with part q is copied to q. Newly created entities are
// flagged as ghosts; entities the receiver already holds are untouched.
// Element ghosts record their home part for tag synchronization.
func Ghost(dm *DMesh, bridgeDim, layers int) {
	t := dm.Ctx.Counters().Start("partition.ghost")
	defer t.Stop()
	dm.Ctx.Trace().Begin("partition.ghost")
	defer dm.Ctx.Trace().End("partition.ghost")
	if bridgeDim < 0 || bridgeDim >= dm.Dim {
		panic(fmt.Sprintf("partition: bad ghost bridge dimension %d", bridgeDim))
	}
	if layers < 1 {
		panic(fmt.Sprintf("partition: bad ghost layer count %d", layers))
	}
	d := dm.Dim
	ph := dm.beginPhase()
	for _, part := range dm.Parts {
		m := part.M
		// Seed: for each neighbor part q, the elements adjacent to
		// entities shared with q.
		seeds := map[int32]map[mesh.Ent]bool{}
		var adj []mesh.Ent
		for e := range m.PartBoundary(bridgeDim) {
			adj = m.AdjacentTo(e, d, adj[:0])
			for _, q := range m.RemoteParts(e) {
				set := seeds[q]
				if set == nil {
					set = map[mesh.Ent]bool{}
					seeds[q] = set
				}
				for _, el := range adj {
					if !m.IsGhost(el) {
						set[el] = true
					}
				}
			}
		}
		qs := make([]int32, 0, len(seeds))
		for q := range seeds {
			qs = append(qs, q)
		}
		sort.Slice(qs, func(a, b int) bool { return qs[a] < qs[b] })
		for _, q := range qs {
			set := seeds[q]
			// Expand by BFS over bridge adjacency for extra layers.
			frontier := set
			for l := 1; l < layers; l++ {
				next := map[mesh.Ent]bool{}
				for el := range frontier {
					for _, nb := range m.BridgeAdjacent(el, bridgeDim, d) {
						if !m.IsGhost(nb) && !set[nb] {
							set[nb] = true
							next[nb] = true
						}
					}
				}
				frontier = next
			}
			els := make([]mesh.Ent, 0, len(set))
			for el := range set {
				els = append(els, el)
			}
			sort.Slice(els, func(a, b int) bool { return els[a].Less(els[b]) })
			packGhosts(ph.to(m.Part(), q), part, els, d)
		}
	}
	for _, msg := range ph.exchange() {
		unpackGhosts(dm, msg)
	}

	// Back-links: each receiver tells the sender where its element
	// ghosts live, so owners can push tag data.
	ph = dm.beginPhase()
	for _, part := range dm.Parts {
		ghosts := make([]mesh.Ent, 0, len(part.ghostHome))
		for g := range part.ghostHome {
			ghosts = append(ghosts, g)
		}
		sort.Slice(ghosts, func(a, b int) bool { return ghosts[a].Less(ghosts[b]) })
		for _, g := range ghosts {
			home := part.ghostHome[g]
			b := ph.to(part.M.Part(), home.Part)
			b.Byte(byte(home.Ent.T))
			b.Int32(home.Ent.I)
			b.Byte(byte(g.T))
			b.Int32(g.I)
		}
	}
	for _, msg := range ph.exchange() {
		part := dm.LocalPart(msg.To)
		for !msg.Data.Empty() {
			mine := mesh.Ent{T: mesh.Type(msg.Data.Byte()), I: msg.Data.Int32()}
			ghost := mesh.Ent{T: mesh.Type(msg.Data.Byte()), I: msg.Data.Int32()}
			part.ghostsOf[mine] = append(part.ghostsOf[mine],
				mesh.RemoteCopyRef{Part: msg.From, Ent: ghost})
		}
	}
	for _, part := range dm.Parts {
		for e := range part.ghostsOf {
			sort.Slice(part.ghostsOf[e], func(a, b int) bool {
				return part.ghostsOf[e][a].Part < part.ghostsOf[e][b].Part
			})
		}
	}
	// ghostsOf/ghostHome changed without a mesh mutation on the sending
	// side, so the epoch vector alone cannot catch it: drop the plan.
	dm.ghostPlan = nil
}

// packGhosts encodes elements plus closures like migration but with
// owner info and the sender's element handle for back-linking.
func packGhosts(b *pcu.Buffer, part *Part, els []mesh.Ent, d int) {
	m := part.M
	movable := writeTagTable(b, m)
	closure := map[mesh.Ent]bool{}
	var adj []mesh.Ent
	for _, el := range els {
		for dd := 0; dd < d; dd++ {
			adj = m.AdjacentTo(el, dd, adj[:0])
			for _, e := range adj {
				closure[e] = true
			}
		}
	}
	var gids []int64 // down-adjacency gid scratch, bulk-packed per entity
	var down [8]mesh.Ent
	for dd := 0; dd <= d; dd++ {
		var level []mesh.Ent
		if dd == d {
			level = els
		} else {
			for e := range closure {
				if e.Dim() == dd {
					level = append(level, e)
				}
			}
			sort.Slice(level, func(a, b int) bool { return level[a].Less(level[b]) })
		}
		b.Int32(int32(len(level)))
		for _, e := range level {
			b.Byte(byte(e.T))
			b.Int64(part.Gid(e))
			c := m.Classification(e)
			b.Byte(byte(int8(c.Dim) + 1))
			b.Int32(c.Tag)
			b.Int32(m.Owner(e))
			if dd == 0 {
				p := m.Coord(e)
				b.Float64(p.X)
				b.Float64(p.Y)
				b.Float64(p.Z)
			} else {
				gids = gids[:0]
				for _, de := range m.DownTo(e, down[:0]) {
					gids = append(gids, part.Gid(de))
				}
				b.Int64s(gids)
			}
			writeEntityTags(b, m, movable, e)
			if dd == d {
				// Sender handle for the back link.
				b.Byte(byte(e.T))
				b.Int32(e.I)
			}
		}
	}
}

func unpackGhosts(dm *DMesh, msg partMsg) {
	part := dm.LocalPart(msg.To)
	m := part.M
	d := dm.Dim
	r := msg.Data
	table := readTagTable(r, m)
	var gidScratch []int64 // down-adjacency gid decode scratch
	for dd := 0; dd <= d; dd++ {
		n := int(r.Int32())
		for k := 0; k < n; k++ {
			t := mesh.Type(r.Byte())
			gid := r.Int64()
			cls := readClassif(r)
			owner := r.Int32()
			var e mesh.Ent
			created := false
			if dd == 0 {
				x, y, z := r.Float64(), r.Float64(), r.Float64()
				var ok bool
				e, ok = part.FindGid(0, gid)
				if !ok {
					e = m.CreateVertex(cls, vec.V{X: x, Y: y, Z: z})
					part.setGid(e, gid)
					created = true
				}
			} else {
				gidScratch = r.AppendInt64s(gidScratch[:0])
				down := make([]mesh.Ent, len(gidScratch))
				for j, dg := range gidScratch {
					de, ok := part.FindGid(dd-1, dg)
					if !ok {
						panic(fmt.Sprintf("partition: ghost closure gid %d missing", dg))
					}
					down[j] = de
				}
				var ok bool
				e, ok = part.FindGid(dd, gid)
				if !ok {
					e = m.CreateEntity(t, cls, down)
					part.setGid(e, gid)
					created = true
				}
			}
			applyEntityTags(r, m, table, e, created)
			if created {
				m.SetGhost(e, true)
				m.SetOwner(e, owner)
				part.nGhosts++
			}
			if dd == d {
				home := mesh.Ent{T: mesh.Type(r.Byte()), I: r.Int32()}
				if created {
					part.ghostHome[e] = mesh.RemoteCopyRef{Part: msg.From, Ent: home}
				}
			}
		}
	}
	r.Done()
}

// RemoveGhosts deletes every ghost entity from all local parts
// (collective only in that all ranks typically do it together; purely
// local otherwise).
func RemoveGhosts(dm *DMesh) {
	dm.Ctx.Trace().Begin("partition.unghost")
	defer dm.Ctx.Trace().End("partition.unghost")
	// Ghosts are owned by their home part; destroying the local copies
	// is how ghosting ends, so sanctioned for the sanitizer.
	defer dm.suspendGuards()()
	for _, part := range dm.Parts {
		m := part.M
		// Elements first, then orphaned lower ghosts.
		var els []mesh.Ent
		for el := range m.Elements() {
			if m.IsGhost(el) {
				els = append(els, el)
			}
		}
		sort.Slice(els, func(a, b int) bool { return els[a].Less(els[b]) })
		for _, el := range els {
			m.Destroy(el)
		}
		for dd := dm.Dim - 1; dd >= 0; dd-- {
			var level []mesh.Ent
			for e := range m.Iter(dd) {
				if m.IsGhost(e) && !m.HasUp(e) {
					level = append(level, e)
				}
			}
			sort.Slice(level, func(a, b int) bool { return level[a].Less(level[b]) })
			for _, e := range level {
				m.Destroy(e)
			}
		}
		part.nGhosts = 0
		part.ghostHome = map[mesh.Ent]mesh.RemoteCopyRef{}
		part.ghostsOf = map[mesh.Ent][]mesh.RemoteCopyRef{}
	}
	dm.ghostPlan = nil
}

// ghostSyncPlan is the compiled home-to-ghost push schedule: per local
// part, CSR runs of home elements to send per peer and of local ghost
// entities to apply per peer, both in the home-part handle order both
// sides derive locally from their ghost bookkeeping (ghostsOf on the
// home side, ghostHome on the ghost side).
type ghostSyncPlan struct {
	epochs      []uint64
	parts       []partPlan
	returnRanks []int // see BoundaryPlan.returnRanks
}

// ghostSync returns the cached ghost push plan, recompiling it if the
// epoch vector moved (Ghost and RemoveGhosts also drop it explicitly,
// since they edit the ghost bookkeeping of parts whose meshes did not
// change).
func (dm *DMesh) ghostSync() *ghostSyncPlan {
	if pl := dm.ghostPlan; pl != nil && dm.epochsMatch(pl.epochs) {
		dm.Ctx.Counters().Add("partition.plan.hit", 1)
		return pl
	}
	dm.Ctx.Counters().Add("partition.plan.miss", 1)
	tr := dm.Ctx.Trace()
	tr.Begin("partition.plan")
	defer tr.End("partition.plan")
	start := time.Now()
	pl := &ghostSyncPlan{
		epochs: make([]uint64, 0, len(dm.Parts)),
		parts:  make([]partPlan, len(dm.Parts)),
	}
	var sends, recvs []planPair
	for li, part := range dm.Parts {
		sends, recvs = sends[:0], recvs[:0]
		for e, gs := range part.ghostsOf {
			for _, g := range gs {
				sends = append(sends, planPair{peer: g.Part, key: e, ent: e})
			}
		}
		for g, home := range part.ghostHome {
			recvs = append(recvs, planPair{peer: home.Part, key: home.Ent, ent: g})
		}
		pp := &pl.parts[li]
		pp.sendPeers, pp.sendOff, pp.sendEnts = buildCSR(sends)
		pp.recvPeers, pp.recvOff, pp.recvEnts = buildCSR(recvs)
	}
	pl.epochs = dm.recordEpochs(pl.epochs)
	pl.returnRanks = returnRanks(dm, pl.parts)
	dm.Ctx.Metrics().Histogram("partition.plan.compile.ns").Observe(dm.Ctx.Rank(), int64(time.Since(start)))
	dm.ghostPlan = pl
	return pl
}

// SyncGhostFloatTag pushes the owner's float tag values on elements to
// all their ghost copies (collective). The tag must exist on every part
// under the same name. Runs on the cached ghost plan: each planned
// entry is a presence byte plus the value, in the agreed order, with
// no per-entity addressing; the headered path remains the sanitizer
// fallback.
func SyncGhostFloatTag(dm *DMesh, name string) {
	if !planned() {
		syncGhostFloatTagHeadered(dm, name)
		return
	}
	pl := dm.ghostSync()
	ctx := dm.Ctx
	for li := range dm.Parts {
		part := dm.Parts[li]
		m := part.M
		tag := m.Tags.Find(name)
		if tag == nil {
			// No tag on this part: no sections. Receivers read only
			// what arrives, so silence is well-formed.
			continue
		}
		pp := &pl.parts[li]
		from := m.Part()
		for pi, q := range pp.sendPeers {
			b := ctx.To(dm.RankOf(q))
			b.Int32(from)
			b.Int32(q)
			for _, e := range pp.sendEnts[pp.sendOff[pi]:pp.sendOff[pi+1]] {
				if v, ok := m.Tags.GetFloat(tag, e); ok {
					b.Byte(1)
					b.Float64(v)
				} else {
					b.Byte(0)
				}
			}
		}
	}
	for _, r := range pl.returnRanks {
		ctx.To(r) // empty return message; see BoundaryPlan.returnRanks
	}
	// Applying the owner's values onto ghost copies is the sanctioned
	// owner-to-copy direction.
	defer dm.suspendGuards()()
	for _, msg := range ctx.Exchange() {
		for !msg.Data.Empty() {
			from := msg.Data.Int32()
			to := msg.Data.Int32()
			part := dm.LocalPart(to)
			m := part.M
			tag := m.Tags.Find(name)
			pp := &pl.parts[dm.localIndex(to)]
			j := pp.recvPeerIndex(from)
			if j < 0 {
				panic(fmt.Sprintf("partition: ghost plan on part %d expects nothing from part %d (stale plan?)", to, from))
			}
			for _, e := range pp.recvEnts[pp.recvOff[j]:pp.recvOff[j+1]] {
				if msg.Data.Byte() == 0 {
					continue
				}
				v := msg.Data.Float64()
				if tag != nil {
					m.Tags.SetFloat(tag, e, v)
				}
			}
		}
		msg.Data.Done()
	}
}

// syncGhostFloatTagHeadered is the self-describing fallback wire
// format, each record addressed by the ghost copy's (type, index).
func syncGhostFloatTagHeadered(dm *DMesh, name string) {
	ph := dm.beginPhase()
	for _, part := range dm.Parts {
		m := part.M
		tag := m.Tags.Find(name)
		if tag == nil {
			continue
		}
		ents := make([]mesh.Ent, 0, len(part.ghostsOf))
		for e := range part.ghostsOf {
			ents = append(ents, e)
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a].Less(ents[b]) })
		for _, e := range ents {
			v, ok := m.Tags.GetFloat(tag, e)
			if !ok {
				continue
			}
			for _, g := range part.ghostsOf[e] {
				b := ph.to(m.Part(), g.Part)
				b.Byte(byte(g.Ent.T))
				b.Int32(g.Ent.I)
				b.Float64(v)
			}
		}
	}
	// Applying the owner's values onto ghost copies is the sanctioned
	// owner-to-copy direction.
	defer dm.suspendGuards()()
	for _, msg := range ph.exchange() {
		part := dm.LocalPart(msg.To)
		m := part.M
		tag := m.Tags.Find(name)
		for !msg.Data.Empty() {
			e := mesh.Ent{T: mesh.Type(msg.Data.Byte()), I: msg.Data.Int32()}
			v := msg.Data.Float64()
			if tag != nil {
				m.Tags.SetFloat(tag, e, v)
			}
		}
	}
}

func readClassif(r *pcu.Reader) (c gmi.Ref) {
	c.Dim = int8(r.Byte()) - 1
	c.Tag = r.Int32()
	return c
}

// NGhosts returns the number of ghost entities currently on the part.
func (p *Part) NGhosts() int { return p.nGhosts }

// GhostHome returns the home copy of a ghost element, if recorded.
func (p *Part) GhostHome(e mesh.Ent) (mesh.RemoteCopyRef, bool) {
	h, ok := p.ghostHome[e]
	return h, ok
}

// GhostCopies returns where an element of this part is ghosted, sorted
// by part.
func (p *Part) GhostCopies(e mesh.Ent) []mesh.RemoteCopyRef { return p.ghostsOf[e] }
