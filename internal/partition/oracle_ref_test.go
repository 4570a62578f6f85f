package partition

import (
	"fmt"
	"sort"
	"time"

	"github.com/fastmath/pumi-go/internal/ds"
	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// This file freezes the map/IntSet TryMigrate that the slot-indexed
// tables replaced, as the differential oracle of oracle_test.go: the
// same protocol with per-entity maps for every table. It is kept
// verbatim apart from the ref prefix on its names.

// refTryMigrate is the map/IntSet TryMigrate.
func refTryMigrate(dm *DMesh, plans []Plan) error {
	t := dm.Ctx.Counters().Start("partition.migrate")
	defer t.Stop()
	tr := dm.Ctx.Trace()
	tr.Begin("partition.migrate")
	defer tr.End("partition.migrate")
	start := time.Now()
	defer func() {
		dm.Ctx.Metrics().Histogram("partition.migrate.ns").Observe(dm.Ctx.Rank(), int64(time.Since(start)))
	}()
	d := dm.Dim
	for _, part := range dm.Parts {
		if part.nGhosts > 0 {
			panic("partition: migration with ghosts present; call RemoveGhosts first")
		}
	}

	// Normalize plans: drop self-moves, validate.
	dests := make([]Plan, len(dm.Parts))
	for i, part := range dm.Parts {
		dests[i] = Plan{}
		var plan Plan
		if i < len(plans) {
			plan = plans[i]
		}
		for el, q := range plan {
			if int(q) < 0 || int(q) >= dm.NParts() {
				panic(fmt.Sprintf("partition: plan sends %v to invalid part %d", el, q))
			}
			if el.Dim() != d {
				panic(fmt.Sprintf("partition: plan contains non-element %v", el))
			}
			if q != part.M.Part() {
				dests[i][el] = q
			}
		}
	}

	// Step 1: local residence contributions, computed only for the
	// entities adjacent to moving elements (migration cost must scale
	// with the move, not the mesh — ParMA runs many small migrations).
	// contrib(e) = destinations of ALL local elements adjacent to e.
	contribs := make([]map[mesh.Ent]ds.IntSet, len(dm.Parts))
	var adj, ups []mesh.Ent // adjacency scratch reused across entities
	localContrib := func(i int, m *mesh.Mesh, e mesh.Ent) ds.IntSet {
		var s ds.IntSet
		self := m.Part()
		ups = m.AdjacentTo(e, d, ups[:0])
		for _, up := range ups {
			if dst, moving := dests[i][up]; moving {
				s.Add(dst)
			} else {
				s.Add(self)
			}
		}
		return s
	}
	for i, part := range dm.Parts {
		m := part.M
		contrib := map[mesh.Ent]ds.IntSet{}
		for el := range dests[i] {
			for dd := 0; dd < d; dd++ {
				adj = m.AdjacentTo(el, dd, adj[:0])
				for _, e := range adj {
					if _, done := contrib[e]; !done {
						contrib[e] = localContrib(i, m, e)
					}
				}
			}
		}
		contribs[i] = contrib
	}

	// Step 2: exchange contributions across current residence parts of
	// the affected shared entities. Two rounds: parts with moving
	// elements announce their contributions to every copy; any copy
	// that received an announcement without having sent one replies
	// with its own contribution to every copy, so all copies end up
	// with the complete new residence set.
	newRes := make([]map[mesh.Ent]ds.IntSet, len(dm.Parts))
	for i := range newRes {
		newRes[i] = map[mesh.Ent]ds.IntSet{}
		for e, s := range contribs[i] {
			newRes[i][e] = s.Clone()
		}
	}
	sendContrib := func(ph *phase, part *Part, e mesh.Ent, s ds.IntSet) {
		m := part.M
		for _, r := range m.RemoteParts(e) {
			b := ph.to(m.Part(), r)
			b.Byte(byte(e.Dim()))
			b.Int64(part.Gid(e))
			b.Int32s(s.Values())
		}
	}
	var localErr error
	ph := dm.beginPhase()
	for i, part := range dm.Parts {
		m := part.M
		ents := refSortedEnts(contribs[i])
		for _, e := range ents {
			if m.IsShared(e) {
				sendContrib(ph, part, e, contribs[i][e])
			}
		}
	}
	replied := make([]map[mesh.Ent]bool, len(dm.Parts))
	for i := range replied {
		replied[i] = map[mesh.Ent]bool{}
	}
	applyContrib := func(msg partMsg) []mesh.Ent {
		part := dm.LocalPart(msg.To)
		li := dm.localIndex(msg.To)
		var fresh []mesh.Ent
		for !msg.Data.Empty() {
			dd := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			vals := msg.Data.Int32s()
			e, ok := part.FindGid(dd, gid)
			if !ok {
				panic(fmt.Sprintf("partition: contribution for unknown gid %d dim %d on part %d",
					gid, dd, msg.To))
			}
			s, seen := newRes[li][e]
			if !seen {
				// First word of this entity here: fold in the local
				// contribution and remember to reply in round two.
				s = localContrib(li, part.M, e)
				fresh = append(fresh, e)
			}
			for _, v := range vals {
				s.Add(v)
			}
			newRes[li][e] = s
		}
		return fresh
	}
	roundTwo := make([][]mesh.Ent, len(dm.Parts))
	localErr = catchStage(func() {
		for _, msg := range ph.exchange() {
			li := dm.localIndex(msg.To)
			for _, e := range applyContrib(msg) {
				if !replied[li][e] {
					replied[li][e] = true
					roundTwo[li] = append(roundTwo[li], e)
				}
			}
		}
	})
	// A rank whose round-one decode failed still takes part in the
	// round-two exchange (with nothing to send) so the collective
	// schedule stays aligned all the way to the abort vote.
	ph = dm.beginPhase()
	if localErr == nil {
		for i, part := range dm.Parts {
			for _, e := range roundTwo[i] {
				sendContrib(ph, part, e, newRes[i][e])
			}
		}
	}
	if err := catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg)
		}
	}); localErr == nil {
		localErr = err
	}
	if err := voteAbort(dm, localErr, "staging residence updates"); err != nil {
		// Nothing has been created or destroyed yet; the vote is the
		// only cleanup needed.
		tr.Point("migrate.abort", 1)
		return err
	}
	tr.Point("migrate.residence-voted", 1)

	// Step 3: ship moving elements with closures, grouped per
	// destination part.
	ph = dm.beginPhase()
	for i, part := range dm.Parts {
		m := part.M
		byDest := map[int32][]mesh.Ent{}
		for el, q := range dests[i] {
			byDest[q] = append(byDest[q], el)
		}
		qs := make([]int32, 0, len(byDest))
		for q := range byDest {
			qs = append(qs, q)
		}
		sort.Slice(qs, func(a, b int) bool { return qs[a] < qs[b] })
		for _, q := range qs {
			els := byDest[q]
			sort.Slice(els, func(a, b int) bool { return els[a].Less(els[b]) })
			refPackElements(ph.to(m.Part(), q), dm, i, q, els, newRes[i])
		}
	}
	received := make([]map[mesh.Ent]ds.IntSet, len(dm.Parts))
	for i := range received {
		received[i] = map[mesh.Ent]ds.IntSet{}
	}
	created := make([][]mesh.Ent, len(dm.Parts))
	localErr = catchStage(func() {
		for _, msg := range ph.exchange() {
			li := dm.localIndex(msg.To)
			refUnpackElements(dm, msg, received[li], &created[li])
		}
	})
	if err := voteAbort(dm, localErr, "shipping element closures"); err != nil {
		rollbackCreated(dm, created)
		tr.Point("migrate.abort", 2)
		return err
	}
	// Commit point reached: stage marks 1/2 are the abort votes passed,
	// mark 3 is the irreversible destroy-and-restitch step starting.
	tr.Point("migrate.commit", 3)

	// Commit point: every rank has staged and validated its incoming
	// data. The destructive steps below run only on a unanimous vote.
	// They destroy orphaned boundary copies and rewrite remote links and
	// ownership on entities this part does not own — that is the
	// protocol, so sanctioned for the sanitizer.
	defer dm.suspendGuards()()

	// Step 4: remove migrated elements and orphaned closure entities.
	for i, part := range dm.Parts {
		m := part.M
		affected := map[mesh.Ent]bool{}
		var els []mesh.Ent
		for el := range dests[i] {
			els = append(els, el)
		}
		sort.Slice(els, func(a, b int) bool { return els[a].Less(els[b]) })
		for _, el := range els {
			for dd := 0; dd < d; dd++ {
				adj = m.AdjacentTo(el, dd, adj[:0])
				for _, e := range adj {
					affected[e] = true
				}
			}
			m.Destroy(el)
		}
		for dd := d - 1; dd >= 0; dd-- {
			var level []mesh.Ent
			for e := range affected {
				if e.Dim() == dd {
					level = append(level, e)
				}
			}
			sort.Slice(level, func(a, b int) bool { return level[a].Less(level[b]) })
			for _, e := range level {
				if m.Alive(e) && !m.HasUp(e) {
					m.Destroy(e)
				}
			}
		}
	}

	// Step 5: rebuild remote copies and ownership where residence
	// changed. Received entities always restitch.
	ph = dm.beginPhase()
	type fix struct {
		e   mesh.Ent
		res ds.IntSet
	}
	fixes := make([][]fix, len(dm.Parts))
	for i, part := range dm.Parts {
		m := part.M
		self := m.Part()
		// Merge retained-entity residence changes and received entities.
		cand := map[mesh.Ent]ds.IntSet{}
		for e, s := range newRes[i] {
			if m.Alive(e) {
				cand[e] = s
			}
		}
		for e, s := range received[i] {
			if m.Alive(e) {
				merged := s.Clone()
				if prior, ok := cand[e]; ok {
					merged = merged.Union(prior)
				}
				cand[e] = merged
			}
		}
		var ents []mesh.Ent
		for e := range cand {
			ents = append(ents, e)
		}
		sort.Slice(ents, func(a, b int) bool { return ents[a].Less(ents[b]) })
		for _, e := range ents {
			res := cand[e]
			// Restitch exactly when the residence set changed. This
			// decision is symmetric across all copies: newRes is
			// globally consistent and pre-migration remote links are
			// symmetric, so either every copy restitches or none does.
			// A freshly created copy always restitches (its local
			// residence starts as just this part).
			if res.Equal(m.Residence(e)) {
				continue
			}
			m.ClearRemotes(e)
			fixes[i] = append(fixes[i], fix{e: e, res: res})
			for _, q := range res.Values() {
				if q == self {
					continue
				}
				b := ph.to(self, q)
				b.Byte(byte(e.Dim()))
				b.Int64(part.Gid(e))
				b.Byte(byte(e.T))
				b.Int32(e.I)
			}
		}
	}
	for _, msg := range ph.exchange() {
		part := dm.LocalPart(msg.To)
		for !msg.Data.Empty() {
			dd := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			rt := mesh.Type(msg.Data.Byte())
			ri := msg.Data.Int32()
			e, ok := part.FindGid(dd, gid)
			if !ok {
				panic(fmt.Sprintf("partition: stitch for unknown gid %d dim %d on part %d",
					gid, dd, msg.To))
			}
			part.M.SetRemote(e, msg.From, mesh.Ent{T: rt, I: ri})
		}
	}
	for i, part := range dm.Parts {
		for _, f := range fixes[i] {
			part.M.SetOwner(f.e, f.res.Min())
		}
	}
	var totalMoved int64
	for i := range dests {
		totalMoved += int64(len(dests[i]))
	}
	dm.Ctx.Counters().Add("partition.migrated-elements", totalMoved)
	tr.Point("migrate.moved-elements", totalMoved)
	return nil
}

// refSortedEnts returns the map's keys in deterministic entity order.
func refSortedEnts(m map[mesh.Ent]ds.IntSet) []mesh.Ent {
	out := make([]mesh.Ent, 0, len(m))
	for e := range m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// refPackElements encodes the closure of the given elements plus the
// elements themselves into b, dimension by dimension.
func refPackElements(b *pcu.Buffer, dm *DMesh, partIdx int, dest int32, els []mesh.Ent, res map[mesh.Ent]ds.IntSet) {
	part := dm.Parts[partIdx]
	m := part.M
	d := dm.Dim
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
			b.Byte(byte(int8(c.Dim) + 1)) // -1..3 -> 0..4
			b.Int32(c.Tag)
			if dd == d {
				b.Int32(1) // residence set {dest}, same wire as Int32s
				b.Int32(dest)
			} else {
				b.Int32s(res[e].Values())
			}
			if dd == 0 {
				p := m.Coord(e)
				b.Float64(p.X)
				b.Float64(p.Y)
				b.Float64(p.Z)
			} else {
				down := m.Down(e)
				gids = gids[:0]
				for _, de := range down {
					gids = append(gids, part.Gid(de))
				}
				b.Int64s(gids)
			}
			writeEntityTags(b, m, movable, e)
		}
	}
}

// refUnpackElements decodes one element-transfer message into the
// destination part, creating missing entities and recording the new
// residence of every transferred entity. Tag data accompanies every
// entity; it is applied to newly created copies (existing copies keep
// their own values). Every created entity is appended to createdLog in
// creation order so an aborted migration can roll the staging back.
func refUnpackElements(dm *DMesh, msg partMsg, recvRes map[mesh.Ent]ds.IntSet, createdLog *[]mesh.Ent) {
	part := dm.LocalPart(msg.To)
	m := part.M
	d := dm.Dim
	r := msg.Data
	table := readTagTable(r, m)
	var resScratch []int32 // residence-set decode scratch, consumed by mergeRes
	var gidScratch []int64 // down-adjacency gid decode scratch
	for dd := 0; dd <= d; dd++ {
		n := int(r.Int32())
		for k := 0; k < n; k++ {
			t := mesh.Type(r.Byte())
			gid := r.Int64()
			cdim := int8(r.Byte()) - 1
			ctag := r.Int32()
			resVals := r.AppendInt32s(resScratch[:0])
			resScratch = resVals
			cls := gmi.Ref{Dim: cdim, Tag: ctag}
			if dd == 0 {
				x, y, z := r.Float64(), r.Float64(), r.Float64()
				e, ok := part.FindGid(0, gid)
				if !ok {
					e = m.CreateVertex(cls, vec.V{X: x, Y: y, Z: z})
					part.setGid(e, gid)
					*createdLog = append(*createdLog, e)
				}
				applyEntityTags(r, m, table, e, !ok)
				refMergeRes(recvRes, e, resVals)
				continue
			}
			gidScratch = r.AppendInt64s(gidScratch[:0])
			down := make([]mesh.Ent, len(gidScratch))
			missing := false
			for j, dg := range gidScratch {
				de, ok := part.FindGid(dd-1, dg)
				if !ok {
					missing = true
				}
				down[j] = de
			}
			if missing {
				// Recoverable: the abort vote rolls the staging back.
				panic(migrateLocalError{fmt.Errorf(
					"partition: entity gid %d dim %d arrived before its closure", gid, dd)})
			}
			e, ok := part.FindGid(dd, gid)
			if !ok {
				e = m.CreateEntity(t, cls, down)
				part.setGid(e, gid)
				*createdLog = append(*createdLog, e)
			}
			applyEntityTags(r, m, table, e, !ok)
			refMergeRes(recvRes, e, resVals)
		}
	}
	r.Done()
}

func refMergeRes(recvRes map[mesh.Ent]ds.IntSet, e mesh.Ent, vals []int32) {
	s := recvRes[e]
	for _, v := range vals {
		s.Add(v)
	}
	recvRes[e] = s
}
