package partition

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/vec"
)

// Plan assigns elements of one part to destination parts. Elements not
// in the plan (or mapped to their own part) stay.
type Plan map[mesh.Ent]int32

// ErrMigrateAborted is wrapped by every TryMigrate abort: the migration
// was rolled back before any destructive step and the source DMesh is
// intact (it still passes Verify).
var ErrMigrateAborted = errors.New("partition: migration aborted")

// migrateLocalError marks a recoverable local validation failure inside
// a migration stage; catchStage converts it to an error for the abort
// vote instead of tearing the run down.
type migrateLocalError struct{ err error }

// catchStage runs f, converting recoverable local failures — corrupt
// off-node frames and staged-data validation — into a returned error.
// Teardown panics (peer failure, watchdog stall) and genuine bugs
// propagate.
func catchStage(f func()) (err error) {
	defer func() {
		p := recover()
		if p == nil {
			return
		}
		if le, ok := p.(migrateLocalError); ok {
			err = le.err
			return
		}
		if e, ok := p.(error); ok && errors.Is(e, pcu.ErrCorruptMessage) {
			err = e
			return
		}
		panic(p)
	}()
	f()
	return nil
}

// voteAbort is the collective go/no-go decision after a staging step:
// every rank contributes its local error (or none), and if any part of
// the world failed, every rank returns the same abort error naming all
// causes. The Allgather keeps the collective schedule aligned even when
// only some ranks failed.
func voteAbort(dm *DMesh, localErr error, stage string) error {
	s := ""
	if localErr != nil {
		s = localErr.Error()
	}
	all := pcu.Allgather(dm.Ctx, s)
	var causes []string
	for r, m := range all {
		if m != "" {
			causes = append(causes, fmt.Sprintf("rank %d: %s", r, m))
		}
	}
	if len(causes) == 0 {
		return nil
	}
	return fmt.Errorf("%w while %s: %s", ErrMigrateAborted, stage, strings.Join(causes, "; "))
}

// rollbackCreated destroys the entities a migration staged onto each
// part, newest first so no entity is removed before its upward
// adjacencies. After rollback the mesh is exactly as before TryMigrate:
// staging only ever creates entities, it never mutates existing ones.
func rollbackCreated(dm *DMesh, created [][]mesh.Ent) {
	for i, list := range created {
		m := dm.Parts[i].M
		for j := len(list) - 1; j >= 0; j-- {
			m.Destroy(list[j])
		}
	}
}

// Migrate moves mesh elements between parts according to per-local-part
// plans. It is TryMigrate with failures escalated to panics; callers
// that want to survive an aborted migration use TryMigrate directly.
func Migrate(dm *DMesh, plans []Plan) {
	if err := TryMigrate(dm, plans); err != nil {
		panic(err)
	}
}

// TryMigrate moves mesh elements between parts according to
// per-local-part plans (indexed like dm.Parts; nil entries mean no
// moves). It is collective: every rank must call it, even with empty
// plans.
//
// The procedure follows Seol's distributed mesh migration: (1) compute
// each affected entity's new residence part set by combining local
// destination contributions with those of all current remote copies;
// (2) ship moving elements with their full closures, stitching arriving
// entities to existing copies by global id; (3) remove migrated
// elements and downward entities left without local adjacency; (4)
// rebuild remote-copy links and ownership for every entity whose
// residence changed.
//
// The steps are ordered stage-validate-commit: residence staging and
// closure shipment only ever add entities, and each is followed by a
// collective abort vote. A failure before commit (a corrupt off-node
// frame, a contribution or closure that failed validation) rolls back
// the staged entities on every rank and returns an error wrapping
// ErrMigrateAborted, leaving the source DMesh Verify-intact. Only after
// the votes pass does TryMigrate destroy migrated elements and restitch
// remote links.
//
// The bookkeeping is one migTable per local part, sized to the move:
// the cost scales with the moved elements and their closures, not with
// the mesh, so ParMA's many small migrations stay cheap. Every walk
// that creates, destroys or relinks entities runs in Ent.Less order,
// so the result depends only on the mesh and the plans.
func TryMigrate(dm *DMesh, plans []Plan) error {
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

	// Step 1: local residence contributions, computed only for the
	// entities bounding moving elements (migration cost must scale
	// with the move, not the mesh — ParMA runs many small migrations).
	// contrib(e) = destinations of ALL local elements above e: the
	// destinations of the moving ones, plus this part if one stays.
	tabs := make([]*migTable, len(dm.Parts))
	var keys []uint64 // sortSlots scratch
	var ups []mesh.Ent
	for i, part := range dm.Parts {
		var plan Plan
		if i < len(plans) {
			plan = plans[i]
		}
		tb := newMigTable(normalizePlan(dm, part.M.Part(), plan))
		tabs[i] = tb
		m := part.M
		for _, mv := range tb.movers {
			tb.addClosure(m, mv.el, mv.dest)
		}
		keys = tb.sortSlots(tb.closure, keys)
		// Dimensions descending, so every closure entity above e has
		// its stays flag set before e reads it.
		for k := len(tb.closure) - 1; k >= 0; k-- {
			s := tb.closure[k]
			ups = m.UpTo(tb.ents[s], ups[:0])
			for _, u := range ups {
				// An entity outside the table bounds no moving
				// element, so every element above it stays (in a
				// valid mesh every entity bounds an element). Moving
				// elements are the table's only elements.
				j := tb.find(u)
				if j < 0 || (u.Dim() < d && tb.stays[j]) {
					tb.stays[s] = true
					break
				}
			}
			if tb.stays[s] {
				tb.addRes(s, m.Part())
			}
			for cur := tb.dests[s]; cur >= 0; cur = tb.next[cur] {
				tb.addRes(s, tb.part[cur])
			}
		}
	}

	// Step 2: exchange contributions across current residence parts of
	// the affected shared entities. Two rounds: parts with moving
	// elements announce their contributions to every copy; any copy
	// that received an announcement without having sent one replies
	// with its own contribution to every copy, so all copies end up
	// with the complete new residence set.
	var vals, rps []int32 // residence and remote-part scratch
	sendContrib := func(ph *phase, part *Part, tb *migTable, s int32) {
		m := part.M
		e := tb.ents[s]
		vals = tb.appendRes(s, vals[:0])
		rps = m.AppendRemoteParts(e, rps[:0])
		for _, r := range rps {
			b := ph.to(m.Part(), r)
			b.Byte(byte(e.Dim()))
			b.Int64(part.Gid(e))
			b.Int32s(vals)
		}
	}
	ph := dm.beginPhase()
	for i, part := range dm.Parts {
		tb := tabs[i]
		for _, s := range tb.closure {
			if part.M.IsShared(tb.ents[s]) {
				sendContrib(ph, part, tb, s)
			}
		}
	}
	// applyContrib folds one message into the residence sets; entities
	// first heard of here are appended to fresh when it is non-nil.
	applyContrib := func(msg partMsg, fresh [][]int32) {
		part := dm.LocalPart(msg.To)
		li := dm.localIndex(msg.To)
		tb := tabs[li]
		for !msg.Data.Empty() {
			dd := int(msg.Data.Byte())
			gid := msg.Data.Int64()
			vals = msg.Data.AppendInt32s(vals[:0])
			e, ok := part.FindGid(dd, gid)
			if !ok {
				// Recoverable: nothing is staged yet, the vote aborts.
				panic(migrateLocalError{fmt.Errorf(
					"partition: contribution for unknown gid %d dim %d on part %d", gid, dd, msg.To)})
			}
			s, isNew := tb.slot(e)
			if isNew {
				// e is outside the local closure, so no moving element
				// bounds it: its local contribution is this part alone.
				tb.addRes(s, part.M.Part())
				if fresh != nil {
					fresh[li] = append(fresh[li], s)
				}
			}
			for _, v := range vals {
				tb.addRes(s, v)
			}
		}
	}
	roundTwo := make([][]int32, len(dm.Parts))
	localErr := catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg, roundTwo)
		}
	})
	// A rank whose round-one decode failed still takes part in the
	// round-two exchange (with nothing to send) so the collective
	// schedule stays aligned all the way to the abort vote.
	ph = dm.beginPhase()
	if localErr == nil {
		for i, part := range dm.Parts {
			for _, s := range roundTwo[i] {
				sendContrib(ph, part, tabs[i], s)
			}
		}
	}
	if err := catchStage(func() {
		for _, msg := range ph.exchange() {
			applyContrib(msg, nil)
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
		packMoves(ph, part, tabs[i], d)
	}
	created := make([][]mesh.Ent, len(dm.Parts))
	localErr = catchStage(func() {
		for _, msg := range ph.exchange() {
			li := dm.localIndex(msg.To)
			unpackElements(dm, msg, tabs[li], &created[li])
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

	// Step 4: remove migrated elements, then orphaned closure entities
	// from the top dimension down.
	for i, part := range dm.Parts {
		m := part.M
		tb := tabs[i]
		for _, mv := range tb.movers {
			m.Destroy(mv.el)
		}
		lv := tb.levels(tb.closure)
		for dd := d - 1; dd >= 0; dd-- {
			for _, s := range tb.closure[lv[dd]:lv[dd+1]] {
				if e := tb.ents[s]; m.Alive(e) && !m.HasUp(e) {
					m.Destroy(e)
				}
			}
		}
	}

	// Step 5: rebuild remote copies and ownership where residence
	// changed. Received entities always restitch.
	ph = dm.beginPhase()
	type fix struct {
		e     mesh.Ent
		owner int32
	}
	fixes := make([][]fix, len(dm.Parts))
	var cur []int32 // current residence scratch
	for i, part := range dm.Parts {
		m := part.M
		self := m.Part()
		tb := tabs[i]
		// Slots past the movers and the closure are the entities first
		// heard of in step 2 or received in step 3.
		n1 := len(tb.movers) + len(tb.closure)
		later := make([]int32, 0, len(tb.ents)-n1)
		for s := n1; s < len(tb.ents); s++ {
			later = append(later, int32(s))
		}
		keys = tb.sortSlots(later, keys)
		restitch := func(s int32) {
			e := tb.ents[s]
			if !m.Alive(e) {
				return
			}
			// Restitch exactly when the residence set changed. This
			// decision is symmetric across all copies: the staged sets
			// are globally consistent and pre-migration remote links
			// are symmetric, so either every copy restitches or none
			// does. A freshly created copy always restitches (its local
			// residence starts as just this part).
			vals = tb.appendRes(s, vals[:0])
			cur = m.AppendResidence(e, cur[:0])
			if slices.Equal(vals, cur) {
				return
			}
			m.ClearRemotes(e)
			fixes[i] = append(fixes[i], fix{e: e, owner: vals[0]})
			for _, q := range vals {
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
		// Merge the two entity-sorted runs (a slot is in exactly one).
		a, b := tb.closure, later
		for len(a) > 0 || len(b) > 0 {
			if len(b) == 0 || (len(a) > 0 && tb.ents[a[0]].Less(tb.ents[b[0]])) {
				restitch(a[0])
				a = a[1:]
			} else {
				restitch(b[0])
				b = b[1:]
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
			part.M.SetOwner(f.e, f.owner)
		}
	}
	var totalMoved int64
	for _, tb := range tabs {
		totalMoved += int64(len(tb.movers))
	}
	dm.Ctx.Counters().Add("partition.migrated-elements", totalMoved)
	tr.Point("migrate.moved-elements", totalMoved)
	return nil
}

func (dm *DMesh) localIndex(part int32) int {
	return int(part) - dm.Ctx.Rank()*dm.K
}

// normalizePlan validates one part's plan and returns its moves,
// element-sorted, without self-moves.
func normalizePlan(dm *DMesh, self int32, plan Plan) []mover {
	movers := make([]mover, 0, len(plan))
	for el, q := range plan {
		if int(q) < 0 || int(q) >= dm.NParts() {
			panic(fmt.Sprintf("partition: plan sends %v to invalid part %d", el, q))
		}
		if el.Dim() != dm.Dim {
			panic(fmt.Sprintf("partition: plan contains non-element %v", el))
		}
		if q != self {
			movers = append(movers, mover{el: el, dest: q})
		}
	}
	slices.SortFunc(movers, func(a, b mover) int { return cmp.Compare(entKey(a.el), entKey(b.el)) })
	return movers
}

// packMoves writes one part's outgoing closures, one message per
// destination in ascending part order. An entity goes to destination q
// exactly when a moving element above it does — when q is among its
// local destinations — so one pass over the sorted closure buckets it
// per destination, already in the per-level order packElements writes.
func packMoves(ph *phase, part *Part, tb *migTable, d int) {
	if len(tb.movers) == 0 {
		return
	}
	// Moves grouped by destination, element order kept within a group.
	byDest := slices.Clone(tb.movers)
	slices.SortStableFunc(byDest, func(a, b mover) int { return cmp.Compare(a.dest, b.dest) })
	var qs []int32
	for i, mv := range byDest {
		if i == 0 || mv.dest != byDest[i-1].dest {
			qs = append(qs, mv.dest)
		}
	}
	group := func(q int32) int {
		g, _ := slices.BinarySearch(qs, q)
		return g
	}
	// Closure slots bucketed per destination (CSR).
	off := make([]int, len(qs)+1)
	for _, s := range tb.closure {
		for cur := tb.dests[s]; cur >= 0; cur = tb.next[cur] {
			off[group(tb.part[cur])+1]++
		}
	}
	for g := range qs {
		off[g+1] += off[g]
	}
	cl := make([]int32, off[len(qs)])
	fill := slices.Clone(off[:len(qs)])
	for _, s := range tb.closure {
		for cur := tb.dests[s]; cur >= 0; cur = tb.next[cur] {
			g := group(tb.part[cur])
			cl[fill[g]] = s
			fill[g]++
		}
	}
	lo := 0
	for g, q := range qs {
		hi := lo
		for hi < len(byDest) && byDest[hi].dest == q {
			hi++
		}
		packElements(ph.to(part.M.Part(), q), part, tb, d, q, byDest[lo:hi], cl[off[g]:off[g+1]])
		lo = hi
	}
}

// packElements encodes the closure of the given moves plus their
// elements into b, dimension by dimension. closure holds the closure's
// slots in entity order.
func packElements(b *pcu.Buffer, part *Part, tb *migTable, d int, dest int32, moves []mover, closure []int32) {
	m := part.M
	movable := writeTagTable(b, m)
	var res []int32  // residence scratch
	var gids []int64 // down-adjacency gid scratch, bulk-packed per entity
	var down [8]mesh.Ent
	pack := func(e mesh.Ent, res []int32) {
		b.Byte(byte(e.T))
		b.Int64(part.Gid(e))
		c := m.Classification(e)
		b.Byte(byte(int8(c.Dim) + 1)) // -1..3 -> 0..4
		b.Int32(c.Tag)
		b.Int32s(res)
		if e.T == mesh.Vertex {
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
	}
	lv := tb.levels(closure)
	for dd := 0; dd < d; dd++ {
		level := closure[lv[dd]:lv[dd+1]]
		b.Int32(int32(len(level)))
		for _, s := range level {
			res = tb.appendRes(s, res[:0])
			pack(tb.ents[s], res)
		}
	}
	b.Int32(int32(len(moves)))
	only := []int32{dest} // an element's new residence is its destination
	for _, mv := range moves {
		pack(mv.el, only)
	}
}

// unpackElements decodes one element-transfer message into the
// destination part, creating missing entities and merging the shipped
// residence of every transferred entity into the part's table. Tag
// data accompanies every entity; it is applied to newly created copies
// (existing copies keep their own values). Every created entity is
// appended to createdLog in creation order so an aborted migration can
// roll the staging back.
func unpackElements(dm *DMesh, msg partMsg, tb *migTable, createdLog *[]mesh.Ent) {
	part := dm.LocalPart(msg.To)
	m := part.M
	d := dm.Dim
	r := msg.Data
	table := readTagTable(r, m)
	var resScratch []int32 // residence-set decode scratch
	var gidScratch []int64 // down-adjacency gid decode scratch
	var downScratch []mesh.Ent
	merge := func(e mesh.Ent, vals []int32) {
		s, _ := tb.slot(e)
		for _, v := range vals {
			tb.addRes(s, v)
		}
	}
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
				merge(e, resVals)
				continue
			}
			gidScratch = r.AppendInt64s(gidScratch[:0])
			down := downScratch[:0]
			missing := false
			for _, dg := range gidScratch {
				de, ok := part.FindGid(dd-1, dg)
				if !ok {
					missing = true
				}
				down = append(down, de)
			}
			downScratch = down
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
			merge(e, resVals)
		}
	}
	r.Done()
}
