package partition

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/fastmath/pumi-go/internal/gmi"
	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/mesh"
	"github.com/fastmath/pumi-go/internal/meshgen"
	"github.com/fastmath/pumi-go/internal/pcu"
)

// abortSetup distributes a small box across 2 single-rank nodes (so all
// cross-rank traffic is framed off-node) and returns the DMesh plus a
// plan moving every element of part 0 to part 1 — guaranteeing both the
// residence staging and the closure shipment send off-node payloads.
func abortSetup(ctx *pcu.Ctx) (*DMesh, []Plan) {
	model := gmi.Box(4, 1, 1)
	dm := distributeByX(ctx, model.Model, func() *mesh.Mesh {
		return meshgen.Box3D(model, 4, 1, 1)
	}, 1, 4)
	plans := make([]Plan, len(dm.Parts))
	if ctx.Rank() == 0 {
		plans[0] = Plan{}
		for el := range dm.Parts[0].M.Elements() {
			plans[0][el] = 1
		}
	}
	return dm, plans
}

func entCounts(dm *DMesh) [4]int {
	var out [4]int
	for d := 0; d <= dm.Dim; d++ {
		out[d] = dm.Parts[0].M.Count(d)
	}
	return out
}

// TestTryMigrateAbortLeavesSourceIntact injects wire faults into the
// exchanges inside TryMigrate — first into residence staging, then into
// closure shipment — and asserts the migration aborts with
// ErrMigrateAborted while the source DMesh still passes Verify with its
// entity counts unchanged.
func TestTryMigrateAbortLeavesSourceIntact(t *testing.T) {
	topo := hwtopo.Cluster(2, 1)

	// Probe: the workload is deterministic, so one fault-free run tells
	// us each rank's op count right before TryMigrate; fault plans can
	// then target exact stages inside it.
	baseOps := make([]int64, 2)
	if _, err := pcu.RunOpt(2, pcu.Options{Topo: topo}, func(ctx *pcu.Ctx) error {
		abortSetup(ctx)
		baseOps[ctx.Rank()] = ctx.Ops()
		return nil
	}); err != nil {
		t.Fatalf("probe run failed: %v", err)
	}
	if baseOps[0] != baseOps[1] {
		t.Fatalf("op counts diverge across ranks: %v", baseOps)
	}
	base := baseOps[0]

	// TryMigrate's blocking-op sequence after the probe point:
	// +1 residence round one, +2 residence round two, +3 abort vote,
	// +4 closure shipment, +5 abort vote, +6 commit restitch.
	//
	// The faults are Sticky: the transient-fault retry layer repairs a
	// one-shot wire fault before TryMigrate ever sees it, so forcing the
	// abort path requires damage that survives the retransmit budget.
	cases := []struct {
		name  string
		fault pcu.Fault
	}{
		{"corrupt residence staging", pcu.Fault{Rank: 0, Op: base + 1, Kind: pcu.FaultCorrupt, Sticky: true}},
		{"truncate residence staging", pcu.Fault{Rank: 0, Op: base + 1, Kind: pcu.FaultTruncate, Sticky: true}},
		{"corrupt closure shipment", pcu.Fault{Rank: 0, Op: base + 4, Kind: pcu.FaultCorrupt, Sticky: true}},
		{"truncate closure shipment", pcu.Fault{Rank: 0, Op: base + 4, Kind: pcu.FaultTruncate, Sticky: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := &pcu.FaultPlan{Faults: []pcu.Fault{tc.fault}}
			_, err := pcu.RunOpt(2, pcu.Options{
				Topo:         topo,
				Faults:       plan,
				RetryBackoff: -1,
				StallTimeout: 30 * time.Second,
			}, func(ctx *pcu.Ctx) error {
				dm, plans := abortSetup(ctx)
				before := entCounts(dm)
				err := TryMigrate(dm, plans)
				if !errors.Is(err, ErrMigrateAborted) {
					return fmt.Errorf("rank %d: want ErrMigrateAborted, got %v", ctx.Rank(), err)
				}
				if errors.Is(err, pcu.ErrPeerFailed) {
					return fmt.Errorf("rank %d: abort escalated to teardown: %v", ctx.Rank(), err)
				}
				if got := entCounts(dm); got != before {
					return fmt.Errorf("rank %d: entity counts changed across abort: %v -> %v",
						ctx.Rank(), before, got)
				}
				if verr := Verify(dm); verr != nil {
					return fmt.Errorf("rank %d: source DMesh broken after abort: %v", ctx.Rank(), verr)
				}
				// The aborted migration must be retryable: a clean
				// second attempt completes and verifies.
				_, plans2 := abortSetup2(dm, ctx)
				if err := TryMigrate(dm, plans2); err != nil {
					return fmt.Errorf("rank %d: retry after abort failed: %v", ctx.Rank(), err)
				}
				return Verify(dm)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// abortSetup2 rebuilds the move-everything plan against the current
// (post-abort) state of dm.
func abortSetup2(dm *DMesh, ctx *pcu.Ctx) (*DMesh, []Plan) {
	plans := make([]Plan, len(dm.Parts))
	if ctx.Rank() == 0 {
		plans[0] = Plan{}
		for el := range dm.Parts[0].M.Elements() {
			plans[0][el] = 1
		}
	}
	return dm, plans
}

// TestTryMigrateSurvivesTransientFault: a non-sticky wire fault inside
// the migration is repaired by the retransmit layer before TryMigrate's
// validation sees it, so the migration completes instead of aborting.
func TestTryMigrateSurvivesTransientFault(t *testing.T) {
	topo := hwtopo.Cluster(2, 1)
	plan := &pcu.FaultPlan{Faults: []pcu.Fault{{Rank: 0, Op: 10, Kind: pcu.FaultCorrupt}}}
	st, err := pcu.RunOpt(2, pcu.Options{
		Topo:         topo,
		Faults:       plan,
		StallTimeout: 30 * time.Second,
	}, func(ctx *pcu.Ctx) error {
		dm, plans := abortSetup(ctx)
		if err := TryMigrate(dm, plans); err != nil {
			return fmt.Errorf("rank %d: transient fault should be retried away: %w", ctx.Rank(), err)
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Retries == 0 {
		t.Fatal("fault plan injected no recoverable wire damage; move the op index onto an off-node exchange")
	}
}

// TestTryMigrateCleanPathUnchanged guards the refactor: a fault-free
// TryMigrate behaves exactly like the old Migrate.
func TestTryMigrateCleanPathUnchanged(t *testing.T) {
	err := pcu.Run(2, func(ctx *pcu.Ctx) error {
		dm, plans := abortSetup(ctx)
		if err := TryMigrate(dm, plans); err != nil {
			return err
		}
		//pumi-vet:ignore collseq // assertion failure ends the run; poisoning unblocks peers
		if n := dm.Parts[0].M.Count(dm.Dim); ctx.Rank() == 0 && n != 0 {
			return fmt.Errorf("part 0 still holds %d elements after moving all away", n)
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTryMigrateUnknownGidAborts: a residence contribution naming a gid
// the receiving part does not hold is a recoverable staging failure.
// One shared copy's gid is corrupted before the move-everything
// migration, so the peer's announcement for it cannot be resolved:
// every rank must get ErrMigrateAborted (not a world teardown), and
// once the gid is restored the untouched source mesh verifies with
// unchanged counts.
func TestTryMigrateUnknownGidAborts(t *testing.T) {
	_, err := pcu.RunOpt(2, pcu.Options{Topo: hwtopo.Cluster(2, 1), StallTimeout: 30 * time.Second}, func(ctx *pcu.Ctx) error {
		dm, plans := abortSetup(ctx)
		before := entCounts(dm)
		part := dm.Parts[0]
		victim := mesh.NilEnt
		if ctx.Rank() == 1 {
			for v := range part.M.Iter(0) {
				if part.M.IsShared(v) {
					victim = v
					break
				}
			}
		}
		var gid int64
		if victim.Ok() {
			gid = part.Gid(victim)
			part.setGid(victim, gid|1<<60)
		}
		err := TryMigrate(dm, plans)
		if victim.Ok() {
			part.setGid(victim, gid)
		}
		if !errors.Is(err, ErrMigrateAborted) {
			return fmt.Errorf("rank %d: want ErrMigrateAborted, got %v", ctx.Rank(), err)
		}
		if got := entCounts(dm); got != before {
			return fmt.Errorf("rank %d: entity counts changed across abort: %v -> %v", ctx.Rank(), before, got)
		}
		return Verify(dm)
	})
	if err != nil {
		t.Fatal(err)
	}
}
