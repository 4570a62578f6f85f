// Command perfbench is the repository's end-to-end benchmark. It runs
// one of three paper pipelines as a closed loop of back-to-back
// operations ("ops") on an in-process two-rank pcu world, checks every
// op's output, and prints its metrics by name and unit, ending with one
// JSON line:
//
//	go run . --workload aaa --seed 1 --seconds 10 --trace 0
//
// Workloads (see ../BENCHMARK.json and predictions.json for why each
// was chosen and which layers it loads or bypasses):
//
//   - aaa: meshio.Read on rank 0, zpart hypergraph partitioning into 32
//     parts, partition.Adopt+Migrate, parma.Balance Vtx=Edge>Rgn,
//     meshio.SaveCheckpoint, partition.Ghost (paper Tables II-III).
//   - shock: meshio.LoadCheckpoint of a 16-part checkpoint saved by a
//     one-rank world, adapt.Parallel to a slanted shock band,
//     parma.HeavyPartSplit and parma.Balance Rgn (paper Fig 13).
//   - solve: damped Jacobi on a fixed RCB+ParMA partition over a
//     two-node topology, so every exchange is serialized off-node.
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced for half the time, then
// traced for the other half, and reports the per-layer metrics of the
// traced ops plus the tracing overhead. The traced run records a span
// around every call the benchmark makes into a module, arms the pcu
// flight recorder for per-op straggler blame, and writes its spans and
// per-op breakdown to <out>/trace-<workload>-<seed>.json at exit.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"github.com/fastmath/pumi-go/internal/hwtopo"
	"github.com/fastmath/pumi-go/internal/partition"
	"github.com/fastmath/pumi-go/internal/pcu"
	"github.com/fastmath/pumi-go/internal/trace"
)

const (
	ranks = 2
	// setupReps is how many times an untraced run sets up; setup_s is
	// the median.
	setupReps = 5
	// minTimed ops are always run so op_tail_s has tailBeyond samples
	// beyond it, unless maxLoop runs out first.
	minTimed = tailBeyond + 1
	maxLoop  = 100 * time.Second
	// traceRing is the pcu flight-recorder ring per rank, in events; it
	// must hold one op's events for the per-op straggler blame.
	traceRing = 1 << 17
)

// A pipeline is one rank's side of a workload. Every method except
// release is collective.
type pipeline interface {
	// setup builds what the ops start from; it is timed as setup_s.
	setup(c *pcu.Ctx, tr *tracer) error
	// op runs op number i and returns the distributed mesh it leaves.
	op(c *pcu.Ctx, tr *tracer, i int) (*partition.DMesh, error)
	// check validates op's result outside the timed region.
	check(c *pcu.Ctx, tr *tracer, dm *partition.DMesh, q quality) error
	// release drops any mesh the pipeline keeps between ops.
	release()
}

type workload struct {
	topo hwtopo.Topology
	new  func(rank int, seed int64, dir string) (pipeline, error)
}

var workloads = map[string]workload{
	"aaa":   {new: newAAA},
	"shock": {new: newShock},
	// Two single-core nodes: every exchange takes the serialized path.
	"solve": {topo: hwtopo.Cluster(2, 1), new: newSolve},
}

// quality is the partition quality an op leaves (ghosts excluded).
type quality struct {
	elemImb, vtxImb float64 // peak max/mean over parts
	sharedVtx       int64   // part-boundary vertices summed over parts
}

func measureQuality(dm *partition.DMesh) quality {
	_, e := partition.EntityImbalance(dm, 3)
	_, v := partition.EntityImbalance(dm, 0)
	return quality{elemImb: e, vtxImb: v, sharedVtx: partition.GatherBoundaryTraffic(dm, 0).SharedTotal}
}

// runResult is what rank 0 gathers over one world.
type runResult struct {
	setup             []float64 // seconds per set-up
	wall              []float64 // seconds per timed op
	allocs, bytes     uint64    // heap allocations over the timed ops
	quality           []quality // per timed op
	stats             []pcu.Stats
	attempted, failed int
	failures          []string
	heapPerElem       float64
	loopSec           float64 // wall time of the op loop after warm-up, checks included

	// Traced runs only, per timed op.
	timedOps  []int
	pcuWait   []float64
	blame     map[string]*phaseBlame
	blameLost int // timed ops whose pcu events the flight-recorder ring overwrote
	tracers   []*tracer
}

// phaseBlame sums pcu straggler blame for one span name over the ops.
type phaseBlame struct {
	Name      string         `json:"name"`
	Instances int            `json:"instances"`
	SkewSec   float64        `json:"skew_s"`
	Blamed    []int64        `json:"blamed_count"`
	DelayedBy map[string]int `json:"delayed_by"`
}

// pcuOps are the pcu blocking operations; their arrival skew is pcu wait.
var pcuOps = []string{"exchange", "barrier", "allreduce", "reduce", "bcast", "allgather", "exscan", "agree"}

const markOp, markOpEnd = "perfbench.op", "perfbench.op_end"

func runWorld(wl workload, seed int64, dir string, budget time.Duration, reps int, traced bool) (*runResult, error) {
	res := &runResult{blame: map[string]*phaseBlame{}, tracers: make([]*tracer, ranks)}
	opt := pcu.Options{Topo: wl.topo}
	var tt *trace.Trace
	if traced {
		tt = trace.New(ranks, trace.Config{Ring: traceRing})
		opt.Trace = tt
	}
	epoch := time.Now()
	_, err := pcu.RunOpt(ranks, opt, func(c *pcu.Ctx) error {
		root := c.Rank() == 0
		var tr *tracer
		if traced {
			tr = newTracer(c.Rank(), epoch)
			res.tracers[c.Rank()] = tr
		}
		p, err := wl.new(c.Rank(), seed, dir)
		if err != nil {
			return err
		}
		for i := 0; i < reps; i++ {
			c.Barrier()
			t0 := time.Now()
			if err := p.setup(c, tr); err != nil {
				return err
			}
			c.Barrier()
			if root {
				res.setup = append(res.setup, time.Since(t0).Seconds())
			}
		}
		heap := allocSamples()
		var loopStart time.Time
		var dm, prev *partition.DMesh
		// Op 0 warms caches and lazy set-up; it is checked, not timed.
		for i := 0; ; i++ {
			more := i == 0
			if root && i > 0 {
				if i == 1 {
					loopStart = time.Now()
				}
				el := time.Since(loopStart)
				more = (el < budget || len(res.wall) < minTimed) && el < maxLoop
			}
			if !pcu.Bcast(c, 0, more) {
				if root {
					res.loopSec = time.Since(loopStart).Seconds()
				}
				break
			}
			if tr != nil {
				tr.op = i
			}
			c.Barrier()
			var a0, b0 uint64
			var s0 pcu.Stats
			var t0 time.Time
			if root {
				a0, b0 = readAllocs(heap)
				s0 = c.Stats()
				t0 = time.Now()
			}
			c.Barrier()
			c.Trace().Point(markOp, int64(i))
			prev = dm
			dm, err = p.op(c, tr, i)
			if err != nil {
				return err
			}
			c.Trace().Point(markOpEnd, int64(i))
			c.Barrier()
			var wall float64
			var a1, b1 uint64
			var s1 pcu.Stats
			if root {
				wall = time.Since(t0).Seconds()
				a1, b1 = readAllocs(heap)
				s1 = c.Stats()
			}
			if tr != nil && dm != prev {
				tr.count("mesh.ents_created", float64(entities(dm)))
			}
			q := measureQuality(dm)
			cerr := p.check(c, tr, dm, q)
			if root && cerr == nil && s1.Retries != s0.Retries {
				cerr = fmt.Errorf("%d off-node frames retransmitted", s1.Retries-s0.Retries)
			}
			failed := pcu.MaxInt64(c, int64(boolInt(cerr != nil))) > 0
			if !root {
				continue
			}
			res.attempted++
			if failed {
				res.failed++
				if cerr != nil && len(res.failures) < 5 {
					res.failures = append(res.failures, fmt.Sprintf("op %d: %v", i, cerr))
				}
			}
			if i == 0 {
				continue
			}
			res.wall = append(res.wall, wall)
			res.allocs += a1 - a0
			res.bytes += b1 - b0
			res.quality = append(res.quality, q)
			res.stats = append(res.stats, statsDelta(s1, s0))
			if traced {
				res.timedOps = append(res.timedOps, i)
				res.pcuWait = append(res.pcuWait, res.addBlame(tt, i))
			}
		}
		// The mesh's own heap: live bytes with the last op's mesh held,
		// minus live bytes once every rank dropped it.
		elems := partition.GlobalCount(dm, 3)
		c.Barrier()
		var held uint64
		if root {
			held = liveHeap()
		}
		c.Barrier()
		runtime.KeepAlive(dm)
		dm, prev = nil, nil
		p.release()
		c.Barrier()
		if root && elems > 0 {
			res.heapPerElem = (float64(held) - float64(liveHeap())) / float64(elems)
		}
		return nil
	})
	return res, err
}

// addBlame folds op i's pcu straggler blame into res and returns the
// op's pcu wait: the arrival skew summed over its pcu operations.
func (res *runResult) addBlame(tt *trace.Trace, i int) float64 {
	per := make([][]trace.Event, tt.Ranks())
	for r := range per {
		evs := tt.Rank(r).Snapshot()
		start, end := -1, -1
		for j, e := range evs {
			if e.Kind == trace.KindPoint && e.A == int64(i) {
				switch e.Name {
				case markOp:
					start = j
				case markOpEnd:
					end = j
				}
			}
		}
		if start < 0 || end < start {
			res.blameLost++ // the ring overwrote the op's start
			return 0
		}
		per[r] = evs[start+1 : end]
	}
	var wait float64
	for _, ph := range trace.CriticalPathEvents(per).Phases {
		b := res.blame[ph.Name]
		if b == nil {
			b = &phaseBlame{Name: ph.Name, Blamed: make([]int64, ranks), DelayedBy: map[string]int{}}
			res.blame[ph.Name] = b
		}
		b.Instances += ph.Instances
		skew := float64(ph.TotalSkewNs) / 1e9
		b.SkewSec += skew
		for r, n := range ph.BlamedCount {
			b.Blamed[r] += n
		}
		for _, d := range ph.DelayedBy {
			b.DelayedBy[d.Name] += d.Count
		}
		for _, op := range pcuOps {
			if ph.Name == op {
				wait += skew
			}
		}
	}
	return wait
}

func statsDelta(a, b pcu.Stats) pcu.Stats {
	return pcu.Stats{
		OnNodeMsgs: a.OnNodeMsgs - b.OnNodeMsgs, OffNodeMsgs: a.OffNodeMsgs - b.OffNodeMsgs,
		OnNodeBytes: a.OnNodeBytes - b.OnNodeBytes, OffNodeBytes: a.OffNodeBytes - b.OffNodeBytes,
		Collectives: a.Collectives - b.Collectives, Retries: a.Retries - b.Retries,
	}
}

// entities counts this rank's entities of every dimension, ghosts
// included.
func entities(dm *partition.DMesh) int {
	n := 0
	for _, part := range dm.Parts {
		for d := 0; d <= dm.Dim; d++ {
			n += part.M.Count(d)
		}
	}
	return n
}

// liveHeap forces a collection and returns the bytes it found live.
func liveHeap() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: aaa, shock or solve")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds (at least one op past warm-up)")
	traced := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "scratch and trace output directory")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload aaa|shock|solve, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	if err := run(os.Stdout, *name, wl, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, wl workload, seed int64, budget time.Duration, traced bool, out string) error {
	dir, err := os.MkdirTemp(ensureDir(out), name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	rep := report{Metrics: map[string]metric{}}
	var runs []*runResult
	if !traced {
		res, err := runWorld(wl, seed, dir, budget, setupReps, false)
		if err != nil {
			return err
		}
		runs = append(runs, res)
		endToEnd(w, res, rep.Metrics)
	} else {
		plain, err := runWorld(wl, seed, dir, budget/2, 1, false)
		if err != nil {
			return err
		}
		tr, err := runWorld(wl, seed, dir, budget/2, 1, true)
		if err != nil {
			return err
		}
		runs = append(runs, plain, tr)
		accts, setup := tr.accounts()
		perLayer(tr, accts, setup, median(plain.wall), rep.Metrics)
		printMetrics(w, rep.Metrics)
		fmt.Fprintf(w, "per-layer values are medians over %d traced ops; allocs_world counts both ranks (one shared heap)\n", len(tr.wall))
		fmt.Fprintf(w, "trace.unaccounted_ratio is the op wall time no span covers on the least-covered rank\n")
		fmt.Fprintf(w, "pcu.wait_s is arrival skew at pcu operations from the flight recorder; %d of %d ops overflowed its ring\n", tr.blameLost, len(tr.wall))
		path := filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", name, seed))
		if err := writeTrace(path, tr, accts, rep.Metrics); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace written to %s\n", path)
	}
	for _, r := range runs {
		rep.Attempted += r.attempted
		rep.Failed += r.failed
		for _, f := range r.failures {
			fmt.Fprintf(w, "FAILED %s\n", f)
		}
	}
	fmt.Fprintf(w, "%-24s %.6g (%d of %d ops failed)\n", "fail_ratio", failRatio(rep.Failed, rep.Attempted), rep.Failed, rep.Attempted)
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for k, m := range rep.Metrics {
		if m.Value != m.Value { // NaN is not JSON
			return fmt.Errorf("metric %s has no value", k)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if !rep.Correct {
		return errors.New("some ops failed their checks")
	}
	return nil
}

func ensureDir(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports any failure
	return dir
}

// endToEnd fills the end-to-end metrics of an untraced run.
func endToEnd(w io.Writer, res *runResult, ms map[string]metric) {
	n := float64(len(res.wall))
	tailV, tailP, tailOK := tail(res.wall, tailBeyond)
	q1, q2, q3 := quartiles(res.wall)
	var e, v, s []float64
	for _, q := range res.quality {
		e, v, s = append(e, q.elemImb), append(v, q.vtxImb), append(s, float64(q.sharedVtx))
	}
	vals := map[string]float64{
		"op_p50_s":            q2,
		"op_tail_s":           tailV,
		"setup_s":             median(res.setup),
		"allocs_per_op":       float64(res.allocs) / n,
		"alloc_mb_per_op":     float64(res.bytes) / n / 1e6,
		"heap_bytes_per_elem": res.heapPerElem,
		"elem_imb":            median(e),
		"vtx_imb":             median(v),
		"shared_vtx":          median(s),
	}
	for _, d := range endToEndMetrics {
		ms[d.name] = metric{vals[d.name], d.unit}
	}
	printMetrics(w, ms)
	beyond := fmt.Sprintf("%d ops beyond it", tailBeyond)
	if !tailOK {
		beyond = "too few ops for 10 beyond it: the maximum"
	}
	fmt.Fprintf(w, "op_tail_s is p%.1f of %d timed ops (%s); op quartiles %.4g / %.4g / %.4g s\n",
		tailP, len(res.wall), beyond, q1, q2, q3)
	fmt.Fprintf(w, "timed ops took %.2f s of the %.2f s op loop; the rest is their untimed checks\n", sum(res.wall), res.loopSec)
	fmt.Fprintf(w, "setup_s is the median of %d set-ups: %v s\n", len(res.setup), res.setup)
	fmt.Fprintf(w, "allocations are runtime/metrics deltas over the timed ops of both ranks (one shared heap)\n")
}

func printMetrics(w io.Writer, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-24s %-14.6g %s\n", k, ms[k].Value, ms[k].Unit)
	}
}

// setupLayerMetrics come from set-up spans: no op builds a mesh or runs
// RCB.
var setupLayerMetrics = map[string]bool{"meshgen.build_s": true, "zpart.rcb_s": true}

// accounts returns the per-layer breakdown of each timed op of a traced
// run, and of its set-up.
func (res *runResult) accounts() (ops []opAccount, setup opAccount) {
	spans := make([][]span, len(res.tracers))
	for r, t := range res.tracers {
		spans[r] = t.spans
	}
	for _, op := range res.timedOps {
		ops = append(ops, account(spans, op))
	}
	return ops, account(spans, setupOp)
}

// perLayer fills the per-layer metrics of a traced run: the median over
// its timed ops of each op's value. plainP50 is the untraced op median.
func perLayer(res *runResult, accts []opAccount, setup opAccount, plainP50 float64, ms map[string]metric) {
	perOp := func(f func(k, op int) float64) float64 {
		vs := make([]float64, len(res.timedOps))
		for k, op := range res.timedOps {
			vs[k] = f(k, op)
		}
		return median(vs)
	}
	counter := func(name string) func(k, op int) float64 {
		return func(_, op int) float64 {
			var v float64
			for _, t := range res.tracers {
				v += t.counts[op][name]
			}
			return v
		}
	}
	for _, d := range perLayerMetrics {
		var v float64
		stem, isTime := strings.CutSuffix(d.name, "_s")
		switch {
		case setupLayerMetrics[d.name]:
			v = setup.busy[stem].Seconds()
		case d.name == "pcu.wait_s":
			v = median(res.pcuWait)
		case isTime && strings.HasSuffix(stem, ".wait"):
			v = perOp(func(k, _ int) float64 { return accts[k].wait[layerOf(stem)].Seconds() })
		case isTime:
			v = perOp(func(k, _ int) float64 { return accts[k].busy[stem].Seconds() })
		case strings.HasSuffix(d.name, ".allocs_world"):
			v = perOp(func(k, _ int) float64 { return float64(accts[k].allocs[layerOf(d.name)]) })
		case strings.HasPrefix(d.name, "pcu."):
			v = perOp(func(k, _ int) float64 { return pcuStat(res.stats[k], d.name) })
		case d.name == "parma.levels_met_ratio":
			v = perOp(func(_, op int) float64 {
				n := counter("parma.levels")(0, op)
				if n == 0 {
					return 0
				}
				return counter("parma.levels_met")(0, op) / n
			})
		case d.name == "trace.overhead_ratio":
			v = median(res.wall) / plainP50
		case d.name == "trace.unaccounted_ratio":
			v = perOp(func(k, _ int) float64 {
				worst := 0.0
				for _, cov := range accts[k].covered {
					worst = max(worst, 1-cov.Seconds()/res.wall[k])
				}
				return worst
			})
		default:
			v = perOp(counter(d.name))
		}
		ms[d.name] = metric{v, d.unit}
	}
}

func pcuStat(s pcu.Stats, name string) float64 {
	switch name {
	case "pcu.msgs_on":
		return float64(s.OnNodeMsgs)
	case "pcu.msgs_off":
		return float64(s.OffNodeMsgs)
	case "pcu.bytes_on":
		return float64(s.OnNodeBytes)
	case "pcu.bytes_off":
		return float64(s.OffNodeBytes)
	case "pcu.collectives":
		return float64(s.Collectives)
	case "pcu.retries":
		return float64(s.Retries)
	}
	panic("perfbench: unknown pcu metric " + name)
}
