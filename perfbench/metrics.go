package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

type metricDef struct {
	name, unit, better string
}

// endToEndMetrics are reported by untraced runs. Lower is better for
// all of them; BENCHMARK.json lists the same names with their bounds.
var endToEndMetrics = []metricDef{
	{"op_p50_s", "s", "lower"},
	{"op_tail_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"heap_bytes_per_elem", "B", "lower"},
	{"elem_imb", "ratio", "lower"},
	{"vtx_imb", "ratio", "lower"},
	{"shared_vtx", "count", "lower"},
}

// perLayerMetrics are reported by traced runs, per op. A "<layer>.<call>_s"
// time is the call's busy time: summed over its calls in the op, the
// largest time any rank spent in it, less that rank's wait for the last
// rank to arrive when the call is collective. "<layer>.wait_s" is the
// arrival skew summed over the layer's collective calls;
// "<layer>.allocs_world" counts the heap allocations of both ranks (one
// shared heap) during the layer's calls on rank 0.
var perLayerMetrics = []metricDef{
	{"meshgen.build_s", "s", "lower"},
	{"meshio.read_s", "s", "lower"},
	{"meshio.save_s", "s", "lower"},
	{"meshio.load_s", "s", "lower"},
	{"meshio.wait_s", "s", "lower"},
	{"meshio.bytes_written", "B", "lower"},
	{"meshio.bytes_read", "B", "lower"},
	{"meshio.allocs_world", "count", "lower"},
	{"zpart.hypergraph_s", "s", "lower"},
	{"zpart.phg_s", "s", "lower"},
	{"zpart.rcb_s", "s", "lower"},
	{"zpart.allocs_world", "count", "lower"},
	{"partition.adopt_s", "s", "lower"},
	{"partition.migrate_s", "s", "lower"},
	{"partition.ghost_s", "s", "lower"},
	{"partition.wait_s", "s", "lower"},
	{"partition.elems_moved", "count", "lower"},
	{"partition.allocs_world", "count", "lower"},
	{"parma.balance_s", "s", "lower"},
	{"parma.split_s", "s", "lower"},
	{"parma.wait_s", "s", "lower"},
	{"parma.iters", "count", "lower"},
	{"parma.imb_before", "ratio", "lower"},
	{"parma.imb_after", "ratio", "lower"},
	{"parma.levels_met_ratio", "ratio", "higher"},
	{"parma.allocs_world", "count", "lower"},
	{"adapt.parallel_s", "s", "lower"},
	{"adapt.wait_s", "s", "lower"},
	{"adapt.splits", "count", "lower"},
	{"adapt.collapses", "count", "lower"},
	{"adapt.localized", "count", "lower"},
	{"adapt.rounds", "count", "lower"},
	{"adapt.allocs_world", "count", "lower"},
	{"field.assemble_s", "s", "lower"},
	{"field.accumulate_s", "s", "lower"},
	{"field.update_s", "s", "lower"},
	{"field.sync_s", "s", "lower"},
	{"field.residual_s", "s", "lower"},
	{"field.wait_s", "s", "lower"},
	{"field.iters", "count", "lower"},
	{"field.allocs_world", "count", "lower"},
	{"mesh.ents_created", "count", "lower"},
	{"mesh.adj_queries", "count", "lower"},
	{"pcu.msgs_on", "count", "lower"},
	{"pcu.msgs_off", "count", "lower"},
	{"pcu.bytes_on", "B", "lower"},
	{"pcu.bytes_off", "B", "lower"},
	{"pcu.collectives", "count", "lower"},
	{"pcu.retries", "count", "lower"},
	{"pcu.wait_s", "s", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.unaccounted_ratio", "ratio", "lower"},
}

// chromeEvent is one complete span in the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"` // rank
	Args map[string]any `json:"args"`
}

// writeTrace writes the traced run's spans as a Chrome timeline (one
// track per rank), its per-layer metrics, the per-op breakdown and the
// pcu straggler blame summed over its timed ops.
func writeTrace(path string, res *runResult, accts []opAccount, ms map[string]metric) error {
	var evs []chromeEvent
	for r, t := range res.tracers {
		for _, s := range t.spans {
			args := map[string]any{"op": s.Op}
			if r == 0 {
				args["allocs_world"] = s.Allocs
			}
			evs = append(evs, chromeEvent{
				Name: s.Name, Ph: "X", Tid: r, Args: args,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			})
		}
	}
	type opRow struct {
		Op          int                `json:"op"`
		WallSec     float64            `json:"wall_s"`
		BusySec     map[string]float64 `json:"busy_s"`
		WaitSec     map[string]float64 `json:"wait_s"`
		CoveredSec  []float64          `json:"covered_s"` // per rank: spans' work plus own waits
		PcuWaitSec  float64            `json:"pcu_wait_s"`
		Unaccounted []float64          `json:"unaccounted_share"` // per rank
	}
	var ops []opRow
	for k, op := range res.timedOps {
		a := accts[k]
		row := opRow{Op: op, WallSec: res.wall[k], BusySec: secs(a.busy), WaitSec: secs(a.wait), PcuWaitSec: res.pcuWait[k]}
		for _, cov := range a.covered {
			row.CoveredSec = append(row.CoveredSec, cov.Seconds())
			row.Unaccounted = append(row.Unaccounted, 1-cov.Seconds()/res.wall[k])
		}
		ops = append(ops, row)
	}
	var blame []*phaseBlame
	for _, b := range res.blame {
		blame = append(blame, b)
	}
	sort.Slice(blame, func(i, j int) bool { return blame[i].SkewSec > blame[j].SkewSec })
	doc := map[string]any{
		"traceEvents": evs,
		"perLayer":    ms,
		"ops":         ops,
		"pcuBlame":    blame,
	}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func secs(m map[string]time.Duration) map[string]float64 {
	out := make(map[string]float64, len(m))
	for k, v := range m {
		out[k] = v.Seconds()
	}
	return out
}
