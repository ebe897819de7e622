package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the contract between this command, the benchmark
// driver and every later change that cites a metric.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &s, nil
}

// layerMetrics is every per-layer metric with its unit, in emission order.
// The driver expects each of them from every workload's traced pass; a
// layer the workload never calls reports 0, which is itself the finding
// (fabric.* on anything but warm_serve, serve.* on cold_solve).
var layerMetrics = [][2]string{
	{"op.samples", "count"}, {"op.ms_p50", "ms"}, {"op.ms_p90", "ms"}, {"op.ms_p99", "ms"}, {"op.ms_max", "ms"},
	{"molecule.hash_us", "us"},
	{"surface.sample_ms", "ms"}, {"surface.qpoints", "count"}, {"surface.compose_us", "us"},
	{"octree.build_atoms_ms", "ms"}, {"octree.build_qpts_ms", "ms"}, {"octree.nodes", "count"}, {"octree.refit_us", "us"},
	{"core.born_setup_ms", "ms"}, {"core.born_list_ms", "ms"}, {"core.born_eval_ms", "ms"}, {"core.push_ms", "ms"},
	{"core.born_near_pairs", "count"}, {"core.born_far_evals", "count"}, {"core.born_mpairs_per_s", "1/s"},
	{"core.epol_setup_ms", "ms"}, {"core.epol_list_ms", "ms"}, {"core.epol_eval_ms", "ms"},
	{"core.epol_near_pairs", "count"}, {"core.epol_far_evals", "count"}, {"core.epol_mpairs_per_s", "1/s"},
	{"sched.tasks", "count"}, {"sched.steals", "count"}, {"sched.failed_steals", "count"}, {"sched.parks", "count"},
	{"sched.parallel_for_us", "us"},
	{"cluster.allgatherv_us", "us"}, {"cluster.allreduce_us", "us"}, {"cluster.comm_ms", "ms"},
	{"engine.serial_ms", "ms"}, {"engine.octcilk_ms", "ms"}, {"engine.octmpi_ms", "ms"}, {"engine.hybrid_ms", "ms"},
	{"engine.par_speedup", "x"}, {"engine.phase_born_ms", "ms"}, {"engine.phase_push_ms", "ms"}, {"engine.phase_epol_ms", "ms"},
	{"engine.prepare_ms", "ms"}, {"engine.evalepol_ms", "ms"}, {"engine.prepared_mb", "MB"},
	{"engine.waterfall_cover", "ratio"}, {"engine.energy_rel_err", "ratio"},
	{"engine.session_create_ms", "ms"}, {"engine.session_create_alloc_mb", "MB"}, {"engine.session_step_ms", "ms"},
	{"engine.session_resweep_ms", "ms"}, {"engine.session_dirty_rows", "count"}, {"engine.session_rederived", "count"},
	{"serve.body_kb", "kB"}, {"serve.decode_ms", "ms"}, {"serve.encode_us", "us"},
	{"serve.queue_ms", "ms"}, {"serve.surface_ms", "ms"}, {"serve.prepare_ms", "ms"}, {"serve.eval_ms", "ms"},
	{"serve.overhead_ms", "ms"}, {"serve.cache_hit_share", "ratio"}, {"serve.direct_ms_p50", "ms"},
	{"serve.batch_requests", "count"}, {"serve.batch_poses", "count"}, {"serve.pose_ms", "ms"},
	{"serve.frame_overhead_ms", "ms"}, {"serve.create_ms_p50", "ms"},
	{"fabric.hop_ms", "ms"}, {"fabric.ring_lookup_ns", "ns"}, {"fabric.hedges", "count"}, {"fabric.retries", "count"},
	{"fabric.spills", "count"}, {"fabric.shard_balance", "ratio"},
	{"obs.trace_overhead", "ratio"}, {"obs.hist_observe_ns", "ns"},
	{"proc.alloc_mb_per_op", "MB"}, {"proc.allocs_per_op", "count"}, {"proc.gc_pause_ms", "ms"},
	{"proc.peak_heap_mb", "MB"}, {"proc.cpu_s_per_op", "s"}, {"proc.cpu_util", "ratio"},
}

// ordered returns the traced pass's metrics in layerMetrics order, with a
// zero for every layer the workload did not call. A metric outside the
// list is a harness defect.
func ordered(m *metricSet) (*metricSet, error) {
	out := newMetricSet()
	for _, lm := range layerMetrics {
		if v, ok := m.byKey[lm[0]]; ok {
			if v.Unit != lm[1] {
				return nil, fmt.Errorf("metric %s emitted in %s, declared in %s", lm[0], v.Unit, lm[1])
			}
			out.set(lm[0], v.Unit, v.Value, v.Samples)
		} else {
			out.set(lm[0], lm[1], 0, 0)
		}
	}
	for _, n := range m.names {
		if _, ok := out.byKey[n]; !ok {
			return nil, fmt.Errorf("metric %s is not declared in layerMetrics", n)
		}
	}
	return out, nil
}
