package main

import (
	"sort"

	"sgxgauge/internal/perf"
)

// layerMetrics computes the per-layer metrics shared by every
// workload, per unit of work: host time folded from the traced
// stretches' CPU profiles, divided over the units they ran, and the
// simulated counters of one unit. Service-layer metrics start at zero
// and only daemon-mix fills them.
func layerMetrics(tr *tracer, traced int, sim simTotals) map[string]float64 {
	n := float64(traced)
	f := tr.profile
	m := map[string]float64{}
	for _, l := range layers {
		m[l+".host_s"] = f.layer[l] / n
	}
	m["profile.total_s"] = f.total / n
	m["phase.boot_s"] = f.boot / n
	m["phase.window_s"] = f.window / n

	c := sim.counters
	get := func(e perf.Event) float64 { return float64(c.Get(e)) }
	m["sgx.accesses"] = get(perf.Accesses)
	m["sgx.extent_share"] = ratio(get(perf.ExtentAccesses), get(perf.Accesses))
	hot := m["workloads.host_s"] + m["sgx.host_s"] + m["tlb.host_s"] + m["cache.host_s"]
	m["sgx.host_ns_per_access"] = ratio(hot*1e9, get(perf.Accesses))
	m["tlb.dtlb_misses"] = get(perf.DTLBMisses)
	m["tlb.walk_cycles"] = get(perf.WalkCycles)
	m["cache.llc_misses"] = get(perf.LLCMisses)
	m["cache.llc_hit_ratio"] = ratio(get(perf.LLCHits), get(perf.LLCHits)+get(perf.LLCMisses))
	m["epc.allocs"] = get(perf.EPCAllocs)
	m["epc.evictions"] = get(perf.EPCEvictions)
	m["epc.loadbacks"] = get(perf.EPCLoadBacks)
	m["epc.page_faults"] = get(perf.PageFaults)
	m["epc.host_us_per_eviction"] = ratio((m["epc.host_s"]+m["mee.host_s"])*1e6, get(perf.EPCEvictions))
	m["libos.ecalls"] = get(perf.ECalls)
	m["libos.ocalls"] = get(perf.OCalls)
	m["libos.syscalls"] = get(perf.Syscalls)
	m["sim.cycles"] = float64(sim.cycles)
	m["sim.startup_cycles"] = float64(sim.startup)

	m["runtime.alloc_mb"] = tr.allocMB / n
	m["runtime.gc_pause_ms"] = tr.gcPauseMS / n

	for _, k := range []string{
		"harness.specs", "harness.cache_hits", "harness.spec_wall_p50_ms",
		"serve.runs", "serve.coalesced", "serve.cache_hit_ratio", "serve.admission_rejected",
		"store.puts", "store.hits", "journal.records",
		"serve.req_per_s", "serve.cold_p50_ms", "serve.cold_p90_ms", "serve.warm_p50_us", "serve.warm_p99_us",
		"serve.coalesced_p50_ms", "serve.sweep_p50_ms", "serve.disk_p50_us",
	} {
		m[k] = 0
	}
	return m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// noteLayers adds the folded profile to the report: host seconds per
// unit of work for every module package, so the "other" layer can be
// read apart.
func noteLayers(out *outcome, tr *tracer, traced int) {
	f := tr.profile
	out.note("profile      %d samples, %.3f s per unit over %d traced units", f.nSamples, f.total/float64(traced), traced)
	pkgs := make([]string, 0, len(f.pkg))
	for p := range f.pkg {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return f.pkg[pkgs[i]] > f.pkg[pkgs[j]] })
	for _, p := range pkgs {
		out.note("  %-10s %.4f s  %5.1f%%  (layer %s)", p, f.pkg[p]/float64(traced), 100*ratio(f.pkg[p], f.total), layerOf(p))
	}
}
