// Command hostbench is the repository's benchmark. It runs one named
// workload against the simulator from a cold start — a fresh
// harness.Runner or serve.Server, fresh store and journal directories,
// no result cache shared with any earlier run — checks every output
// against pinned digests or an independent reference run, and prints
// every metric by name and unit. The last line of standard output is a
// JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones declared in
// BENCHMARK.json; with -trace 1 they are the per-layer ones, taken from
// a CPU profile folded by package and from the counters the layers
// publish. Run it from the repository root through run.sh, which builds
// it first:
//
//	bash hostbench/run.sh --workload report-epc256 --seed 1 --seconds 30 --trace 0
//
// README.md beside this file describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// units names the unit of every metric the benchmark can report. The
// end-to-end and per-layer lists in BENCHMARK.json choose from it, and
// a run refuses to print a result unless it computed exactly the
// declared metrics with these units.
var units = map[string]string{
	// End to end.
	"setup_s":     "s",
	"wall_s":      "s",
	"peak_rss_mb": "MB",

	// Host time by layer, per unit of work (one report, one set of
	// LibOS runs, one daemon round).
	"workloads.host_s": "s",
	"sgx.host_s":       "s",
	"tlb.host_s":       "s",
	"cache.host_s":     "s",
	"epc.host_s":       "s",
	"mee.host_s":       "s",
	"enclave.host_s":   "s",
	"libos.host_s":     "s",
	"harness.host_s":   "s",
	"serve.host_s":     "s",
	"store.host_s":     "s",
	"journal.host_s":   "s",
	"runtime.host_s":   "s",
	"bench.host_s":     "s",
	"other.host_s":     "s",
	"profile.total_s":  "s",
	"phase.boot_s":     "s",
	"phase.window_s":   "s",

	// Simulated work, per unit of work.
	"sgx.accesses":             "count",
	"sgx.extent_share":         "ratio",
	"sgx.host_ns_per_access":   "ns",
	"tlb.dtlb_misses":          "count",
	"tlb.walk_cycles":          "cycles",
	"cache.llc_misses":         "count",
	"cache.llc_hit_ratio":      "ratio",
	"epc.allocs":               "count",
	"epc.evictions":            "count",
	"epc.loadbacks":            "count",
	"epc.page_faults":          "count",
	"epc.host_us_per_eviction": "us",
	"libos.ecalls":             "count",
	"libos.ocalls":             "count",
	"libos.syscalls":           "count",
	"sim.cycles":               "cycles",
	"sim.startup_cycles":       "cycles",

	// Harness and service layers.
	"harness.specs":            "count",
	"harness.cache_hits":       "count",
	"harness.spec_wall_p50_ms": "ms",
	"serve.runs":               "count",
	"serve.coalesced":          "count",
	"serve.cache_hit_ratio":    "ratio",
	"serve.admission_rejected": "count",
	"store.puts":               "count",
	"store.hits":               "count",
	"journal.records":          "count",
	"serve.req_per_s":          "1/s",
	"serve.cold_p50_ms":        "ms",
	"serve.cold_p90_ms":        "ms",
	"serve.warm_p50_us":        "us",
	"serve.warm_p99_us":        "us",
	"serve.coalesced_p50_ms":   "ms",
	"serve.sweep_p50_ms":       "ms",
	"serve.disk_p50_us":        "us",

	// Go runtime, per unit of work, and the cost of tracing itself.
	"runtime.alloc_mb":     "MB",
	"runtime.gc_pause_ms":  "ms",
	"trace.overhead_share": "ratio",
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// outcome is what a workload hands back: the operations it attempted
// and failed, the metrics it computed, and human-readable lines
// (metrics the JSON does not carry, with their sample counts).
type outcome struct {
	attempted int
	failed    int
	failures  []string
	metrics   map[string]float64
	notes     []string
}

// fail counts one failed operation and keeps its message.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// note adds a human-readable line to the report.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var runners = map[string]func(options) (*outcome, error){
	"report-epc256": runReport,
	"libos-epc4096": runLibOS,
	"daemon-mix":    runDaemon,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: report-epc256, libos-epc4096 or daemon-mix")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	work, ok := runners[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "hostbench: need --workload (report-epc256, libos-epc4096, daemon-mix), --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	opt := options{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1}

	declared, err := declaredMetrics("BENCHMARK.json", opt.trace)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %v\n", err)
		return 1
	}
	out, err := work(opt)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", opt.workload, err)
		return 1
	}
	line, err := resultLine(out, declared)
	if err != nil {
		fmt.Fprintf(stderr, "hostbench: %s: %v\n", opt.workload, err)
		return 1
	}
	for _, f := range out.failures {
		fmt.Fprintf(stderr, "hostbench: FAILED %s\n", f)
	}
	fmt.Fprintf(stdout, "hostbench %s seed=%d seconds=%d trace=%d\n", opt.workload, opt.seed, *seconds, *traceFlag)
	for _, n := range out.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// declaredMetrics reads the metric names and units BENCHMARK.json
// declares for a run (per-layer when traced, end-to-end otherwise)
// and checks them against units.
func declaredMetrics(path string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		if u, ok := units[m.Name]; !ok || u != m.Unit {
			return nil, fmt.Errorf("%s: metric %q with unit %q is not one this benchmark computes", path, m.Name, m.Unit)
		}
		out[m.Name] = m.Unit
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s declares no metrics", path)
	}
	return out, nil
}

// resultLine renders the final JSON line: exactly the declared metrics,
// every one of which the workload must have computed.
func resultLine(out *outcome, declared map[string]string) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	var missing []string
	for name, unit := range declared {
		v, ok := out.metrics[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, name)
			continue
		}
		metrics[name] = value{v, unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return "", errors.New("no value for " + strings.Join(missing, ", "))
	}
	if out.attempted < 1 {
		return "", errors.New("attempted no operations")
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{out.failed == 0, out.attempted, out.failed, metrics})
	return string(data), err
}

// peakRSSMB returns the process's peak resident set size in MiB
// (VmHWM), or an error where /proc is not available.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// resetPeakRSS restarts the peak resident set size (VmHWM) from the
// current one, so the next peakRSSMB covers only what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// traceDir is where a traced run leaves its spans and CPU profiles.
func traceDir(opt options) string {
	return filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d", opt.workload, opt.seed))
}
