package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestFoldAttributesInnermostModuleFrame(t *testing.T) {
	stacks := []stackSample{
		// Launch measurement: SHA-256 under the enclave, under LibOS boot.
		{frames: []string{
			"crypto/sha256.block",
			"crypto/sha256.(*Digest).Write",
			"sgxgauge/internal/enclave.(*Enclave).ExtendMeasurement",
			"sgxgauge/internal/sgx.(*Env).LaunchEnclaveReserve",
			"sgxgauge/internal/libos.StartWithTimeline",
			"sgxgauge/internal/harness.runOne",
		}, nanos: 3e6},
		// Page sealing: AES-GCM under the MEE, under EPC eviction.
		{frames: []string{
			"crypto/internal/fips140/aes/gcm.gcmAesEnc",
			"crypto/cipher.(*gcmAsm).Seal",
			"sgxgauge/internal/mee.(*Engine).Seal",
			"sgxgauge/internal/epc.(*EPC).evict",
			"sgxgauge/internal/workloads/btree.(*Workload).Run",
			"sgxgauge/internal/harness.runOne.func3",
		}, nanos: 2e6},
		// A bare runtime stack: background GC.
		{frames: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, nanos: 4e6},
		// The benchmark's own HTTP client.
		{frames: []string{"encoding/json.Unmarshal", "main.(*daemonBench).run", "main.runDaemon"}, nanos: 1e6},
		// A module package with no layer of its own.
		{frames: []string{"sgxgauge/internal/osal.(*FS).Read", "sgxgauge/internal/workloads/iozone.(*Workload).Run"}, nanos: 5e6},
	}
	f := newFold()
	f.add(stacks)

	want := map[string]float64{"enclave": 0.003, "mee": 0.002, "runtime": 0.004, "bench": 0.001, "other": 0.005}
	sum := 0.0
	for _, l := range layers {
		if math.Abs(f.layer[l]-want[l]) > 1e-12 {
			t.Errorf("layer %s = %v s, want %v", l, f.layer[l], want[l])
		}
		sum += f.layer[l]
	}
	if math.Abs(sum-f.total) > 1e-12 || math.Abs(f.total-0.015) > 1e-12 {
		t.Errorf("layers sum to %v of total %v, want 0.015 both", sum, f.total)
	}
	if f.pkg["osal"] != 0.005 {
		t.Errorf("package osal = %v, want 0.005", f.pkg["osal"])
	}
	if math.Abs(f.boot-0.003) > 1e-12 || math.Abs(f.window-0.007) > 1e-12 {
		t.Errorf("boot %v window %v, want 0.003 and 0.007", f.boot, f.window)
	}
}

func TestDecodeProfileReadsRuntimePprof(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sum := sha256.Sum256(nil)
	for deadline := time.Now().Add(500 * time.Millisecond); time.Now().Before(deadline); {
		for i := 0; i < 1000; i++ {
			sum = sha256.Sum256(sum[:])
		}
	}
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range samples {
		if s.nanos <= 0 || len(s.frames) == 0 {
			t.Fatalf("sample %+v has no time or no frames", s)
		}
		for _, fr := range s.frames {
			found = found || strings.HasSuffix(fr, ".TestDecodeProfileReadsRuntimePprof")
		}
	}
	if !found {
		t.Error("no sample names the profiled test function")
	}
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{99, 0.9, 0, false},     // rank 90: 9 beyond
		{100, 0.9, 90, true},    // rank 90: 10 beyond
		{999, 0.99, 0, false},   // rank 990: 9 beyond
		{1000, 0.99, 990, true}, // rank 990: 10 beyond
		{0, 0.5, 0, false},
	}
	for _, c := range cases {
		got, ok := tail(seq(c.n), c.q)
		if ok != c.ok || got != c.want {
			t.Errorf("tail(n=%d, q=%v) = %v, %v; want %v, %v", c.n, c.q, got, ok, c.want, c.ok)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestMetricsDelta(t *testing.T) {
	before := `# HELP sgxgauged_runs_total Specs actually executed.
# TYPE sgxgauged_runs_total counter
sgxgauged_runs_total 3
sgxgauged_http_requests_total{path="/v1/run",code="200"} 10
sgxgauged_http_request_seconds_sum{path="/v1/run"} 0.5
`
	after := `sgxgauged_runs_total 4
sgxgauged_http_requests_total{path="/v1/run",code="200"} 12
sgxgauged_http_requests_total{path="/v1/run",code="429"} 1
sgxgauged_http_request_seconds_sum{path="/v1/run"} 1.25
`
	b, err := parseMetrics(strings.NewReader(before))
	if err != nil {
		t.Fatal(err)
	}
	a, err := parseMetrics(strings.NewReader(after))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sgxgauged_runs_total": 1,
		`sgxgauged_http_requests_total{path="/v1/run",code="200"}`: 2,
		`sgxgauged_http_requests_total{path="/v1/run",code="429"}`: 1,
		`sgxgauged_http_request_seconds_sum{path="/v1/run"}`:       0.75,
	}
	if got := metricsDelta(b, a); !reflect.DeepEqual(got, want) {
		t.Errorf("delta = %v, want %v", got, want)
	}
	if _, err := parseMetrics(strings.NewReader("sgxgauged_runs_total three\n")); err == nil {
		t.Error("non-numeric value parsed without error")
	}
}

func TestScriptIsSeededAndWellFormed(t *testing.T) {
	a, err := newScript(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := newScript(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := newScript(8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two scripts")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one script")
	}

	var counts [numClasses]int
	var coalesced [daemonClients][]string
	for id, steps := range a.clients {
		done := map[string]bool{}
		if steps[0].class != classCold {
			t.Errorf("client %d starts with %s, want cold", id, classNames[steps[0].class])
		}
		for _, st := range steps {
			counts[st.class]++
			for i, spec := range st.specs {
				k := string(mustJSON(t, spec))
				fresh := st.class == classCold || st.class == classCoalesced || (st.class == classSweep && i == len(st.specs)-1)
				if fresh == done[k] {
					t.Errorf("client %d: %s step for %s: fresh=%v but completed=%v", id, classNames[st.class], spec.WorkloadName(), fresh, done[k])
				}
				done[k] = true
				if st.class == classCoalesced {
					coalesced[id] = append(coalesced[id], k)
				}
			}
		}
	}
	if counts[classCold] != len(daemonPool) {
		t.Errorf("%d cold requests per round, want one per pool entry (%d)", counts[classCold], len(daemonPool))
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	if share := float64(counts[classCold]) / float64(total); share < 0.015 || share > 0.025 {
		t.Errorf("cold share %.3f, want about 1 in %d", share, coldEvery)
	}
	if counts[classSweep] != daemonClients || counts[classCoalesced] != daemonClients*coalescedPairs {
		t.Errorf("%d sweeps and %d coalesced requests, want %d and %d", counts[classSweep], counts[classCoalesced], daemonClients, daemonClients*coalescedPairs)
	}
	if !reflect.DeepEqual(coalesced[0], coalesced[1]) {
		t.Error("the clients' coalesced specs differ")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestBenchmarkJSONDeclaresEveryMetric(t *testing.T) {
	e2e, err := declaredMetrics("../BENCHMARK.json", false)
	if err != nil {
		t.Fatal(err)
	}
	perLayer, err := declaredMetrics("../BENCHMARK.json", true)
	if err != nil {
		t.Fatal(err)
	}
	for name := range units {
		_, a := e2e[name]
		_, b := perLayer[name]
		if a == b {
			t.Errorf("metric %s: end-to-end %v, per-layer %v; want exactly one", name, a, b)
		}
	}
	m := layerMetrics(newTracer(time.Now()), 1, simTotals{})
	m["trace.overhead_share"] = 0 // set by the workloads beside layerMetrics
	for name := range perLayer {
		if _, ok := m[name]; !ok {
			t.Errorf("per-layer metric %s is not computed by layerMetrics", name)
		}
	}
}
