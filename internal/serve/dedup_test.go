package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sgxgauge/internal/harness"
)

// joined reports how many cache misses on s's runner joined another
// batch's in-flight run.
func joined(s *Server) int {
	_, n, _ := s.runner.Stats()
	return int(n)
}

// postAsync posts body to path in the background and returns a channel
// that delivers the request's outcome: nil for a 200 whose body was
// read to the end.
func postAsync(url, path, body string) <-chan error {
	errc := make(chan error, 1)
	go func() {
		resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
		if err != nil {
			errc <- err
			return
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			errc <- err
			return
		}
		if resp.StatusCode != http.StatusOK {
			errc <- fmt.Errorf("%s: status %d", path, resp.StatusCode)
			return
		}
		errc <- nil
	}()
	return errc
}

// TestSweepCountsRuns: sgxgauged_runs_total counts every spec the
// daemon executes, not only /v1/run leaders — a one-spec sweep of a
// fresh spec moves it by exactly one, and a repeat (a cache hit) by
// none.
func TestSweepCountsRuns(t *testing.T) {
	_, ts := newTestServer(t)
	body := `[{"workload":"Empty","mode":"Vanilla","size":"Low","seed":31}]`
	before := metric(t, ts, "sgxgauged_runs_total")
	if err := <-postAsync(ts.URL, "/v1/sweep", body); err != nil {
		t.Fatal(err)
	}
	if d := metric(t, ts, "sgxgauged_runs_total") - before; d != 1 {
		t.Fatalf("a one-spec sweep of a fresh spec moved runs_total by %g, want 1", d)
	}
	if err := <-postAsync(ts.URL, "/v1/sweep", body); err != nil {
		t.Fatal(err)
	}
	if d := metric(t, ts, "sgxgauged_runs_total") - before; d != 1 {
		t.Fatalf("a cached sweep moved runs_total to %g past the fresh one, want 1", d)
	}
}

// TestRunAndSweepCoalesce: a /v1/run and a /v1/sweep that want the
// same fresh spec at the same time simulate it once. The executor
// holds the first request's run until the second has joined it.
func TestRunAndSweepCoalesce(t *testing.T) {
	s, ts := newTestServer(t)
	gate := make(chan struct{})
	var calls atomic.Int32
	s.runner.Exec = func(spec harness.Spec) (*harness.Result, error) {
		calls.Add(1)
		<-gate
		return &harness.Result{Name: spec.Workload.Name(), Mode: spec.Mode, Cycles: 11, Attempts: 1}, nil
	}
	spec := `{"workload":"Empty","mode":"Vanilla","size":"Low","seed":41}`
	run := postAsync(ts.URL, "/v1/run", spec)
	sweep := postAsync(ts.URL, "/v1/sweep", "["+spec+"]")

	deadline := time.Now().Add(10 * time.Second)
	for joined(s) < 1 {
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("the second request never joined the first one's run (%d executions)", calls.Load())
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for _, errc := range []<-chan error{run, sweep} {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("spec executed %d times, want 1", got)
	}
	if runs := metric(t, ts, "sgxgauged_runs_total"); runs != 1 {
		t.Errorf("runs_total = %g, want 1", runs)
	}
	if c := metric(t, ts, "sgxgauged_runs_coalesced_total"); c != 1 {
		t.Errorf("runs_coalesced_total = %g, want 1", c)
	}
}

// TestSweepsShareWorkerBound: Config.Workers bounds simulation across
// every job, not per job — two concurrent two-spec sweeps on a
// two-worker daemon never execute more than two specs at once.
func TestSweepsShareWorkerBound(t *testing.T) {
	s := New(Config{EPCPages: testEPC, Seed: 7, Workers: 2})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Drain()
	})
	gate := make(chan struct{})
	var mu sync.Mutex
	running, peak := 0, 0
	s.runner.Exec = func(spec harness.Spec) (*harness.Result, error) {
		mu.Lock()
		running++
		peak = max(peak, running)
		mu.Unlock()
		<-gate
		mu.Lock()
		running--
		mu.Unlock()
		return &harness.Result{Name: spec.Workload.Name(), Mode: spec.Mode, Cycles: 3, Attempts: 1}, nil
	}
	a := postAsync(ts.URL, "/v1/sweep", `[{"workload":"Empty","mode":"Vanilla","size":"Low","seed":51},{"workload":"Empty","mode":"Vanilla","size":"Low","seed":52}]`)
	b := postAsync(ts.URL, "/v1/sweep", `[{"workload":"Empty","mode":"Vanilla","size":"Low","seed":53},{"workload":"Empty","mode":"Vanilla","size":"Low","seed":54}]`)

	// Hold every execution until both jobs are admitted and two specs
	// run, then give a third the chance to start before releasing.
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := running
		mu.Unlock()
		if n >= 2 && s.queued.Load() == 4 {
			break
		}
		if time.Now().After(deadline) {
			close(gate)
			t.Fatalf("only %d executions started", n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond)
	close(gate)
	for _, errc := range []<-chan error{a, b} {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	if peak > 2 {
		t.Fatalf("%d specs executed at once on a 2-worker daemon", peak)
	}
	if runs := metric(t, ts, "sgxgauged_runs_total"); runs != 4 {
		t.Errorf("runs_total = %g, want 4", runs)
	}
}
