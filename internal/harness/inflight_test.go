package harness

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// seeded returns a cheap Vanilla spec whose key is a function of seed.
func seeded(seed int64) Spec {
	return Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: testEPC, Seed: seed}
}

// fakeExec is a Runner.Exec stand-in that counts executions per seed
// and, while gated, holds every execution whose seed hold selects
// until release is called.
type fakeExec struct {
	hold func(seed int64) bool
	fail bool // results carry a spec failure

	gate     chan struct{}
	openGate sync.Once

	mu      sync.Mutex
	calls   map[int64]int // guarded by mu
	running int           // guarded by mu
	peak    int           // guarded by mu
}

func newFakeExec(hold func(int64) bool) *fakeExec {
	return &fakeExec{hold: hold, gate: make(chan struct{}), calls: map[int64]int{}}
}

func (f *fakeExec) exec(spec Spec) (*Result, error) {
	f.mu.Lock()
	f.calls[spec.Seed]++
	f.running++
	f.peak = max(f.peak, f.running)
	f.mu.Unlock()
	if f.hold == nil || f.hold(spec.Seed) {
		<-f.gate
	}
	f.mu.Lock()
	f.running--
	f.mu.Unlock()
	res := &Result{Name: spec.WorkloadName(), Mode: spec.Mode, Cycles: uint64(spec.Seed), Attempts: 1}
	if f.fail {
		res.Err = errors.New("harness: fake failure")
	}
	return res, nil
}

func (f *fakeExec) release() { f.openGate.Do(func() { close(f.gate) }) }

func (f *fakeExec) count(seed int64) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls[seed]
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// batchOut is one background RunAll's outcome.
type batchOut struct {
	res []*Result
	err error
}

// runAsync starts r.RunAll(specs, opts...) in the background.
func runAsync(r *Runner, specs []Spec, opts ...Option) <-chan batchOut {
	c := make(chan batchOut, 1)
	go func() {
		res, err := r.RunAll(specs, opts...)
		c <- batchOut{res, err}
	}()
	return c
}

func joinedCount(r *Runner) int {
	_, n, _ := r.Stats()
	return int(n)
}

// TestRunAllJoinsAcrossBatches: two concurrent batches with
// overlapping keys execute each key once and hand both batches the
// same *Result per key.
func TestRunAllJoinsAcrossBatches(t *testing.T) {
	f := newFakeExec(nil)
	r := NewRunner(testEPC)
	r.Jobs = 4
	r.Exec = f.exec
	a := runAsync(r, []Spec{seeded(1), seeded(2), seeded(3)})
	b := runAsync(r, []Spec{seeded(2), seeded(3), seeded(4)})
	// Whichever batch claims first leads seeds 2 and 3; the other
	// joins them.
	waitFor(t, "two joined keys", func() bool { return joinedCount(r) == 2 })
	f.release()
	ra, rb := <-a, <-b
	if ra.err != nil || rb.err != nil {
		t.Fatalf("engine errors: %v, %v", ra.err, rb.err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		if n := f.count(seed); n != 1 {
			t.Errorf("seed %d executed %d times, want 1", seed, n)
		}
	}
	if ra.res[1] != rb.res[0] || ra.res[2] != rb.res[1] {
		t.Error("the batches got different *Result pointers for a shared key")
	}
	if executed, _, busy := r.Stats(); executed != 4 || busy != 0 {
		t.Errorf("Stats: executed %d, busy %d; want 4, 0", executed, busy)
	}
}

// TestRunAllCrosswiseNoDeadlock: batches over the same keys in
// opposite orders, on one worker and one slot each, all finish — a
// batch runs every key it leads before it waits on keys it joined.
func TestRunAllCrosswiseNoDeadlock(t *testing.T) {
	for round := 0; round < 20; round++ {
		f := newFakeExec(func(int64) bool { return false })
		r := NewRunner(testEPC)
		r.Jobs = 1
		r.Exec = f.exec
		fwd := []Spec{seeded(1), seeded(2), seeded(3), seeded(4)}
		rev := []Spec{seeded(4), seeded(3), seeded(2), seeded(1)}
		outs := []<-chan batchOut{
			runAsync(r, fwd, Workers(1)),
			runAsync(r, rev, Workers(1)),
			runAsync(r, fwd[1:3], Workers(1)),
			runAsync(r, rev[:2], Workers(1)),
		}
		timeout := time.After(10 * time.Second)
		for _, c := range outs {
			select {
			case out := <-c:
				if out.err != nil {
					t.Fatal(out.err)
				}
			case <-timeout:
				t.Fatalf("round %d: crosswise batches deadlocked", round)
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			if n := f.count(seed); n != 1 {
				t.Fatalf("round %d: seed %d executed %d times, want 1", round, seed, n)
			}
		}
	}
}

// TestRunAllJoinerOutlivesLeaderCancel: a joiner never inherits the
// leader's batch cancellation — when the leader's context ends before
// the joined spec starts, the joiner runs the spec itself and gets a
// clean result.
func TestRunAllJoinerOutlivesLeaderCancel(t *testing.T) {
	f := newFakeExec(func(seed int64) bool { return seed == 1 })
	r := NewRunner(testEPC)
	r.Jobs = 1
	r.Exec = f.exec
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The leader executes seed 1 (held) and queues seed 2 behind it.
	leader := runAsync(r, []Spec{seeded(1), seeded(2)}, Workers(1), WithContext(ctx))
	waitFor(t, "the leader to start", func() bool { return f.count(1) == 1 })
	joiner := runAsync(r, []Spec{seeded(2)})
	waitFor(t, "the joiner to join", func() bool { return joinedCount(r) == 1 })
	cancel()
	f.release()

	lo := <-leader
	if !errors.Is(lo.err, context.Canceled) || !errors.Is(lo.res[1].Err, context.Canceled) {
		t.Fatalf("leader: engine error %v, seed 2 error %v; want context.Canceled for both", lo.err, lo.res[1].Err)
	}
	jo := <-joiner
	if jo.err != nil || jo.res[0].Err != nil || jo.res[0].Cycles != 2 {
		t.Fatalf("joiner: engine error %v, result %+v; want its own clean run", jo.err, jo.res[0])
	}
	if n := f.count(2); n != 1 {
		t.Fatalf("seed 2 executed %d times, want once (by the joiner)", n)
	}
}

// TestRunAllJoinerSharesFailure: a joiner gets the leader's failed
// result as is, and the failure is not cached — a later batch
// executes the spec again.
func TestRunAllJoinerSharesFailure(t *testing.T) {
	f := newFakeExec(nil)
	f.fail = true
	r := NewRunner(testEPC)
	r.Exec = f.exec
	leader := runAsync(r, []Spec{seeded(5)})
	waitFor(t, "the leader to start", func() bool { return f.count(5) == 1 })
	joiner := runAsync(r, []Spec{seeded(5)})
	waitFor(t, "the joiner to join", func() bool { return joinedCount(r) == 1 })
	f.release()
	lo, jo := <-leader, <-joiner
	if lo.res[0].Err == nil || jo.res[0] != lo.res[0] {
		t.Fatalf("joiner got %+v, want the leader's failed result %+v", jo.res[0], lo.res[0])
	}
	key, err := r.Key(seeded(5))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Cache.Get(key); ok {
		t.Fatal("a failed result was cached")
	}
	if _, err := r.Run(seeded(5)); err != nil {
		t.Fatal(err)
	}
	if n := f.count(5); n != 2 {
		t.Fatalf("seed 5 executed %d times after a failure, want 2", n)
	}
}

// TestRunAllJoinedProgress: a joined spec reports exactly one progress
// event, not marked Cached, once its leader finishes, and the
// joiner's Completed/Total stay exact.
func TestRunAllJoinedProgress(t *testing.T) {
	f := newFakeExec(func(seed int64) bool { return seed == 6 })
	r := NewRunner(testEPC)
	r.Exec = f.exec
	warm := seeded(8)
	if _, err := r.Run(warm); err != nil {
		t.Fatal(err)
	}
	leader := runAsync(r, []Spec{seeded(6)})
	waitFor(t, "the leader to start", func() bool { return f.count(6) == 1 })

	var events []Progress
	joiner := runAsync(r, []Spec{seeded(7), seeded(6), warm, seeded(6)},
		ProgressCached(), OnProgress(func(p Progress) { events = append(events, p) }))
	waitFor(t, "the joiner to join", func() bool { return joinedCount(r) == 1 })
	f.release()
	<-leader
	if out := <-joiner; out.err != nil {
		t.Fatal(out.err)
	}

	// One event per distinct spec: the cache hit, the joiner's own run
	// and the joined spec, numbered 1..3 of 3.
	var joined []Progress
	for i, p := range events {
		if p.Completed != i+1 || p.Total != 3 {
			t.Errorf("event %d: Completed/Total = %d/%d, want %d/3", i, p.Completed, p.Total, i+1)
		}
		if p.Index == 1 || p.Index == 3 {
			joined = append(joined, p)
		}
	}
	if len(events) != 3 {
		t.Fatalf("got %d progress events, want 3: %+v", len(events), events)
	}
	if len(joined) != 1 || joined[0].Index != 1 || joined[0].Cached {
		t.Fatalf("joined spec's events = %+v, want one uncached event at index 1", joined)
	}
	if events[0].Index != 2 || !events[0].Cached {
		t.Errorf("first event = %+v, want the cache hit at index 2", events[0])
	}
}

// TestRunAllSlotBound: executions from concurrent batches never exceed
// the runner's Jobs slots, whatever each batch's Workers.
func TestRunAllSlotBound(t *testing.T) {
	f := newFakeExec(nil)
	r := NewRunner(testEPC)
	r.Jobs = 2
	r.Exec = f.exec
	var outs []<-chan batchOut
	for b := int64(0); b < 3; b++ {
		outs = append(outs, runAsync(r, []Spec{seeded(10*b + 1), seeded(10*b + 2), seeded(10*b + 3)}, Workers(3)))
	}
	waitFor(t, "both slots busy", func() bool {
		_, _, busy := r.Stats()
		return busy == 2
	})
	// Give a third execution every chance to start before releasing.
	time.Sleep(20 * time.Millisecond)
	f.release()
	for _, c := range outs {
		if out := <-c; out.err != nil {
			t.Fatal(out.err)
		}
	}
	f.mu.Lock()
	peak := f.peak
	f.mu.Unlock()
	if peak != 2 {
		t.Fatalf("%d executions ran at once, want the Jobs bound of 2", peak)
	}
	if executed, _, busy := r.Stats(); executed != 9 || busy != 0 {
		t.Fatalf("Stats: executed %d, busy %d; want 9, 0", executed, busy)
	}
}
