package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"
)

// span is one traced call the benchmark made into a layer: its name,
// when it ran relative to the start of the run, and the span that
// caused it (0 for none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory while on and folds CPU profiles of the
// traced stretches of a run. A tracer that is off records nothing.
type tracer struct {
	on bool
	t0 time.Time

	mu    sync.Mutex
	spans []span // guarded by mu

	profile    *fold
	profileBuf bytes.Buffer
	rawProfile [][]byte
	memBefore  runtime.MemStats
	allocMB    float64
	gcPauseMS  float64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, profile: newFold()}
}

// add appends sp and returns its ID (0 when off).
func (t *tracer) add(sp span) int {
	if t == nil || !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp.ID = len(t.spans) + 1
	t.spans = append(t.spans, sp)
	return sp.ID
}

// record adds a finished span and returns its ID (0 when off).
func (t *tracer) record(name string, parent int, start, end time.Time) int {
	return t.add(span{Parent: parent, Name: name, Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// begin opens a span that end closes; children may name its ID as
// their parent in between.
func (t *tracer) begin(name string, parent int) int {
	return t.add(span{Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = time.Since(t.t0).Seconds()
	t.mu.Unlock()
}

// start turns tracing on: spans are kept and a CPU profile runs until
// stop. Heap and GC statistics are taken over the same stretch.
func (t *tracer) start() error {
	t.on = true
	runtime.ReadMemStats(&t.memBefore)
	t.profileBuf.Reset()
	return pprof.StartCPUProfile(&t.profileBuf)
}

// stop ends the traced stretch and folds its profile.
func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	t.on = false
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	t.allocMB += float64(after.TotalAlloc-t.memBefore.TotalAlloc) / (1 << 20)
	t.gcPauseMS += float64(after.PauseTotalNs-t.memBefore.PauseTotalNs) / 1e6
	data := append([]byte(nil), t.profileBuf.Bytes()...)
	t.rawProfile = append(t.rawProfile, data)
	samples, err := decodeProfile(data)
	if err != nil {
		return err
	}
	t.profile.add(samples)
	return nil
}

// write saves the spans and every CPU profile under dir, for
// inspection with any JSON reader and `go tool pprof`.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.MarshalIndent(t.spans, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "spans.json"), data, 0o644); err != nil {
		return err
	}
	for i, p := range t.rawProfile {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", i)), p, 0o644); err != nil {
			return err
		}
	}
	return nil
}
