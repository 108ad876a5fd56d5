package journal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

func testSpecWire(t testing.TB, seed int64) harness.SpecWire {
	t.Helper()
	w, err := harness.Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: 1024, Seed: seed}.Wire()
	if err != nil {
		t.Fatalf("Wire: %v", err)
	}
	return w
}

func testKey(t testing.TB, seed int64) string {
	t.Helper()
	k, err := harness.SpecKey(harness.Spec{Workload: suite.Empty(), Mode: sgx.Vanilla, Size: workloads.Low, EPCPages: 1024, Seed: seed})
	if err != nil {
		t.Fatalf("SpecKey: %v", err)
	}
	return k.String()
}

func mustOpen(t testing.TB, dir string, opts Options) *Journal {
	t.Helper()
	j, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})

	job := Job{
		ID:          "j-roundtrip",
		Kind:        "sweep",
		CreatedUnix: 100,
		Specs:       []harness.SpecWire{testSpecWire(t, 1), testSpecWire(t, 2), testSpecWire(t, 3)},
	}
	if err := j.Begin(job); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := j.Task(job.ID, TaskDone{Index: 0, Key: testKey(t, 1)}); err != nil {
		t.Fatalf("Task: %v", err)
	}
	if err := j.Task(job.ID, TaskDone{Index: 2, Key: testKey(t, 3), Error: "boom"}); err != nil {
		t.Fatalf("Task: %v", err)
	}

	// Reopen cold, as a restart would.
	j2 := mustOpen(t, dir, Options{})
	states, err := j2.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(states) != 1 {
		t.Fatalf("Replay returned %d jobs, want 1", len(states))
	}
	st := states[0]
	if st.Finished {
		t.Fatalf("job marked finished without a done record")
	}
	if st.Job.ID != job.ID || st.Job.Kind != "sweep" || len(st.Job.Specs) != 3 {
		t.Fatalf("job header mangled: %+v", st.Job)
	}
	if len(st.Done) != 2 {
		t.Fatalf("got %d done tasks, want 2", len(st.Done))
	}
	if st.Done[0].Key != testKey(t, 1) {
		t.Fatalf("task 0 key = %q", st.Done[0].Key)
	}
	if st.Done[2].Error != "boom" {
		t.Fatalf("task 2 error = %q, want boom", st.Done[2].Error)
	}
	if got := j2.Stats().Replayed; got != 1 {
		t.Fatalf("replayed counter = %d, want 1", got)
	}
	// Round-tripped specs must resolve back to runnable specs.
	if _, err := st.Job.Specs[0].Spec(); err != nil {
		t.Fatalf("replayed spec does not resolve: %v", err)
	}
}

func TestJournalTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	job := Job{ID: "j-torn", Kind: "sweep", CreatedUnix: 1, Specs: []harness.SpecWire{testSpecWire(t, 1)}}
	if err := j.Begin(job); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := j.Task(job.ID, TaskDone{Index: 0, Key: testKey(t, 1)}); err != nil {
		t.Fatalf("Task: %v", err)
	}
	// Simulate a crash mid-append: half a record, no newline.
	f, err := os.OpenFile(filepath.Join(dir, "jobs", "j-torn.ndjson"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := f.WriteString(`{"format":1,"type":"task","ind`); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	j2 := mustOpen(t, dir, Options{})
	states, err := j2.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(states) != 1 || len(states[0].Done) != 1 {
		t.Fatalf("torn tail corrupted replay: %d jobs", len(states))
	}
	if got := j2.Stats().Quarantined; got != 0 {
		t.Fatalf("torn tail counted as quarantined (%d); it is the expected crash artifact", got)
	}
}

func TestJournalCorruptRecordQuarantined(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	job := Job{ID: "j-corrupt", Kind: "sweep", CreatedUnix: 1, Specs: []harness.SpecWire{testSpecWire(t, 1), testSpecWire(t, 2)}}
	if err := j.Begin(job); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	if err := j.Task(job.ID, TaskDone{Index: 0, Key: testKey(t, 1)}); err != nil {
		t.Fatalf("Task: %v", err)
	}
	path := filepath.Join(dir, "jobs", "j-corrupt.ndjson")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// A fully-written garbage line and a wrong-format line, both
	// newline-terminated: mid-file corruption, not a torn tail.
	if _, err := f.WriteString("{not json}\n{\"format\":99,\"type\":\"task\",\"index\":1}\n"); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := j.Task(job.ID, TaskDone{Index: 1, Key: testKey(t, 2)}); err != nil {
		t.Fatalf("Task after corruption: %v", err)
	}

	j2 := mustOpen(t, dir, Options{})
	states, err := j2.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(states) != 1 || len(states[0].Done) != 2 {
		t.Fatalf("corrupt records broke surrounding replay: %+v", states)
	}
	if got := j2.Stats().Quarantined; got != 2 {
		t.Fatalf("quarantined counter = %d, want 2", got)
	}
}

func TestJournalUnreadableFileQuarantined(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	good := Job{ID: "j-good", Kind: "run", CreatedUnix: 2, Specs: []harness.SpecWire{testSpecWire(t, 1)}}
	if err := j.Begin(good); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// A job file with no readable header at all.
	bad := filepath.Join(dir, "jobs", "j-bad.ndjson")
	if err := os.WriteFile(bad, []byte("garbage\n"), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	states, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(states) != 1 || states[0].Job.ID != "j-good" {
		t.Fatalf("replay states = %+v, want only j-good", states)
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("bad file still in jobs/: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", "j-bad.ndjson")); err != nil {
		t.Fatalf("bad file not quarantined: %v", err)
	}
}

func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	job := Job{ID: "j-compact", Kind: "sweep", CreatedUnix: 1, Specs: []harness.SpecWire{testSpecWire(t, 1), testSpecWire(t, 2)}}
	if err := j.Begin(job); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Duplicate task records, as a crash-replay overlap would produce.
	for i := 0; i < 3; i++ {
		if err := j.Task(job.ID, TaskDone{Index: 0, Key: testKey(t, 1)}); err != nil {
			t.Fatalf("Task: %v", err)
		}
		if err := j.Task(job.ID, TaskDone{Index: 1, Key: testKey(t, 2)}); err != nil {
			t.Fatalf("Task: %v", err)
		}
	}
	if err := j.Finish(job.ID, ""); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "j-compact.ndjson"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 4 { // job + 2 tasks + done
		t.Fatalf("compacted file has %d lines, want 4:\n%s", len(lines), data)
	}

	j2 := mustOpen(t, dir, Options{})
	states, err := j2.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(states) != 1 || !states[0].Finished || len(states[0].Done) != 2 {
		t.Fatalf("compacted job replays wrong: %+v", states[0])
	}
	if got := j2.Stats().Replayed; got != 0 {
		t.Fatalf("finished job counted as replayed (%d)", got)
	}
}

func TestJournalPruneFinished(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{KeepFinished: 2})
	ids := []string{"j-a", "j-b", "j-c", "j-d"}
	for i, id := range ids {
		job := Job{ID: id, Kind: "run", CreatedUnix: int64(i + 1), Specs: []harness.SpecWire{testSpecWire(t, int64(i + 1))}}
		if err := j.Begin(job); err != nil {
			t.Fatalf("Begin %s: %v", id, err)
		}
		if id != "j-d" { // j-d stays unfinished
			if err := j.Finish(id, ""); err != nil {
				t.Fatalf("Finish %s: %v", id, err)
			}
		}
	}
	states, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	var got []string
	for _, s := range states {
		got = append(got, s.Job.ID)
	}
	// Oldest finished (j-a) pruned; unfinished j-d always survives.
	want := []string{"j-b", "j-c", "j-d"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("surviving jobs = %v, want %v", got, want)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "j-a.ndjson")); !os.IsNotExist(err) {
		t.Fatalf("pruned job file still present: %v", err)
	}
}

func TestJournalPoisonRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	spec := testSpecWire(t, 9)
	key := testKey(t, 9)
	rec := PoisonRecord{Key: key, Spec: &spec, Attempts: []string{"routed to w1", "worker w1 expired"}}
	if err := j.Poison(rec); err != nil {
		t.Fatalf("Poison: %v", err)
	}
	if err := j.Poison(PoisonRecord{Key: "zz-not-a-key"}); err == nil {
		t.Fatalf("Poison accepted an invalid key")
	}

	j2 := mustOpen(t, dir, Options{})
	got := j2.Poisoned()
	if len(got) != 1 {
		t.Fatalf("reloaded %d poison records, want 1", len(got))
	}
	p, ok := got[key]
	if !ok || len(p.Attempts) != 2 || p.Spec == nil || p.Spec.Workload != spec.Workload {
		t.Fatalf("poison record mangled: %+v", p)
	}
	if j2.Stats().Poisoned != 1 {
		t.Fatalf("poisoned stat = %d, want 1", j2.Stats().Poisoned)
	}
}

func TestJournalRejectsBadIDs(t *testing.T) {
	j := mustOpen(t, t.TempDir(), Options{})
	for _, id := range []string{"", "UPPER", "a/b", "../etc", strings.Repeat("x", 65)} {
		if err := j.Begin(Job{ID: id, Kind: "run"}); err == nil {
			t.Fatalf("Begin accepted id %q", id)
		}
		if err := j.Task(id, TaskDone{}); err == nil {
			t.Fatalf("Task accepted id %q", id)
		}
	}
	if err := j.Begin(Job{ID: "j-nokind"}); err == nil {
		t.Fatalf("Begin accepted a job without a kind")
	}
}

func TestJournalMismatchedHeaderQuarantined(t *testing.T) {
	dir := t.TempDir()
	j := mustOpen(t, dir, Options{})
	if err := j.Begin(Job{ID: "j-real", Kind: "run", CreatedUnix: 1}); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	// Copy the valid file under a different name: header names j-real,
	// file claims j-fake.
	data, err := os.ReadFile(filepath.Join(dir, "jobs", "j-real.ndjson"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "jobs", "j-fake.ndjson"), data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	states, err := j.Replay()
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(states) != 1 || states[0].Job.ID != "j-real" {
		t.Fatalf("mismatched-header file not quarantined: %+v", states)
	}
}
