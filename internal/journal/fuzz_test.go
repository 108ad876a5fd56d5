package journal

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"sgxgauge/internal/harness"
)

// FuzzJournalParseJob: parsing a job file never panics, and every
// state it yields survives compaction: the records compact writes for
// it parse back, with no bad record, to the same state, finished.
func FuzzJournalParseJob(f *testing.F) {
	j := mustOpen(f, f.TempDir(), Options{})
	job := Job{ID: "j-fuzz", Kind: "sweep", CreatedUnix: 1, Specs: []harness.SpecWire{testSpecWire(f, 1), testSpecWire(f, 2)}}
	if err := j.Begin(job); err != nil {
		f.Fatal(err)
	}
	if err := j.Task(job.ID, TaskDone{Index: 1, Key: testKey(f, 2)}); err != nil {
		f.Fatal(err)
	}
	if err := j.Task(job.ID, TaskDone{Index: 0, Key: testKey(f, 1), Error: "boom"}); err != nil {
		f.Fatal(err)
	}
	open, err := os.ReadFile(j.jobPath(job.ID))
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Finish(job.ID, "job failed"); err != nil {
		f.Fatal(err)
	}
	compacted, err := os.ReadFile(j.jobPath(job.ID))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(open)
	f.Add(compacted)
	f.Add(open[:len(open)-7])
	f.Add(append(append([]byte(nil), open...), open...))
	f.Add(bytes.Replace(open, []byte(`"format":1`), []byte(`"format":2`), 1))
	f.Add([]byte("{\"format\":1,\"type\":\"task\",\"index\":3}\nnot json\n"))

	// Compaction runs for real, on a job file in a journal of its own.
	cj := mustOpen(f, f.TempDir(), Options{})
	path := cj.jobPath("j-compact")
	f.Fuzz(func(t *testing.T, data []byte) {
		state, _ := parseJob(data)
		if state == nil {
			return
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cj.compact("j-compact"); err != nil {
			t.Fatalf("parsed job does not compact: %v", err)
		}
		records, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		again, bad := parseJob(records)
		if bad != 0 {
			t.Fatalf("compacted records have %d bad records:\n%s", bad, records)
		}
		if again == nil {
			t.Fatalf("compacted records have no job header:\n%s", records)
		}
		want := *state
		want.Finished = true // compact writes a finished job
		// JSON cannot tell an empty spec list from an absent one, so
		// the states are compared through their JSON encodings.
		gotJSON, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("compaction changed the state:\n got %s\nwant %s\n%s", gotJSON, wantJSON, records)
		}
	})
}
