package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// encodeResultLine is the worker side of the results stream: one
// NDJSON line for a decoded key/result or key/failure pair.
func encodeResultLine(t *testing.T, key harness.Key, res *harness.Result, failed string) []byte {
	t.Helper()
	line := resultLine{Key: key.String(), Failed: failed}
	if res != nil {
		line.Result = res.Wire()
	}
	data, err := json.Marshal(line)
	if err != nil {
		t.Fatalf("decoded line does not encode: %v", err)
	}
	return append(data, '\n')
}

// FuzzResultLineDecoder: the coordinator's decoder of worker result
// posts never panics, ends every malformed or oversized line in an
// error instead of hanging or skipping it, and reaches a fixed point
// on every line it accepts: decode → encode → decode → encode
// reproduces the first encoding.
func FuzzResultLineDecoder(f *testing.F) {
	s := New(Config{EPCPages: 64, Seed: 1})
	spec := harness.Spec{Workload: suite.Empty(), Size: workloads.Low}
	res, err := s.runner.Run(spec)
	if err != nil || res.Err != nil {
		f.Fatal(err, res.Err)
	}
	key, err := s.runner.Key(spec)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(resultLine{Key: key.String(), Result: res.Wire()})
	if err != nil {
		f.Fatal(err)
	}
	failed, err := json.Marshal(resultLine{Key: key.String(), Failed: "worker crashed"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(append(append(append(good, '\n'), failed...), '\n'))
	f.Add([]byte("\n  \n" + string(failed)))
	f.Add([]byte(`{"key":"00","result":{}}`))
	f.Add([]byte(`{"key":"` + key.String() + `","result":{"counters":{"no-such-counter":1}}}`))
	f.Add([]byte(`{"key":"` + key.String() + `","extra":1}`))
	f.Add([]byte(`{"key":`))

	// An oversized line is an error, not a hang or a silent skip.
	big := append([]byte(`{"key":"`), bytes.Repeat([]byte("a"), maxResultLine)...)
	if _, _, _, err := newResultLineDecoder(bytes.NewReader(big)).next(); err == nil || !strings.Contains(err.Error(), "limit") {
		f.Fatalf("oversized line: err = %v, want the line-limit error", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := newResultLineDecoder(bytes.NewReader(data))
		// Every call consumes at least one line, so a stream of n
		// bytes ends within n+1 calls.
		for calls := 0; ; calls++ {
			if calls > len(data)+1 {
				t.Fatal("decoder did not reach the end of a finite stream")
			}
			key, res, failed, err := dec.next()
			if errors.Is(err, errDecodeDone) {
				return
			}
			if err != nil {
				return
			}
			if (res == nil) == (failed == "") {
				t.Fatalf("line decoded to result %v and failure %q; want exactly one", res, failed)
			}
			first := encodeResultLine(t, key, res, failed)
			key2, res2, failed2, err := newResultLineDecoder(bytes.NewReader(first)).next()
			if err != nil {
				t.Fatalf("canonical line does not decode: %v\n%s", err, first)
			}
			if key2 != key || failed2 != failed {
				t.Fatalf("round trip changed key/failure: %s %q -> %s %q", key, failed, key2, failed2)
			}
			if again := encodeResultLine(t, key2, res2, failed2); !bytes.Equal(first, again) {
				t.Fatalf("encoding is not a fixed point:\n %s\n %s", first, again)
			}
		}
	})
}
