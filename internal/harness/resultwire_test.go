package harness

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// TestResultWireRoundTrip: a real run's Result survives
// Encode/Decode bit-for-bit — every counter, op-stat and output
// field — so a result served from the persistent store or shipped
// back by a cluster worker is indistinguishable from a fresh run.
func TestResultWireRoundTrip(t *testing.T) {
	r := NewRunner(256)
	r.Seed = 7
	for _, mode := range []sgx.Mode{sgx.Vanilla, sgx.LibOS} {
		res, err := r.Run(Spec{Workload: suite.Empty(), Mode: mode, Size: workloads.Low, Timeline: 64})
		if err != nil || res.Err != nil {
			t.Fatalf("%v run: %v / %v", mode, err, res.Err)
		}
		data, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("%v encode: %v", mode, err)
		}
		back, err := DecodeResult(data)
		if err != nil {
			t.Fatalf("%v decode: %v", mode, err)
		}
		if want := scrubEmpty(res); !reflect.DeepEqual(want, back) {
			t.Errorf("%v: decoded result differs:\n got %#v\nwant %#v", mode, back, want)
		}
		// Canonical: re-encoding the decoded result reproduces the bytes.
		again, err := EncodeResult(back)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, again) {
			t.Errorf("%v: re-encoding is not canonical:\n %s\n %s", mode, data, again)
		}
	}
}

// scrubEmpty maps empty collections to nil, the canonical form the
// wire encoding preserves (absence and emptiness are equivalent).
func scrubEmpty(r *Result) *Result {
	c := *r
	if len(c.Params.Knobs) == 0 {
		c.Params.Knobs = nil
	}
	if len(c.Output.Extra) == 0 {
		c.Output.Extra = nil
	}
	if len(c.Timeline) == 0 {
		c.Timeline = nil
	}
	if len(c.OpStats) == 0 {
		c.OpStats = nil
	}
	return &c
}

// TestResultWireError: a failed result's error flattens to its
// message and comes back as a plain error.
func TestResultWireError(t *testing.T) {
	res := &Result{Name: "X", Mode: sgx.Native, Err: errors.New("boom"), Attempts: 2}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != "boom" {
		t.Fatalf("decoded error = %v, want boom", back.Err)
	}
	if back.Attempts != 2 {
		t.Fatalf("Attempts = %d, want 2", back.Attempts)
	}
}

// TestDecodeResultRejectsForeign: entries naming counters, operations
// or fields this build does not define are decode errors (the store
// quarantines them), never silently misfiled data.
func TestDecodeResultRejectsForeign(t *testing.T) {
	cases := []struct{ name, data string }{
		{"unknown-field", `{"name":"X","mode":"Native","params":{"size":"Low"},"cycles":1,"output":{},"attempts":1,"bogus":1}`},
		{"unknown-counter", `{"name":"X","mode":"Native","params":{"size":"Low"},"cycles":1,"counters":{"no-such-event":3},"output":{},"attempts":1}`},
		{"unknown-op", `{"name":"X","mode":"Native","params":{"size":"Low"},"cycles":1,"output":{},"op_stats":{"sgx_frobnicate":{}},"attempts":1}`},
		{"not-json", `{"name":`},
	}
	for _, c := range cases {
		if _, err := DecodeResult([]byte(c.data)); err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
	}
}

// FuzzResultWire: decoding arbitrary bytes as a result never panics,
// and anything that decodes reaches its canonical form in one round:
// decode → encode → decode → encode reproduces the first encoding and
// the same Result.
func FuzzResultWire(f *testing.F) {
	res, err := runOne(Spec{Workload: suite.Empty(), Mode: sgx.LibOS, Size: workloads.Low, EPCPages: 64, Seed: 1, Timeline: 512})
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range []*Result{res, {Name: "BTree", Mode: sgx.Native, Err: errors.New("harness: boom"), Attempts: 2}} {
		data, err := EncodeResult(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"name":"x","mode":"vanilla","params":{"size":"Low","knobs":{}},"cycles":1,"counters":{"accesses":0},"output":{"Checksum":0,"Ops":0,"MeanLatency":0,"Extra":{}},"timeline":[],"attempts":0}`))
	f.Add([]byte(`{"name":"x","mode":"LibOS","op_stats":{"sgx_ewb":{"Samples":1}},"attempts":1} trailing`))
	f.Add([]byte(`{"counters":{"no-such-counter":1}}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		first, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc, err := EncodeResult(first)
		if err != nil {
			t.Fatalf("decoded result does not encode: %v", err)
		}
		second, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("canonical encoding does not decode: %v\n%s", err, enc)
		}
		again, err := EncodeResult(second)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, again) {
			t.Fatalf("encoding is not a fixed point:\n %s\n %s", enc, again)
		}
		third, err := DecodeResult(again)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(second, third) {
			t.Fatalf("decoding is not a fixed point:\n %#v\n %#v", second, third)
		}
	})
}
