package store

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"

	"sgxgauge/internal/harness"
)

// FuzzStoreDecodeEntry: decoding an entry file never panics, and every
// entry that decodes reaches a fixed point: encoding it in the envelope
// Put writes, decoding that and encoding again reproduces the first
// encoding.
func FuzzStoreDecodeEntry(f *testing.F) {
	key, res := testResult(f)
	s, err := Open(f.TempDir(), Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := s.Put(key, res); err != nil {
		f.Fatal(err)
	}
	entry, err := os.ReadFile(s.path(key))
	if err != nil {
		f.Fatal(err)
	}
	// encode renders an entry file the way Put does; the real entry
	// pins that it does.
	encode := func(t testing.TB, k harness.Key, res *harness.Result) []byte {
		data, err := json.Marshal(envelope{Format: formatVersion, Key: k.String(), Result: res.Wire()})
		if err != nil {
			t.Fatalf("decoded entry does not encode: %v", err)
		}
		return append(data, '\n')
	}
	if !bytes.Equal(encode(f, key, res), entry) {
		f.Fatalf("Put wrote a different entry:\n%s", entry)
	}
	f.Add(key.String(), entry)
	f.Add(harness.Key{1}.String(), entry)
	f.Add(key.String(), entry[:len(entry)/2])
	f.Add(key.String(), bytes.Replace(entry, []byte(`"format":1`), []byte(`"format":2`), 1))
	f.Add(key.String(), bytes.Replace(entry, []byte(`{"format":1`), []byte(`{"extra":0,"format":1`), 1))
	f.Add(key.String(), []byte(`{"format":1,"key":"`+key.String()+`","result":{}}`))

	f.Fuzz(func(t *testing.T, keyHex string, data []byte) {
		k, err := harness.ParseKey(keyHex)
		if err != nil {
			return
		}
		res, err := decodeEntry(k, data)
		if err != nil {
			return
		}
		first := encode(t, k, res)
		res2, err := decodeEntry(k, first)
		if err != nil {
			t.Fatalf("re-encoded entry does not decode: %v\n%s", err, first)
		}
		again := encode(t, k, res2)
		if !bytes.Equal(first, again) {
			t.Fatalf("encoding is not a fixed point:\n %s\n %s", first, again)
		}
	})
}
