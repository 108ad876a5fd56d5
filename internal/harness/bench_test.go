package harness

import (
	"testing"

	"sgxgauge/internal/sgx"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// BenchmarkRunAllLibOS times one cold batch of four LibOS runs at EPC
// 1024 — Empty, OpenSSL, Memcached and Iozone at Low — on a fresh
// Runner per iteration, so every iteration boots and simulates from
// scratch. The four specs share one boot key, so the batch boots once
// and runs each spec on a clone; BenchmarkLibOSBoot (internal/libos)
// times a single boot.
func BenchmarkRunAllLibOS(b *testing.B) {
	var specs []Spec
	for _, name := range []string{"Empty", "OpenSSL", "Memcached", "Iozone"} {
		w, err := suite.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		specs = append(specs, Spec{Workload: w, Mode: sgx.LibOS, Size: workloads.Low})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunner(1024)
		r.Seed = 1
		results, err := r.RunAll(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, res := range results {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
}
