package epc_test

import (
	"testing"

	"sgxgauge/internal/cycles"
	"sgxgauge/internal/epc"
	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
)

// BenchmarkEPCFaultLoadBack measures a full evict/load-back cycle.
func BenchmarkEPCFaultLoadBack(b *testing.B) {
	counters := &perf.Counters{}
	e := epc.New(32, mee.New(1), mem.NewBackingStore(), counters)
	clk := &cycles.Clock{}
	costs := cycles.DefaultCosts()
	// Over-subscribe so every round-robin touch faults.
	ids := make([]mem.PageID, 64)
	for i := range ids {
		ids[i] = mem.PageID{Enclave: 1, VPN: uint64(i)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		if _, ok := e.Lookup(id); !ok {
			if _, _, err := e.Fault(clk, &costs, id); err != nil {
				b.Fatal(err)
			}
		}
	}
}
