package mee_test

import (
	"testing"

	"sgxgauge/internal/mee"
	"sgxgauge/internal/mem"
)

// BenchmarkMEESealPage measures sealing one 4 KiB page (AES-CTR +
// HMAC-SHA-256).
func BenchmarkMEESealPage(b *testing.B) {
	e := mee.New(1)
	var f mem.Frame
	id := mem.PageID{Enclave: 1, VPN: 7}
	b.SetBytes(mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.SealPage(id, uint64(i+1), &f)
	}
}
