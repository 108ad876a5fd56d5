// Micro-benchmarks of the simulated access path and enclave
// transitions: the host cost of one simulated access, extent, bulk
// copy or boundary crossing.
package sgx_test

import (
	"fmt"
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/sgx"
)

// BenchmarkSpaceReadU64 measures one simulated 8-byte enclave read
// through the full dTLB/LLC/EPC path.
func BenchmarkSpaceReadU64(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	addr := env.MustAlloc(64*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, 64*mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadU64(addr + uint64(i%(64*mem.PageSize/8))*8)
	}
}

// BenchmarkAccessPage measures the simulator's per-access hot path on
// its most common shape: a sequential line-strided sweep over an
// enclave buffer, where consecutive accesses stay on the same page in
// runs of 64 (the same-page streak the fast path memoizes).
func BenchmarkAccessPage(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	span := uint64(pages * mem.PageSize / mem.LineSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadU64(addr + (uint64(i)%span)*mem.LineSize)
	}
}

// BenchmarkAccessPageStride is the memoization-hostile counterpart:
// every access lands on a different page, so each one pays the full
// page-resolution path.
func BenchmarkAccessPageStride(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ReadU64(addr + (uint64(i)%pages)*mem.PageSize)
	}
}

// BenchmarkExtentRead measures the compiled access-stream path on the
// same shape as BenchmarkAccessPage — a line-strided sweep over an
// enclave buffer — but issued as one Extent per page-sized run
// instead of 64 individual ReadU64 calls. The acceptance bar for the
// extent compiler is ≥2x BenchmarkAccessPage per simulated access;
// b.N counts simulated accesses so the two ns/op are comparable.
func BenchmarkExtentRead(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	const perPage = mem.PageSize / mem.LineSize // line-strided accesses per page
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	buf := make([]uint64, perPage)
	b.ResetTimer()
	for i := 0; i < b.N; i += perPage {
		page := (uint64(i) / perPage) % pages
		tr.RunExtent(sgx.Extent{
			Addr:   addr + page*mem.PageSize,
			Stride: mem.LineSize,
			Count:  perPage,
			Elem:   8,
			Kind:   sgx.ExtentRead,
			U64:    buf,
		})
	}
}

// BenchmarkExtentWrite is BenchmarkExtentRead with dense word writes:
// one Extent per page instead of 512 WriteU64 calls.
func BenchmarkExtentWrite(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const pages = 64
	const perPage = mem.PageSize / 8 // dense words per page
	addr := env.MustAlloc(pages*mem.PageSize, mem.PageSize)
	tr := env.Main
	tr.Memset(addr, 0, pages*mem.PageSize)
	buf := make([]uint64, perPage)
	for i := range buf {
		buf[i] = uint64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += perPage {
		page := (uint64(i) / perPage) % pages
		tr.RunExtent(sgx.Extent{
			Addr:   addr + page*mem.PageSize,
			Stride: 8,
			Count:  perPage,
			Elem:   8,
			Kind:   sgx.ExtentWrite,
			U64:    buf,
		})
	}
}

// BenchmarkMemset measures bulk zeroing of an enclave region (the
// Memset bulk path; one op = 64 KiB).
func BenchmarkMemset(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const n = 64 * 1024
	addr := env.MustAlloc(n, mem.PageSize)
	tr := env.Main
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Memset(addr, byte(i), n)
	}
}

// BenchmarkMemcpy measures a bulk copy between two enclave regions
// (the Memcpy bulk path; one op = 32 KiB).
func BenchmarkMemcpy(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 256})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 200); err != nil {
		b.Fatal(err)
	}
	const n = 32 * 1024
	src := env.MustAlloc(n, mem.PageSize)
	dst := env.MustAlloc(n, mem.PageSize)
	tr := env.Main
	tr.Memset(src, 7, n)
	b.SetBytes(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Memcpy(dst, src, n)
	}
}

// BenchmarkECall measures one simulated enclave transition round trip.
func BenchmarkECall(b *testing.B) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	env := m.NewEnv(sgx.Native)
	if _, err := env.LaunchEnclave(2, 32); err != nil {
		b.Fatal(err)
	}
	tr := env.Main
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.ECall(func() {})
	}
}

// BenchmarkOCall measures one simulated OCALL round trip from inside
// a tiny enclave on machines whose dTLB and LLC are sized by the EPC
// (LLC 512 KB, 8 MB and 32 MB). Each round trip flushes the dTLB and
// pollutes the LLC twice; neither may cost the host more on a bigger
// machine.
func BenchmarkOCall(b *testing.B) {
	for _, pages := range []int{256, 4096, 23552} {
		b.Run(fmt.Sprintf("epc%d", pages), func(b *testing.B) {
			m := sgx.NewMachine(sgx.Config{EPCPages: pages})
			env := m.NewEnv(sgx.Native)
			if _, err := env.LaunchEnclave(2, 32); err != nil {
				b.Fatal(err)
			}
			tr := env.Main
			b.ResetTimer()
			tr.ECall(func() {
				for i := 0; i < b.N; i++ {
					tr.OCall(func() {})
				}
			})
		})
	}
}
