package osal

import (
	"bytes"
	"math/bits"
	"testing"

	"sgxgauge/internal/mem"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/sgx"
)

func testEnv() (*sgx.Machine, *sgx.Thread) {
	m := sgx.NewMachine(sgx.Config{EPCPages: 64})
	env := m.NewEnv(sgx.Vanilla)
	return m, env.Main
}

func TestHostSideOps(t *testing.T) {
	fs := NewFS()
	if fs.Size("x") != -1 || fs.Raw("x") != nil {
		t.Error("missing file misreported")
	}
	fs.Create("a", []byte("hello"))
	fs.Create("b", nil)
	if fs.Size("a") != 5 {
		t.Errorf("Size = %d", fs.Size("a"))
	}
	if got := fs.List(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("List = %v", got)
	}
	fs.Remove("a")
	if fs.Size("a") != -1 {
		t.Error("Remove did not delete")
	}
	fs.Remove("a") // idempotent
}

func TestOpenMissingFile(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	if _, err := fs.Open(tr, "nope"); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
	if m.Counters.Get(perf.Syscalls) != 1 {
		t.Error("failed open did not cost a syscall")
	}
}

func TestReadIntoSpace(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	content := []byte("0123456789abcdef")
	fs.Create("f", content)

	buf := m.AllocUntrusted(64, 8)
	h, err := fs.Open(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	n, err := h.ReadAt(tr, buf, 4, 8)
	if err != nil || n != 8 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	out := make([]byte, 8)
	tr.Read(buf, out)
	if !bytes.Equal(out, content[4:12]) {
		t.Errorf("read %q, want %q", out, content[4:12])
	}
	// Short read at EOF.
	n, err = h.ReadAt(tr, buf, 12, 100)
	if err != nil || n != 4 {
		t.Fatalf("EOF ReadAt = %d, %v", n, err)
	}
	// Past EOF.
	n, err = h.ReadAt(tr, buf, 100, 8)
	if err != nil || n != 0 {
		t.Fatalf("past-EOF ReadAt = %d, %v", n, err)
	}
	if err := h.Close(tr); err != nil {
		t.Fatal(err)
	}
}

func TestWriteFromSpaceAndGrowth(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	buf := m.AllocUntrusted(mem.PageSize, 8)
	tr.Write(buf, []byte("payload!"))

	h, err := fs.CreateFile(tr, "out")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt(tr, buf, 10, 8); err != nil {
		t.Fatal(err)
	}
	if h.Size() != 18 {
		t.Errorf("Size = %d, want 18 (sparse growth)", h.Size())
	}
	raw := fs.Raw("out")
	if !bytes.Equal(raw[10:18], []byte("payload!")) {
		t.Errorf("file content = %q", raw[10:18])
	}
	for _, b := range raw[:10] {
		if b != 0 {
			t.Error("hole not zero-filled")
		}
	}
	if err := h.Close(tr); err != nil {
		t.Fatal(err)
	}
}

func TestClosedHandleErrors(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	fs.Create("f", []byte("x"))
	buf := m.AllocUntrusted(8, 8)
	h, _ := fs.Open(tr, "f")
	if err := h.Close(tr); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ReadAt(tr, buf, 0, 1); err == nil {
		t.Error("read on closed handle succeeded")
	}
	if _, err := h.WriteAt(tr, buf, 0, 1); err == nil {
		t.Error("write on closed handle succeeded")
	}
	if err := h.Close(tr); err == nil {
		t.Error("double close succeeded")
	}
}

func TestSyscallCostsCharged(t *testing.T) {
	m, tr := testEnv()
	fs := NewFS()
	fs.Create("f", make([]byte, 4096))
	buf := m.AllocUntrusted(4096, 8)

	h, _ := fs.Open(tr, "f")
	before := tr.Clock.Cycles()
	sysBefore := m.Counters.Get(perf.Syscalls)
	h.ReadAt(tr, buf, 0, 4096)
	if tr.Clock.Cycles() == before {
		t.Error("read charged no cycles")
	}
	if m.Counters.Get(perf.Syscalls) != sysBefore+1 {
		t.Error("read did not count a syscall")
	}
}

func TestPatchRaw(t *testing.T) {
	fs := NewFS()
	fs.PatchRaw("new", 4, []byte("abc"))
	raw := fs.Raw("new")
	if len(raw) != 7 || !bytes.Equal(raw[4:], []byte("abc")) {
		t.Errorf("PatchRaw created %q", raw)
	}
	fs.PatchRaw("new", 0, []byte("zz"))
	if got := fs.Raw("new"); got[0] != 'z' || len(got) != 7 {
		t.Errorf("PatchRaw overwrite = %q", got)
	}
}

func TestCreateFileTruncates(t *testing.T) {
	_, tr := testEnv()
	fs := NewFS()
	fs.Create("f", []byte("old content"))
	h, err := fs.CreateFile(tr, "f")
	if err != nil {
		t.Fatal(err)
	}
	if h.Size() != 0 {
		t.Errorf("CreateFile kept %d bytes", h.Size())
	}
}

// TestAppendingWritesAmortized checks that a run of appending writes,
// through a handle or PatchRaw, builds the same bytes as one-shot
// growth while reallocating the file only O(log n) times.
func TestAppendingWritesAmortized(t *testing.T) {
	const chunk, n = 100, 512
	m, tr := testEnv()
	src := make([]byte, chunk)
	for i := range src {
		src[i] = byte(i*31 + 7)
	}
	buf := m.AllocUntrusted(chunk, 8)
	tr.Write(buf, src)
	want := bytes.Repeat(src, n)
	// Each growth allocates once; allow a constant for the file,
	// handle and map entry on top of the logarithmic term.
	limit := float64(2*bits.Len(uint(n*chunk)) + 8)

	fs := NewFS()
	viaHandle := func() {
		h, err := fs.CreateFile(tr, "w")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := h.WriteAt(tr, buf, i*chunk, chunk); err != nil {
				t.Fatal(err)
			}
		}
		if err := h.Close(tr); err != nil {
			t.Fatal(err)
		}
	}
	viaPatch := func() {
		fs.Remove("p")
		for i := 0; i < n; i++ {
			fs.PatchRaw("p", i*chunk, src)
		}
	}
	for _, c := range []struct {
		name, file string
		run        func()
	}{{"WriteAt", "w", viaHandle}, {"PatchRaw", "p", viaPatch}} {
		allocs := testing.AllocsPerRun(5, c.run)
		if got := fs.Raw(c.file); !bytes.Equal(got, want) {
			t.Errorf("%s: %d appends built %d bytes that differ from the expected %d", c.name, n, len(got), len(want))
		}
		if allocs > limit {
			t.Errorf("%s: %d appends allocate %v objects, want <= %v", c.name, n, allocs, limit)
		}
	}
}

// TestRawIsCapped checks that appending to Raw's result cannot write
// into the file's spare capacity.
func TestRawIsCapped(t *testing.T) {
	fs := NewFS()
	fs.PatchRaw("f", 0, []byte("abc"))
	fs.PatchRaw("f", 3, []byte("d")) // leaves spare capacity behind
	raw := fs.Raw("f")
	if cap(raw) != len(raw) {
		t.Fatalf("Raw returned len %d cap %d", len(raw), cap(raw))
	}
	_ = append(raw, 'X')
	fs.PatchRaw("f", 4, []byte("e"))
	if got := string(fs.Raw("f")); got != "abcde" {
		t.Errorf("file = %q after appending to a Raw slice", got)
	}

	// Create takes the caller's slice without its spare capacity.
	backing := []byte("12345678")
	fs.Create("g", backing[:2])
	fs.PatchRaw("g", 2, []byte("zz"))
	if string(backing) != "12345678" {
		t.Errorf("growing a created file wrote into the caller's array: %q", backing)
	}
}
