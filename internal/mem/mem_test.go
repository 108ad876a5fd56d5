package mem

import (
	"testing"
	"testing/quick"
)

func TestPageMath(t *testing.T) {
	cases := []struct {
		addr       uint64
		base, vpn  uint64
		lineNumber uint64
	}{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{4095, 0, 0, 63},
		{4096, 4096, 1, 64},
		{0x7000_0000_1234, 0x7000_0000_1000, 0x7000_0000_1, 0x1C0_0000_0048},
	}
	for _, c := range cases {
		if got := PageBase(c.addr); got != c.base {
			t.Errorf("PageBase(%#x) = %#x, want %#x", c.addr, got, c.base)
		}
		if got := PageNumber(c.addr); got != c.vpn {
			t.Errorf("PageNumber(%#x) = %#x, want %#x", c.addr, got, c.vpn)
		}
		if got := LineNumber(c.addr); got != c.lineNumber {
			t.Errorf("LineNumber(%#x) = %#x, want %#x", c.addr, got, c.lineNumber)
		}
	}
}

func TestPageMathProperties(t *testing.T) {
	f := func(addr uint64) bool {
		return PageBase(addr)%PageSize == 0 &&
			PageBase(addr) <= addr &&
			addr-PageBase(addr) < PageSize &&
			PageNumber(addr) == PageBase(addr)/PageSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPoolRecyclesZeroed(t *testing.T) {
	var p Pool
	f := p.Get()
	f.Data[0] = 0xAA
	f.Data[PageSize-1] = 0xBB
	p.Put(f)
	g := p.Get()
	if g != f {
		t.Fatal("pool did not recycle the frame")
	}
	if g.Data[0] != 0 || g.Data[PageSize-1] != 0 {
		t.Error("recycled frame was not zeroed")
	}
}

func TestPoolPutNil(t *testing.T) {
	var p Pool
	p.Put(nil) // must not panic
	if f := p.Get(); f == nil {
		t.Fatal("Get returned nil")
	}
}

func TestBackingStoreRoundTrip(t *testing.T) {
	b := NewBackingStore()
	id := PageID{Enclave: 3, VPN: 0x123}
	if b.Get(id) != nil {
		t.Fatal("empty store returned a page")
	}
	sp := &SealedPage{ID: id, Version: 7}
	b.Put(sp)
	if got := b.Get(id); got != sp {
		t.Fatal("Get returned wrong page")
	}
	if b.Len() != 1 {
		t.Fatalf("Len = %d, want 1", b.Len())
	}
	// Replacement keeps one entry.
	sp2 := &SealedPage{ID: id, Version: 8}
	b.Put(sp2)
	if got := b.Get(id); got != sp2 || b.Len() != 1 {
		t.Fatal("Put did not replace")
	}
	b.Delete(id)
	if b.Get(id) != nil || b.Len() != 0 {
		t.Fatal("Delete did not remove")
	}
	b.Delete(id) // idempotent
}

func TestBackingStoreDropEnclave(t *testing.T) {
	b := NewBackingStore()
	for vpn := uint64(0); vpn < 10; vpn++ {
		b.Put(&SealedPage{ID: PageID{Enclave: 1, VPN: vpn}})
		b.Put(&SealedPage{ID: PageID{Enclave: 2, VPN: vpn}})
	}
	b.DropEnclave(1)
	if b.Len() != 10 {
		t.Fatalf("Len = %d after DropEnclave, want 10", b.Len())
	}
	if b.Get(PageID{Enclave: 1, VPN: 3}) != nil {
		t.Error("enclave 1 page survived DropEnclave")
	}
	if b.Get(PageID{Enclave: 2, VPN: 3}) == nil {
		t.Error("enclave 2 page was dropped")
	}
}

func TestPageIDString(t *testing.T) {
	s := PageID{Enclave: 5, VPN: 0x10}.String()
	if s != "enclave 5 vpn 0x10" {
		t.Errorf("String = %q", s)
	}
}

func TestBackingStoreReserveCarvesAndRecycles(t *testing.T) {
	b := NewBackingStore()
	seen := map[*SealedPage]bool{}
	for i := 0; i < 3*sealedSlabPages; i++ {
		sp := b.Reserve()
		if sp == nil {
			t.Fatal("Reserve returned nil")
		}
		if seen[sp] {
			t.Fatalf("Reserve handed out page %p twice", sp)
		}
		seen[sp] = true
		sp.ID = PageID{Enclave: 1, VPN: uint64(i)}
		b.Put(sp)
	}
	if got := testing.AllocsPerRun(10, func() { b.Reserve() }); got != 0 {
		t.Errorf("Reserve allocates %v objects per page, want one per slab", got)
	}
	// A retired entry is handed out again before the slab is touched.
	dead := b.Get(PageID{Enclave: 1, VPN: 5})
	b.Delete(PageID{Enclave: 1, VPN: 5})
	if got := b.Reserve(); got != dead {
		t.Error("Reserve did not recycle the deleted entry")
	}
}

// TestInheritedPagesNeverChange: a store that inherited another's
// sealed pages may delete them, replace them and seal into everything
// Reserve hands out, and the inherited pages keep their bytes — their
// storage is never recycled into the store's free list.
func TestInheritedPagesNeverChange(t *testing.T) {
	src := NewBackingStore()
	const n = 3 * sealedSlabPages
	for i := 0; i < n; i++ {
		sp := src.Reserve()
		sp.ID = PageID{Enclave: 1, VPN: uint64(i)}
		sp.Version = uint64(i + 1)
		for j := range sp.Ciphertext {
			sp.Ciphertext[j] = byte(i + j)
		}
		sp.MAC[0] = byte(i)
		src.Put(sp)
	}
	want := make(map[PageID]SealedPage, n)
	for i := 0; i < n; i++ {
		id := PageID{Enclave: 1, VPN: uint64(i)}
		want[id] = *src.Get(id)
	}

	clone := NewBackingStore()
	clone.Inherit(src)
	if clone.Len() != n {
		t.Fatalf("clone holds %d pages, want %d", clone.Len(), n)
	}
	for i := 0; i < n; i++ {
		id := PageID{Enclave: 1, VPN: uint64(i)}
		switch i % 3 {
		case 0:
			clone.Delete(id)
		case 1:
			clone.Put(&SealedPage{ID: id, Version: 99})
		}
	}
	clone.DropEnclave(1)
	// Everything the clone can now hand out gets overwritten, as a
	// seal would.
	for i := 0; i < 2*n; i++ {
		sp := clone.Reserve()
		sp.ID = PageID{Enclave: 2, VPN: uint64(i)}
		for j := range sp.Ciphertext {
			sp.Ciphertext[j] = 0xFF
		}
		sp.MAC = [16]byte{0xFF}
		clone.Put(sp)
	}

	if src.Len() != n {
		t.Fatalf("source holds %d pages after the clone ran, want %d", src.Len(), n)
	}
	for id, w := range want {
		if got := src.Get(id); got == nil || *got != w {
			t.Fatalf("inherited page %v changed", id)
		}
	}
}
