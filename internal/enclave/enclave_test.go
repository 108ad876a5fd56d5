package enclave

import (
	"testing"

	"sgxgauge/internal/mem"
)

func TestAddressRange(t *testing.T) {
	e := New(1, 0x7000_0000_0000, 16)
	if e.Limit() != 0x7000_0000_0000+16*mem.PageSize {
		t.Errorf("Limit = %#x", e.Limit())
	}
	if !e.Contains(e.Base) || !e.Contains(e.Limit()-1) {
		t.Error("range excludes its own pages")
	}
	if e.Contains(e.Base-1) || e.Contains(e.Limit()) {
		t.Error("range includes foreign addresses")
	}
}

func TestPageID(t *testing.T) {
	e := New(7, 0x7000_0000_0000, 16)
	id := e.PageID(e.Base + 5000)
	if id.Enclave != 7 {
		t.Errorf("owner = %d", id.Enclave)
	}
	if id.VPN != (e.Base+5000)>>12 {
		t.Errorf("vpn = %#x", id.VPN)
	}
}

func TestInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with size 0 did not panic")
		}
	}()
	New(1, 0, 0)
}

func TestHeapAllocation(t *testing.T) {
	e := New(1, 0x1000_0000, 4)
	a, err := e.Alloc(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a != e.Base {
		t.Errorf("first alloc at %#x, want base %#x", a, e.Base)
	}
	b, err := e.Alloc(100, 64)
	if err != nil {
		t.Fatal(err)
	}
	if b%64 != 0 {
		t.Errorf("alloc not aligned: %#x", b)
	}
	if b < a+100 {
		t.Error("allocations overlap")
	}
	if e.HeapUsed() == 0 {
		t.Error("HeapUsed = 0")
	}
}

func TestHeapExhaustion(t *testing.T) {
	e := New(1, 0x1000_0000, 2)
	if _, err := e.Alloc(3*mem.PageSize, 0); err != ErrOutOfMemory {
		t.Errorf("oversized alloc: err = %v, want ErrOutOfMemory", err)
	}
	if _, err := e.Alloc(2*mem.PageSize, 0); err != nil {
		t.Errorf("exact-fit alloc failed: %v", err)
	}
	if _, err := e.Alloc(1, 0); err != ErrOutOfMemory {
		t.Errorf("post-exhaustion alloc: err = %v, want ErrOutOfMemory", err)
	}
}

func TestAllocBadAlignment(t *testing.T) {
	e := New(1, 0x1000_0000, 4)
	if _, err := e.Alloc(8, 3); err == nil {
		t.Error("non-power-of-two alignment accepted")
	}
}

func TestMeasurementDeterministicAndSensitive(t *testing.T) {
	build := func(poison bool) [32]byte {
		e := New(1, 0, 4)
		for vpn := uint64(0); vpn < 4; vpn++ {
			var f mem.Frame
			f.Data[0] = byte(vpn)
			if poison && vpn == 2 {
				f.Data[100] = 0xFF
			}
			e.ExtendMeasurement(vpn, &f)
		}
		e.FinishLaunch()
		return e.Measurement()
	}
	a, b := build(false), build(false)
	if a != b {
		t.Fatal("measurement is not deterministic")
	}
	if c := build(true); c == a {
		t.Fatal("measurement ignores page content (tampered binary would pass)")
	}
}

func TestMeasurementOrderSensitive(t *testing.T) {
	var f mem.Frame
	e1 := New(1, 0, 4)
	e1.ExtendMeasurement(0, &f)
	e1.ExtendMeasurement(1, &f)
	e1.FinishLaunch()
	e2 := New(1, 0, 4)
	e2.ExtendMeasurement(1, &f)
	e2.ExtendMeasurement(0, &f)
	e2.FinishLaunch()
	if e1.Measurement() == e2.Measurement() {
		t.Error("measurement ignores page order")
	}
}

func TestDoubleFinishLaunchPanics(t *testing.T) {
	e := New(1, 0, 4)
	e.FinishLaunch()
	if !e.Launched() {
		t.Error("Launched() false after FinishLaunch")
	}
	defer func() {
		if recover() == nil {
			t.Error("double FinishLaunch did not panic")
		}
	}()
	e.FinishLaunch()
}

// eagerImage builds the measurement of RecordImage(image, reserve) the
// way a build that hashes as it goes would: one ExtendMeasurement per
// page, each over a freshly zeroed frame.
func eagerImage(base uint64, size, image, reserve int) [32]byte {
	e := New(1, base, size)
	for i := 0; i < image; i++ {
		var f mem.Frame
		if i < reserve {
			FillImagePage(&f, uint64(i))
		}
		e.ExtendMeasurement(mem.PageNumber(base)+uint64(i), &f)
	}
	e.FinishLaunch()
	return e.Measurement()
}

func TestRecordedImageMatchesEagerExtend(t *testing.T) {
	const base = 0x7000_0000_0000
	for _, c := range []struct{ image, reserve int }{{0, 0}, {1, 1}, {5, 0}, {5, 5}, {9, 3}} {
		e := New(1, base, 16)
		e.RecordImage(c.image, c.reserve)
		if e.Measurement() != ([32]byte{}) {
			t.Fatalf("%+v: measurement readable before FinishLaunch", c)
		}
		e.FinishLaunch()
		if got, want := e.Measurement(), eagerImage(base, 16, c.image, c.reserve); got != want {
			t.Errorf("%+v: recorded image measures %x, eager build %x", c, got, want)
		}
	}
	// Pages extended explicitly come before the recorded image.
	var f mem.Frame
	f.Data[7] = 1
	a := New(1, base, 16)
	a.ExtendMeasurement(3, &f)
	a.RecordImage(4, 2)
	a.FinishLaunch()
	b := New(1, base, 16)
	b.ExtendMeasurement(3, &f)
	for i := 0; i < 4; i++ {
		var p mem.Frame
		if i < 2 {
			FillImagePage(&p, uint64(i))
		}
		b.ExtendMeasurement(mem.PageNumber(base)+uint64(i), &p)
	}
	b.FinishLaunch()
	if a.Measurement() != b.Measurement() {
		t.Error("explicit extends and the recorded image fold in the wrong order")
	}
}

func TestExtendMeasurementDoesNotAllocate(t *testing.T) {
	e := New(1, 0, 4)
	var f mem.Frame
	e.ExtendMeasurement(0, &f) // first call creates the reused digest
	vpn := uint64(1)
	if n := testing.AllocsPerRun(100, func() {
		e.ExtendMeasurement(vpn, &f)
		vpn++
	}); n != 0 {
		t.Errorf("ExtendMeasurement allocates %v objects per call, want 0", n)
	}
}

func TestImageMisuse(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	launched := New(1, 0, 4)
	launched.FinishLaunch()
	var f mem.Frame
	mustPanic("ExtendMeasurement after launch", func() { launched.ExtendMeasurement(0, &f) })
	mustPanic("RecordImage after launch", func() { launched.RecordImage(1, 1) })
	twice := New(1, 0, 4)
	twice.RecordImage(2, 1)
	mustPanic("second RecordImage", func() { twice.RecordImage(2, 1) })
	mustPanic("reserve beyond image", func() { New(1, 0, 4).RecordImage(2, 3) })
	mustPanic("image beyond size", func() { New(1, 0, 4).RecordImage(5, 0) })
}
