package attest

import (
	"encoding/hex"
	"testing"

	"sgxgauge/internal/chaos"
	"sgxgauge/internal/enclave"
	"sgxgauge/internal/libos"
	"sgxgauge/internal/osal"
	"sgxgauge/internal/sgx"
)

// Launch measurements pinned from the eager implementation, which
// hashed every page as the build added it. Computing the chain on
// first read from the recorded image must reproduce them exactly.
const (
	pinNative = "cc31932b5335088c7afdb60232cbfb085b145c846ccb0efc2d2f08899677c3f6"
	pinStorm  = "f36494b376d7cb26704af61b250f8279b32bde6a20a5e755ba32f74f5199e576"
	pinLibOS  = "f5df6ecd74b100707071f6d1efc6aa17627cb29a49f6d8b852d0de76fbed97d7"
)

func TestLaunchMeasurementPins(t *testing.T) {
	launch := func(epc, image, reserve, size int) func(*testing.T) *enclave.Enclave {
		return func(t *testing.T) *enclave.Enclave {
			env := sgx.NewMachine(sgx.Config{EPCPages: epc}).NewEnv(sgx.Native)
			enc, err := env.LaunchEnclaveReserve(image, reserve, size)
			if err != nil {
				t.Fatal(err)
			}
			return enc
		}
	}
	boot := func(ch *chaos.Config) func(*testing.T) *enclave.Enclave {
		return func(t *testing.T) *enclave.Enclave {
			m := sgx.NewMachine(sgx.Config{EPCPages: 256, Chaos: ch})
			var inst *libos.Instance
			err := sgx.Protect(func() {
				var err error
				if inst, err = libos.Start(m, osal.NewFS(), libos.Manifest{Binary: "pin"}); err != nil {
					t.Fatal(err)
				}
			})
			if err != nil {
				t.Fatalf("boot: %v", err)
			}
			if ch != nil && m.Chaos() == nil {
				t.Fatal("chaos configured but not active")
			}
			return inst.Env.Enclave
		}
	}
	cases := []struct {
		name  string
		build func(*testing.T) *enclave.Enclave
		want  string
	}{
		// Native LaunchEnclave(8, 32): the whole image is loader content.
		{"native", launch(64, 8, 8, 32), pinNative},
		// Image larger than the EPC: the build evicts while it measures.
		{"storm", launch(64, 300, 128, 400), pinStorm},
		{"libos", boot(nil), pinLibOS},
		// Chaos (AEX storms, ballooning, tampering of the pages the
		// build evicts) touches neither the image nor its measurement.
		{"libos-chaos", boot(&chaos.Config{Seed: 1, Rate: 0.02, AEXStorm: true, EPCBalloon: true, MemTamper: true, TamperRate: 0.001}), pinLibOS},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := c.build(t)
			first := enc.Measurement()
			if got := hex.EncodeToString(first[:]); got != c.want {
				t.Fatalf("measurement %s, want %s", got, c.want)
			}
			if again := enc.Measurement(); again != first {
				t.Fatal("second Measurement read differs from the first")
			}
			if m := MeasureEnclave(enc); m != Measurement(first) {
				t.Fatalf("MeasureEnclave %s, want %x", m, first)
			}
		})
	}
}
