package main

// Pinned outputs of the batch workloads. Every run checks against
// them, and a mismatch counts as a failed operation. A change that
// moves the simulator's output on purpose updates them; the failure
// message prints the new digest.

// reportDigests holds the SHA-256 of each experiment's Render output
// at EPCPages=256, Seed=1.
var reportDigests = map[string]string{
	"tab2":   "073a1bb8808669a9eb2d4897b821bd83c2fcd577fca65f1199cc2c019ba1c282",
	"fig2":   "14fce5aaf069a25ab29e2f00ca3b7875e6d28237b19a9bc5a27210da1fb6f406",
	"fig3":   "e4bb803c1afc76b62d9b0ae5375d98f037e9f67e13057696254116e80259d3e4",
	"fig4":   "bd4665cc9e7bdbde898358394a79d12cca1ae539cd4436a548d0cb710a272c10",
	"tab4":   "e02cf6da75a09a735c98290855e669d330b902bb390e3bb043ad4c7b7523ed54",
	"fig5":   "b493f229ae90feb02b3fc00b728f5a138ca4fb03b2a94ce65b6c3584de92cf0a",
	"fig6a":  "750efab702caaba882c038c01ccfe869ce9faf06f2f121bf6fd74df0bd204c1d",
	"fig6bc": "f7085c0634698b4f6b0f02f4542d064f7207dbf4c7ec3abef749f4dca24c3e2e",
	"fig6d":  "7457170778d225e887886aa34ac04064b10852a64165d66934c0607ceccd654e",
	"fig7":   "02d15784784514504bec9601ed0e1ac9c2b54bf89fbf70124092af7aab304dcb",
	"fig8":   "e32bdbbe665b3a6829852a503b3bf8a6b2686b79d89e3d5a6d622160b57fd309",
	"tab5":   "2f824880659638e6b86a39d052cc5aaa68af9e2f6a78c0a2bb94047abd6c9cae",
	"fig9":   "ae5380c35694b300444ba1fdff3e7715816f03f6bc3677d8064f6907896acea6",
	"fig10":  "a1172dc12a2ee9ec90c6d49dc45ed925e98898e55a206497806caac70cc466e7",
	"multi":  "3b9bcaa00cf5b2bafbac321261e69f52bfe1c7dd0275e2729523dbb9b7133d21",
}

// reportSimulated is the number of specs a cold report simulates: one
// Progress event with Cached=false each. Later experiments rightly
// reuse earlier experiments' runs, so cache hits are expected; a
// changed count means the report's work changed.
const reportSimulated = 155

// libosDigests holds the SHA-256 of each LibOS run's canonical
// ResultWire encoding at EPCPages=4096, Seed=1, Size=Low.
var libosDigests = map[string]string{
	"Empty":     "2661199eac52c1d774b7628f427a7d1b84cbc26c091c497c745c969d4224df63",
	"OpenSSL":   "be2e60e8a9fef27f9e5288e99d7c3f9ca40623a34fb5248429d9fbc906043e66",
	"Memcached": "59efff6112db79eed48d6eea4cd4b0832793faafce3281ab177427c64f6df944",
	"Iozone":    "72bb15a1b9c5ae1b7b51cdbe0498a651a2bf9b6566ed0c379392e885cfc8a7b0",
}

// libosSimulated is the number of specs a cold libos-epc4096 sample
// simulates.
const libosSimulated = 4
