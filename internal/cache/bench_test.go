package cache

import (
	"fmt"
	"testing"
)

// BenchmarkAccessRunPolluted charges page-sized runs of lines over a
// working set twice the LLC's capacity, with one transition's
// pollution every fourth run: the LLC side of an enclave program that
// makes OCALLs. One op is one 64-line run.
func BenchmarkAccessRunPolluted(b *testing.B) {
	for _, kb := range []int{512, 8192} {
		b.Run(fmt.Sprintf("llc%dk", kb), func(b *testing.B) {
			c := NewLLC(kb*1024, 16, 256)
			pages := uint64(2 * kb / 4)
			rng := uint64(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				c.AccessRun(rng>>33%pages*64, 64)
				if i%4 == 0 {
					c.Pollute()
				}
			}
		})
	}
}
