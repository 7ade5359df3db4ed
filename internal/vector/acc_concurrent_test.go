package vector

import (
	"sync"
	"testing"
)

// TestAccConcurrentReads pins the documented read contract: Round and
// AppendBinary only read the accumulator and write locals, so any number of
// goroutines may round or serialise one Acc concurrently — the experiment
// runner's shards read bin loads while other readers snapshot them. Writes (Add/Sub/Reset)
// still require external synchronisation. Run under -race.
func TestAccConcurrentReads(t *testing.T) {
	var a Acc
	// A mix that exercises multiple limbs and cancellation.
	for i := 0; i < 1000; i++ {
		a.Add(1.0 / 3.0)
		a.Add(1e-12)
		a.Sub(0.25)
	}
	want, wantBytes := a.Round(), string(a.AppendBinary(nil))

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for k := 0; k < 2000; k++ {
				if got := a.Round(); got != want {
					t.Errorf("concurrent Round = %v, want %v", got, want)
					return
				}
				if buf = a.AppendBinary(buf[:0]); string(buf) != wantBytes {
					t.Errorf("concurrent AppendBinary = % x, want % x", buf, wantBytes)
					return
				}
			}
		}()
	}
	wg.Wait()

	if got := a.Round(); got != want {
		t.Errorf("Round after concurrent reads = %v, want %v", got, want)
	}
}
