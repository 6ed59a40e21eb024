package machine

import (
	"sync"
	"testing"
)

func TestDepotClassesAndBounds(t *testing.T) {
	var d Depot
	if d.Get(1) != nil {
		t.Fatal("empty depot served a buffer")
	}
	b := make([]byte, 300)[:10] // a 300-byte buffer feeds the 256 class
	ci := RecycleClass(cap(b))
	if ci != 1 || AllocClass(256) != 1 || AllocClass(257) != 2 {
		t.Fatalf("classes: recycle(300)=%d alloc(256)=%d alloc(257)=%d", ci, AllocClass(256), AllocClass(257))
	}
	if !d.Put(ci, b) {
		t.Fatal("Put into an empty class refused")
	}
	got := d.Get(ci)
	if len(got) != 300 || &got[0] != &b[0] {
		t.Fatalf("Get returned %d bytes (same buffer: %v), want the 300-byte buffer at full length", len(got), &got[0] == &b[0])
	}
	top := len(BufClassSizes) - 1
	if d.Put(top, make([]byte, 4*BufClassSizes[top])) {
		t.Error("depot retained a buffer four times its class size")
	}
	bound := depotClassBytes / BufClassSizes[top]
	for i := 0; i < bound; i++ {
		if !d.Put(top, make([]byte, BufClassSizes[top])) {
			t.Fatalf("Put %d refused below the %d-buffer bound", i, bound)
		}
	}
	if d.Put(top, make([]byte, BufClassSizes[top])) {
		t.Errorf("depot grew past its %d-buffer bound", bound)
	}
	if d.Len() != bound {
		t.Errorf("Len = %d, want %d", d.Len(), bound)
	}
}

// TestDepotConcurrent moves buffers between goroutines through one
// depot, as a PE and a link writer do; run it under -race.
func TestDepotConcurrent(t *testing.T) {
	var d Depot
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := d.Get(0)
				if b == nil {
					b = make([]byte, BufClassSizes[0])
				}
				b[0] = byte(g) // the caller owns it until Put
				d.Put(0, b)
			}
		}(g)
	}
	wg.Wait()
	if n := d.Len(); n < 1 || n > 4 {
		t.Errorf("depot retains %d buffers after 4 goroutines each held at most one", n)
	}
}
