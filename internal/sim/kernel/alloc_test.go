package kernel

import (
	"testing"

	"repro/internal/interpose"
	"repro/internal/sim/proc"
)

var sinkInfo Info

// TestStatAllocs pins the allocation count of one Stat of an existing file
// through a recording bus. The per-process interaction records keep the
// Call and Result literals off the heap, and the walk resolves a plain
// absolute path without allocating, so the syscall allocates nothing; the
// trace buffer is reserved up front so its growth does not count.
// Not parallel: AllocsPerRun reads process-wide allocation counters.
func TestStatAllocs(t *testing.T) {
	k := newWorld(t)
	k.Bus.ReserveTrace(make([]interpose.Event, 0, 256))
	p := k.NewProc(proc.NewCred(100, 100), nil, "/")
	got := testing.AllocsPerRun(100, func() {
		sinkInfo, _ = p.Stat("t:stat", "/etc/passwd")
	})
	if got != 0 {
		t.Errorf("Stat: %v allocs per run, want 0", got)
	}
	if sinkInfo.Path != "/etc/passwd" || k.Bus.Len() != 101 {
		t.Errorf("Stat info %+v after %d traced calls", sinkInfo, k.Bus.Len())
	}
}
