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
// bus records into a recorder grown up front, so trace growth does not
// count.
// Not parallel: AllocsPerRun reads process-wide allocation counters.
func TestStatAllocs(t *testing.T) {
	k := newWorld(t)
	rec := new(interpose.Recorder)
	rec.Grow(256)
	k.Bus.UseRecorder(rec)
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

var sinkKernel *Kernel

// forkAllocs is the measured allocation count of Snapshot.Fork on a
// world with files, accounts and a queued message: the kernel, its
// filesystem view, its account view and its bus. Accounts, programs and
// mailboxes are shared until written, so none of them is copied here
// (the eager fork took 14).
const forkAllocs = 4

// TestForkAllocs pins the allocation count of one world fork. Not
// parallel: AllocsPerRun reads process-wide allocation counters.
func TestForkAllocs(t *testing.T) {
	snap := snapWorld(t).Snapshot()
	got := testing.AllocsPerRun(100, func() { sinkKernel = snap.Fork() })
	if got != forkAllocs {
		t.Errorf("Fork: %v allocs per run, want %d", got, forkAllocs)
	}
}
