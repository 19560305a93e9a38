package vfs

import "testing"

var (
	sinkResolved Resolved
	sinkInode    *Inode
)

// TestWalkAllocs pins the walk's allocation counts. Counts repeat exactly,
// so a change that puts the component split, the directory stack or a path
// rebuild back on the heap fails here rather than hiding in timing noise.
// Not parallel: AllocsPerRun reads process-wide allocation counters.
func TestWalkAllocs(t *testing.T) {
	fs := newTestFS(t)
	cases := []struct {
		name string
		f    func()
	}{
		{"Resolve of an existing plain absolute path", func() {
			sinkResolved, _ = fs.Resolve("/home/alice", "/var/spool/lpd", true)
		}},
		{"Peek hit", func() { sinkInode = fs.Peek("/etc/passwd", true) }},
		{"Peek miss", func() { sinkInode = fs.Peek("/etc/missing", true) }},
		{"Peek miss mid-path", func() { sinkInode = fs.Peek("/var/spool/lpd/missing/x", true) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, c.f); got != 0 {
			t.Errorf("%s: %v allocs per run, want 0", c.name, got)
		}
	}
	if sinkResolved.Path != "/var/spool/lpd" {
		t.Errorf("resolved path = %q", sinkResolved.Path)
	}
}
