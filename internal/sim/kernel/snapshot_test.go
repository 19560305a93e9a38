package kernel

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/sim/proc"
)

// snapWorld builds a small world with every substrate a snapshot must
// carry: users, files, symlinks, and a queued mailbox message.
func snapWorld(t *testing.T) *Kernel {
	t.Helper()
	k := New()
	k.Users.Add(proc.User{Name: "alice", UID: 100, GID: 100})
	k.Users.Add(proc.User{Name: "mallory", UID: 666, GID: 666})
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(k.FS.MkdirAll("/", "/etc", 0o755, 0, 0))
	must(k.FS.WriteFile("/etc/passwd", []byte("root:x:0:0\n"), 0o644, 0, 0))
	must(k.FS.WriteFile("/etc/shadow", []byte("root:$1$HASH$:1:\n"), 0o600, 0, 0))
	must(k.FS.MkdirAll("/", "/home/alice", 0o755, 100, 100))
	must(k.FS.WriteFile("/home/alice/notes", []byte("clean\n"), 0o644, 100, 100))
	if _, err := k.FS.Symlink("/", "/etc/passwd", "/home/alice/pw", 100, 100); err != nil {
		t.Fatal(err)
	}
	must(k.FS.MkdirAll("/", "/tmp", 0o777, 0, 0))
	k.PostMessage("inbox", []byte("hello"))
	return k
}

// TestSnapshotForkIsolation: mutations in one fork are invisible to the
// frozen base and to sibling forks, across files, users, programs,
// mailboxes (pops, posts and replacements) and a child process's
// environment — everything Fork shares until first write.
func TestSnapshotForkIsolation(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t).Snapshot()
	base := snap.FS().Digest()
	env := proc.NewEnv("PATH", "/usr/bin")

	a, b := snap.Fork(), snap.Fork()
	if err := a.FS.WriteFile("/home/alice/notes", []byte("fork a\n"), 0o644, 100, 100); err != nil {
		t.Fatal(err)
	}
	if err := a.FS.Unlink("/", "/etc/passwd"); err != nil {
		t.Fatal(err)
	}
	a.Users.Add(proc.User{Name: "eve", UID: 777, GID: 777})

	// A child process in fork a sets a variable in the environment it
	// shares with its parent and with the launch description.
	if err := a.FS.MkdirAll("/", "/bin", 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := a.FS.WriteFile("/bin/child", nil, 0o755, 0, 0); err != nil {
		t.Fatal(err)
	}
	a.RegisterProgram("/bin/child", func(p *Proc) int {
		p.Setenv("t:setenv", "PATH", "/evil")
		if got := p.Getenv("t:getenv", "PATH"); got != "/evil" {
			t.Errorf("child PATH after Setenv = %q", got)
		}
		return 0
	})
	pa := a.NewProc(proc.NewCred(100, 100), env, "/")
	if exit, err := pa.Exec("t:exec", "/bin/child"); exit != 0 || err != nil {
		t.Fatalf("exec child: %d, %v", exit, err)
	}

	// Fork a pops the queued message and scribbles on it, posts to a new
	// mailbox, then replaces the queue it popped.
	msg, err := pa.MsgRecv("t:recv", "inbox")
	if err != nil || string(msg) != "hello" {
		t.Fatalf("fork a MsgRecv = %q, %v", msg, err)
	}
	msg[0] = 'J'
	a.PostMessage("outbox", []byte("from a"))
	a.SetMailbox("inbox", [][]byte{[]byte("forged")})

	if got := pa.Getenv("t:getenv", "PATH"); got != "/usr/bin" {
		t.Errorf("parent sees its child's Setenv: PATH = %q", got)
	}
	if env["PATH"] != "/usr/bin" {
		t.Errorf("child's Setenv reached the launch environment: PATH = %q", env["PATH"])
	}
	pb := b.NewProc(proc.NewCred(100, 100), env, "/")
	if got := pb.Getenv("t:getenv", "PATH"); got != "/usr/bin" {
		t.Errorf("sibling fork sees a's child Setenv: PATH = %q", got)
	}
	if _, ok := b.programs["/bin/child"]; ok {
		t.Error("sibling fork sees a's registered program")
	}
	if _, ok := snap.programs["/bin/child"]; ok {
		t.Error("a's registered program reached the snapshot")
	}
	for name, k := range map[string]*Kernel{"snapshot": {mailboxes: snap.mailboxes}, "sibling": b} {
		if q := k.PeekMailbox("inbox"); len(q) != 1 || string(q[0]) != "hello" {
			t.Errorf("%s inbox after a's pop and replace = %q", name, q)
		}
		if q := k.PeekMailbox("outbox"); len(q) != 0 {
			t.Errorf("%s sees a's post: %q", name, q)
		}
	}
	c := snap.Fork()
	if msg, err := c.NewProc(proc.NewCred(100, 100), env, "/").MsgRecv("t:recv", "inbox"); err != nil || string(msg) != "hello" {
		t.Errorf("third fork MsgRecv = %q, %v", msg, err)
	}
	if q := b.PeekMailbox("inbox"); len(q) != 1 || string(q[0]) != "hello" {
		t.Errorf("third fork's pop reached sibling b: %q", q)
	}
	a.SetMailbox("inbox", nil)

	if got := snap.FS().Digest(); got != base {
		t.Fatalf("fork mutations reached the frozen base: %s != %s", got, base)
	}
	if n, err := b.FS.Lookup("/", "/home/alice/notes"); err != nil || string(n.Data) != "clean\n" {
		t.Fatalf("sibling fork sees a's write: %q, %v", n.Data, err)
	}
	if _, err := b.FS.Lookup("/", "/etc/passwd"); err != nil {
		t.Fatalf("sibling fork lost /etc/passwd: %v", err)
	}
	if _, ok := b.Users.ByName("eve"); ok {
		t.Fatal("sibling fork sees a's user table mutation")
	}
	if len(b.PeekMailbox("inbox")) != 1 {
		t.Fatal("sibling fork lost the queued mailbox message")
	}
}

// TestSnapshotFrozenBaseMutationPanics: the freeze is a tripwire, not a
// convention — writing through the snapshotted kernel must panic.
func TestSnapshotFrozenBaseMutationPanics(t *testing.T) {
	t.Parallel()
	k := snapWorld(t)
	k.Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("mutating the frozen base filesystem did not panic")
		}
	}()
	_ = k.FS.WriteFile("/tmp/x", []byte("y"), 0o644, 0, 0)
}

// TestSnapshotForkStress hammers one snapshot from many goroutines —
// the shape the suite dispatcher produces, where every worker forks the
// same frozen campaign image concurrently. Run under -race, it is the
// data-race proof for the snapshot seam; the digest check proves the
// base never moves no matter how the forks interleave.
func TestSnapshotForkStress(t *testing.T) {
	t.Parallel()
	snap := snapWorld(t).Snapshot()
	base := snap.FS().Digest()

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := snap.Fork()
				mine := fmt.Sprintf("worker %d iter %d\n", w, i)
				if err := k.FS.WriteFile("/home/alice/notes", []byte(mine), 0o644, 100, 100); err != nil {
					errs <- err
					return
				}
				if err := k.FS.Rename("/", "/etc/shadow", "/tmp/shadow"); err != nil {
					errs <- err
					return
				}
				if err := k.FS.RemoveAll("/home/alice"); err != nil {
					errs <- err
					return
				}
				k.SetMailbox("inbox", [][]byte{[]byte(mine)})
				// Read back through a second fork taken mid-flight: it must
				// see only the clean image, never this worker's mutations.
				probe := snap.Fork()
				if n, err := probe.FS.Lookup("/", "/home/alice/notes"); err != nil || string(n.Data) != "clean\n" {
					errs <- fmt.Errorf("probe fork saw dirty state: %q, %v", n.Data, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := snap.FS().Digest(); got != base {
		t.Fatalf("stress mutated the frozen base: %s != %s", got, base)
	}
}
