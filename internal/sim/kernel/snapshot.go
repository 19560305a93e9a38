package kernel

import (
	"repro/internal/interpose"
	"repro/internal/sim/proc"
	"repro/internal/sim/vfs"
)

// Snapshot is an immutable clean-world image: the filesystem and
// registry frozen in place plus the rest of the kernel state a run can
// touch. Fork stamps out a mutable kernel that shares all of it and
// copies a piece only when the run first writes it, so a run pays only
// for what it changes.
type Snapshot struct {
	fs        *vfs.FS
	users     *proc.Users
	programs  map[string]Program
	mailboxes map[string][][]byte
	nextPID   int
	src       *Kernel
}

// Snapshot freezes the kernel's filesystem and registry and captures the
// rest of its state as the clean-world image. Filesystem and registry
// writes through the receiver panic from now on; its account database,
// program table and mailbox queues become copy-on-write, so later edits
// through the receiver copy them first and never reach the image.
func (k *Kernel) Snapshot() *Snapshot {
	k.FS.Freeze()
	if k.Reg != nil {
		k.Reg.Freeze()
	}
	s := &Snapshot{
		fs:        k.FS,
		users:     k.Users,
		programs:  k.programs,
		mailboxes: k.mailboxes,
		nextPID:   k.nextPID,
		src:       k,
	}
	k.Users = k.Users.Fork()
	k.sharedPrograms = true
	k.sharedMailboxes = true
	return s
}

// FS returns the frozen base filesystem. The security oracle can use it
// directly as the pre-run state snapshot: it is immutable by construction,
// so no defensive clone is needed.
func (s *Snapshot) FS() *vfs.FS { return s.fs }

// FreezeFS freezes the kernel's current filesystem in place, installs a
// copy-on-write fork of it for the continuing run, and returns the frozen
// image — the zero-clone snapshot primitive. The image is the world
// exactly as of the call, captured in O(cow-map size) instead of a deep
// clone; every subsequent operation lands in the fork, including writes
// through file handles opened before the call (handle inodes resolve
// through the fork's view/own barriers, never mutating the image).
// Re-freezing mid-run is legal: a run forked from a campaign snapshot
// simply gains a second frozen generation, and forks of forks chase the
// copy-on-write chain transparently.
func (k *Kernel) FreezeFS() *vfs.FS {
	frozen := k.FS
	frozen.Freeze()
	k.FS = frozen.Fork()
	return frozen
}

// Fork returns a fresh mutable kernel backed by the snapshot. The VFS
// and registry are copy-on-write forks of the frozen state; the account
// database, program table and mailbox queues are shared until the first
// write copies them (Users.Add, RegisterProgram, and PostMessage,
// SetMailbox or a MsgRecv pop); only the network is cloned eagerly. PID
// and inode counters continue from the snapshot's values, which keeps a
// forked run's trace bit-identical to one against a freshly built world.
func (s *Snapshot) Fork() *Kernel {
	k := &Kernel{
		FS:              s.fs.Fork(),
		Users:           s.users.Fork(),
		Bus:             interpose.NewBus(),
		programs:        s.programs,
		mailboxes:       s.mailboxes,
		nextPID:         s.nextPID,
		sharedPrograms:  true,
		sharedMailboxes: true,
	}
	if s.src.Net != nil {
		k.Net = s.src.Net.Clone()
	}
	if s.src.Reg != nil {
		k.Reg = s.src.Reg.Fork()
	}
	return k
}

func cloneMailboxes(m map[string][][]byte) map[string][][]byte {
	out := make(map[string][][]byte, len(m))
	for name, msgs := range m {
		cp := make([][]byte, len(msgs))
		for i, msg := range msgs {
			cp[i] = append([]byte(nil), msg...)
		}
		out[name] = cp
	}
	return out
}
