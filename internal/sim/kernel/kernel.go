// Package kernel is the simulated operating-system layer: it joins the
// filesystem, network, and registry substrates with process credentials
// and exposes a UNIX-flavoured syscall API to simulated applications.
//
// Every syscall is routed through the interpose.Bus, making each one an
// environment-interaction point in the sense of Du & Mathur (DSN 2000,
// Section 3): pre-hooks perturb the environment before the kernel acts
// (direct faults), post-hooks perturb what the application receives
// (indirect faults), and the bus records the execution trace the
// methodology enumerates.
package kernel

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"sort"

	"repro/internal/interpose"
	"repro/internal/sim/netsim"
	"repro/internal/sim/proc"
	"repro/internal/sim/registry"
	"repro/internal/sim/vfs"
)

// Static errors in the errno style.
var (
	ErrPerm     = errors.New("kernel: permission denied")
	ErrBadFD    = errors.New("kernel: bad file descriptor")
	ErrNoExec   = errors.New("kernel: exec format error")
	ErrNotFound = errors.New("kernel: command not found")
	ErrNoNet    = errors.New("kernel: no network configured")
	ErrNoReg    = errors.New("kernel: no registry configured")
)

// missError is the error a syscall reports for an expected miss, such
// as a missing file or a refused permission. Its text is "<cause>:
// <op><path>", exactly what fmt.Errorf("%w: <op>%s", cause, path)
// renders, and errors.Is matches cause. The text is built only when
// asked: most misses are only ever compared with nil.
type missError struct {
	cause error
	op    string
	path  string
}

func (e *missError) Error() string { return e.cause.Error() + ": " + e.op + e.path }

func (e *missError) Unwrap() error { return e.cause }

// missErr returns the miss error for cause, op (empty, or a word and a
// trailing space) and path.
func missErr(cause error, op, path string) error {
	return &missError{cause: cause, op: op, path: path}
}

// Program is a simulated executable: application code written against the
// kernel syscall API. The return value is the process exit code.
type Program func(p *Proc) int

// Kernel is one simulated machine: substrates, account database, program
// images, and the interaction bus for the current run.
type Kernel struct {
	FS    *vfs.FS
	Net   *netsim.Net
	Reg   *registry.Registry
	Users *proc.Users
	Bus   *interpose.Bus

	programs  map[string]Program
	mailboxes map[string][][]byte
	nextPID   int
	// sharedPrograms and sharedMailboxes mark the tables as borrowed
	// from a snapshot (see Snapshot.Fork): the first write copies them.
	sharedPrograms  bool
	sharedMailboxes bool
}

// ownMailboxes makes the mailbox queues private ahead of a write: a
// kernel still sharing its snapshot's queues deep-copies them, messages
// included, so nothing a run pops, posts or replaces reaches the
// snapshot or a sibling fork.
func (k *Kernel) ownMailboxes() {
	switch {
	case k.sharedMailboxes:
		k.mailboxes = cloneMailboxes(k.mailboxes)
		k.sharedMailboxes = false
	case k.mailboxes == nil:
		k.mailboxes = make(map[string][][]byte)
	}
}

// PostMessage enqueues a process-input message for MsgRecv. World builders
// and the process-input fault appliers use it directly.
func (k *Kernel) PostMessage(mailbox string, data []byte) {
	k.ownMailboxes()
	k.mailboxes[mailbox] = append(k.mailboxes[mailbox], append([]byte(nil), data...))
}

// PeekMailbox returns the queued messages for a mailbox (for perturbation
// and tests).
func (k *Kernel) PeekMailbox(mailbox string) [][]byte { return k.mailboxes[mailbox] }

// MailboxNames returns every mailbox with queued messages, sorted. World
// composition uses it to carry one member world's process-input queues
// into a merged kernel.
func (k *Kernel) MailboxNames() []string {
	names := make([]string, 0, len(k.mailboxes))
	for name, msgs := range k.mailboxes {
		if len(msgs) > 0 {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}

// SetMailbox replaces a mailbox queue.
func (k *Kernel) SetMailbox(mailbox string, msgs [][]byte) {
	k.ownMailboxes()
	k.mailboxes[mailbox] = msgs
}

// New returns a kernel with a fresh filesystem, account database, and
// interaction bus. Network and registry substrates are optional; attach
// them directly when a world needs them.
func New() *Kernel {
	return &Kernel{
		FS:        vfs.New(),
		Users:     proc.NewUsers(),
		Bus:       interpose.NewBus(),
		programs:  make(map[string]Program),
		mailboxes: make(map[string][][]byte),
	}
}

// RegisterProgram installs a program image at the given absolute path.
// Exec of that (resolved) path runs the program in a child process.
func (k *Kernel) RegisterProgram(path string, prog Program) {
	if k.sharedPrograms {
		k.programs = maps.Clone(k.programs)
		k.sharedPrograms = false
	}
	k.programs[path] = prog
}

// NewProc creates a process with the given credentials, environment, and
// working directory. The process shares env with the caller and copies
// it on its first Setenv, so a launch environment can seed any number
// of processes without a copy each; nothing the process does writes
// into env.
func (k *Kernel) NewProc(cred proc.Cred, env proc.Env, cwd string, args ...string) *Proc {
	k.nextPID++
	if cwd == "" {
		cwd = "/"
	}
	return &Proc{
		K:         k,
		PID:       k.nextPID,
		Cred:      cred,
		Umask:     0o022,
		Env:       env,
		Args:      args,
		Cwd:       cwd,
		envShared: true,
	}
}

// Crash is the uncontrolled-failure outcome of a simulated memory error
// (e.g. an unchecked buffer copy). The Fuzz comparison counts crashes; the
// EAI oracle treats them as failed toleration too.
type Crash struct {
	Msg string
}

// Error implements error.
func (c *Crash) Error() string { return "crash: " + c.Msg }

// Run executes prog in process p, converting a simulated memory error into
// a Crash result instead of unwinding the test harness. Exit code 139
// (SIGSEGV-style) is reported for crashes.
func (k *Kernel) Run(p *Proc, prog Program) (exit int, crash *Crash) {
	defer func() {
		if r := recover(); r != nil {
			c, ok := r.(*Crash)
			if !ok {
				panic(r)
			}
			exit, crash = 139, c
		}
	}()
	return prog(p), nil
}

// Proc is a simulated process. All syscalls are methods on Proc so every
// interaction carries the caller's credentials.
type Proc struct {
	K     *Kernel
	PID   int
	Cred  proc.Cred
	Umask vfs.Mode
	Env   proc.Env
	Args  []string
	Cwd   string

	Stdout bytes.Buffer
	Stderr bytes.Buffer

	// envShared marks Env as borrowed (from the launch description or
	// the parent process): Setenv copies it before the first write.
	envShared bool

	// call and res are the interaction records every syscall of this
	// process reuses: begin copies the caller's Call into call, and end
	// copies the Result into res around the bus, so the records the
	// syscalls build stay off the heap. Begin/end pairs never nest on one
	// Proc (a child process brings its own), and hooks may use the
	// records only while they run.
	call interpose.Call
	res  interpose.Result
}

// Printf writes formatted output to the process's stdout, which the
// security oracle treats as invoker-visible.
func (p *Proc) Printf(format string, args ...any) {
	fmt.Fprintf(&p.Stdout, format, args...)
}

// Eprintf writes formatted output to stderr.
func (p *Proc) Eprintf(format string, args ...any) {
	fmt.Fprintf(&p.Stderr, format, args...)
}

// Crash aborts the process with a simulated memory error.
func (p *Proc) Crash(format string, args ...any) {
	panic(&Crash{Msg: fmt.Sprintf(format, args...)})
}

// CopyBounded models the classic unchecked strcpy into a fixed buffer: if
// src exceeds the buffer, the process crashes (simulating the memory
// corruption a real overflow causes). It returns the number of bytes
// copied.
func (p *Proc) CopyBounded(dst []byte, src []byte) int {
	if len(src) > len(dst) {
		p.Crash("buffer overflow: copying %d bytes into %d-byte buffer", len(src), len(dst))
	}
	return copy(dst, src)
}

// SetEUID changes the effective uid. Permitted when the process is
// privileged, or when switching among the real and saved uids (seteuid
// semantics — a set-UID program may drop privilege and regain it).
func (p *Proc) SetEUID(uid int) error {
	if p.Cred.EUID != 0 && uid != p.Cred.UID && uid != p.Cred.SUID {
		return fmt.Errorf("%w: seteuid(%d) from euid %d", ErrPerm, uid, p.Cred.EUID)
	}
	p.Cred.EUID = uid
	return nil
}

// begin copies lit into the process's call record, stamps it, and
// dispatches it through the bus. The returned record stays valid until
// the next begin on this process. lit is only read, never kept, which
// is what lets the caller's literal stay on the stack.
func (p *Proc) begin(lit *interpose.Call) *interpose.Call {
	p.call = *lit
	c := &p.call
	c.UID = p.Cred.UID
	c.EUID = p.Cred.EUID
	c.GID = p.Cred.GID
	c.EGID = p.Cred.EGID
	c.Cwd = p.Cwd
	p.K.Bus.Begin(c)
	return c
}

// end completes the call on the bus: r is copied into the process's
// result record for the post-hooks, and the possibly perturbed result is
// copied back into r.
func (p *Proc) end(c *interpose.Call, r *interpose.Result, resolved string) {
	p.res = *r
	p.K.Bus.End(c, &p.res, resolved)
	*r = p.res
}
