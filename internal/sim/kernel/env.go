package kernel

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/interpose"
	"repro/internal/sim/vfs"
)

// Getenv reads an environment variable through the bus — the
// environment-variable input channel of Table 5. Missing variables return
// the empty string, as with getenv(3).
func (p *Proc) Getenv(site, name string) string {
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpGetenv, Kind: interpose.KindEnvVar, Path: name,
	})
	val, ok := p.Env[c.Path]
	r := &interpose.Result{Flag: ok}
	if ok {
		r.Data = []byte(val)
	}
	p.end(c, r, c.Path)
	return string(r.Data)
}

// Setenv writes an environment variable.
func (p *Proc) Setenv(site, name, value string) {
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpSetenv, Kind: interpose.KindEnvVar,
		Path: name, Data: []byte(value),
	})
	if p.envShared {
		p.Env = p.Env.Clone()
		p.envShared = false
	}
	p.Env[c.Path] = string(c.Data)
	p.end(c, &interpose.Result{}, c.Path)
}

// argvNames holds the object names of the first argument indices, so
// Arg names them without formatting.
var argvNames = [...]string{
	"argv[0]", "argv[1]", "argv[2]", "argv[3]", "argv[4]", "argv[5]", "argv[6]", "argv[7]",
	"argv[8]", "argv[9]", "argv[10]", "argv[11]", "argv[12]", "argv[13]", "argv[14]", "argv[15]",
}

// argvName returns "argv[i]".
func argvName(i int) string {
	if i >= 0 && i < len(argvNames) {
		return argvNames[i]
	}
	return "argv[" + strconv.Itoa(i) + "]"
}

// Arg fetches the i'th command-line argument through the bus — the user
// input channel of Table 5. Out-of-range indices return "".
func (p *Proc) Arg(site string, i int) string {
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpArg, Kind: interpose.KindArg,
		Path: argvName(i), Flags: i,
	})
	var val string
	if c.Flags >= 0 && c.Flags < len(p.Args) {
		val = p.Args[c.Flags]
	}
	r := &interpose.Result{Data: []byte(val)}
	p.end(c, r, c.Path)
	return string(r.Data)
}

// NArgs returns the argument count (no interaction: the count is not
// environment data, the values are).
func (p *Proc) NArgs() int { return len(p.Args) }

// Umask0 models umask(0): it returns the previous mask. The permission-mask
// perturbation of Table 5 targets the mask an application inherits.
func (p *Proc) SetUmask(mask vfs.Mode) vfs.Mode {
	old := p.Umask
	p.Umask = mask & 0o777
	return old
}

// Exec runs the program at path with the given arguments in a child
// process and returns its exit code. Names without a slash are resolved
// through the PATH environment variable — an *implicit* environment
// interaction (the paper's example of an internal entity used invisibly by
// a system call), surfaced on the bus with an ":PATH!implicit" site suffix.
// If the resolved file carries the set-UID (set-GID) bit, the child runs
// with the file owner's effective uid (gid).
func (p *Proc) Exec(site, path string, argv ...string) (int, error) {
	lookPath := path
	if !strings.Contains(path, "/") {
		dirs := splitPathList(p.Getenv(site+":PATH!implicit", "PATH"))
		found := ""
		for _, d := range dirs {
			cand := d + "/" + path
			if n, err := p.K.FS.Lookup(p.Cwd, cand); err == nil && n.Type == vfs.TypeRegular {
				found = cand
				break
			}
		}
		if found == "" {
			// Still record the failed exec interaction.
			c := p.begin(&interpose.Call{
				Site: site, Op: interpose.OpExec, Kind: interpose.KindFile, Path: path,
			})
			r := &interpose.Result{Err: missErr(ErrNotFound, "", path)}
			p.end(c, r, "")
			return 127, r.Err
		}
		lookPath = found
	}

	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpExec, Kind: interpose.KindFile, Path: lookPath,
	})
	var (
		exit     int
		resolved string
		err      error
	)
	exit, resolved, err = p.execResolved(c.Path, argv)
	r := &interpose.Result{N: exit, Err: err}
	p.end(c, r, resolved)
	return r.N, r.Err
}

// ExecTrusted is exec with an ownership check atomic with the exec itself
// (the fexecve discipline): the binary must be owned by requireUID and
// grant no write to group or other at the moment of execution. A
// stat-then-exec sequence leaves a TOCTTOU window that environment
// perturbation exploits; this call closes it.
func (p *Proc) ExecTrusted(site, path string, requireUID int, argv ...string) (int, error) {
	c := p.begin(&interpose.Call{
		Site: site, Op: interpose.OpExec, Kind: interpose.KindFile, Path: path,
	})
	var (
		exit     int
		resolved string
		err      error
	)
	res, rerr := p.K.FS.Resolve(p.Cwd, c.Path, true)
	switch {
	case rerr != nil:
		exit, err = 126, rerr
	case res.Node == nil:
		exit, resolved, err = 127, res.Path, missErr(vfs.ErrNotExist, "", res.Path)
	case res.Node.UID != requireUID || res.Node.Mode&0o022 != 0:
		exit, resolved, err = 126, res.Path,
			fmt.Errorf("%w: %s not exclusively owned by uid %d", ErrPerm, res.Path, requireUID)
	default:
		exit, resolved, err = p.execResolved(c.Path, argv)
	}
	r := &interpose.Result{N: exit, Err: err}
	p.end(c, r, resolved)
	return r.N, r.Err
}

func (p *Proc) execResolved(path string, argv []string) (int, string, error) {
	res, err := p.K.FS.Resolve(p.Cwd, path, true)
	if err != nil {
		return 126, "", err
	}
	if res.Node == nil {
		return 127, res.Path, missErr(vfs.ErrNotExist, "", res.Path)
	}
	if res.Node.Type != vfs.TypeRegular {
		return 126, res.Path, missErr(ErrNoExec, "", res.Path)
	}
	if !vfs.Allows(res.Node, p.Cred.EUID, p.Cred.EGID, vfs.WantExec) {
		return 126, res.Path, missErr(ErrPerm, "exec ", res.Path)
	}

	// The child shares the environment and copies it on its first
	// Setenv. The parent cannot write it meanwhile: the child runs to
	// completion inside this call.
	child := p.K.NewProc(p.Cred, p.Env, p.Cwd, argv...)
	if res.Node.Mode&vfs.ModeSetUID != 0 {
		child.Cred.EUID = res.Node.UID
		child.Cred.SUID = res.Node.UID
	}
	if res.Node.Mode&vfs.ModeSetGID != 0 {
		child.Cred.EGID = res.Node.GID
	}

	prog, ok := p.K.programs[res.Path]
	if !ok {
		// Unknown image: simulate a successful run. The exec *event* is
		// what the security oracle cares about.
		return 0, res.Path, nil
	}
	exit, crash := p.K.Run(child, prog)
	// Child output is visible on the parent's terminal.
	p.Stdout.Write(child.Stdout.Bytes())
	p.Stderr.Write(child.Stderr.Bytes())
	if crash != nil {
		return exit, res.Path, crash
	}
	return exit, res.Path, nil
}

// splitPathList splits a colon-separated PATH value, dropping empties.
func splitPathList(v string) []string {
	if v == "" {
		return nil
	}
	parts := strings.Split(v, ":")
	out := parts[:0]
	for _, p := range parts {
		if p != "" {
			out = append(out, p)
		}
	}
	return out
}
