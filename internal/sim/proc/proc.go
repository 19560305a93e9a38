// Package proc models process identity for the simulated kernel: user
// accounts, real/effective credentials (the substrate for set-UID
// semantics), and the process environment table.
//
// The paper's case studies all hinge on privilege separation: lpr and
// turnin run set-UID root on behalf of an unprivileged invoker, and the
// security oracle judges every environment access against the *invoker's*
// real credentials. This package supplies those identities.
package proc

import (
	"fmt"
	"maps"
	"sort"
)

// Cred is a POSIX-style credential set. The real ids identify the invoking
// user; the effective ids govern access checks and change on set-UID exec;
// the saved uid (SUID) lets a set-UID program drop privilege temporarily
// and regain it, as seteuid(2) permits.
type Cred struct {
	UID, GID   int
	EUID, EGID int
	SUID       int
}

// NewCred returns credentials with effective and saved ids equal to real
// ids.
func NewCred(uid, gid int) Cred {
	return Cred{UID: uid, GID: gid, EUID: uid, EGID: gid, SUID: uid}
}

// Privileged reports whether the effective uid is root.
func (c Cred) Privileged() bool { return c.EUID == 0 }

// Elevated reports whether the process runs with an effective uid different
// from its real uid — the set-UID condition under which environment faults
// become security-relevant.
func (c Cred) Elevated() bool { return c.EUID != c.UID }

// String renders credentials as "uid=100 euid=0 gid=100 egid=0".
func (c Cred) String() string {
	return fmt.Sprintf("uid=%d euid=%d gid=%d egid=%d", c.UID, c.EUID, c.GID, c.EGID)
}

// User is an entry in the simulated account database.
type User struct {
	Name string
	UID  int
	GID  int
}

// Users is the account database for a simulated world.
type Users struct {
	byName map[string]User
	byUID  map[int]User
	// shared marks the maps as borrowed from the database this one was
	// forked from; the first Add copies them.
	shared bool
}

// NewUsers returns a database pre-populated with root (uid 0).
func NewUsers() *Users {
	u := &Users{byName: make(map[string]User), byUID: make(map[int]User)}
	u.Add(User{Name: "root", UID: 0, GID: 0})
	return u
}

// Add inserts or replaces an account.
func (u *Users) Add(user User) {
	if u.shared {
		u.byName = maps.Clone(u.byName)
		u.byUID = maps.Clone(u.byUID)
		u.shared = false
	}
	u.byName[user.Name] = user
	u.byUID[user.UID] = user
}

// ByName looks up an account by name.
func (u *Users) ByName(name string) (User, bool) {
	user, ok := u.byName[name]
	return user, ok
}

// ByUID looks up an account by uid.
func (u *Users) ByUID(uid int) (User, bool) {
	user, ok := u.byUID[uid]
	return user, ok
}

// NameOf returns the account name for uid, or "uid:<n>" when unknown.
func (u *Users) NameOf(uid int) string {
	if user, ok := u.byUID[uid]; ok {
		return user.Name
	}
	return fmt.Sprintf("uid:%d", uid)
}

// All returns every account sorted by uid.
func (u *Users) All() []User {
	out := make([]User, 0, len(u.byUID))
	for _, user := range u.byUID {
		out = append(out, user)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].UID < out[j].UID })
	return out
}

// Fork returns a copy-on-write view of the account database: it shares
// the receiver's tables until its first Add copies them. World snapshot
// forks use it, so a fork's account edits never leak into the frozen base
// image and a fork that edits no account copies nothing. The receiver
// must not be edited while forks read it.
func (u *Users) Fork() *Users {
	return &Users{byName: u.byName, byUID: u.byUID, shared: true}
}

// Env is a process environment table. Unlike a plain map it preserves no
// order guarantee but supports cloning, which exec and fault snapshots
// need.
type Env map[string]string

// NewEnv returns an environment populated from pairs of key, value strings.
// It panics when given an odd number of arguments, as that is a programming
// error at world-construction time.
func NewEnv(pairs ...string) Env {
	if len(pairs)%2 != 0 {
		panic("proc.NewEnv: odd number of arguments")
	}
	e := make(Env, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		e[pairs[i]] = pairs[i+1]
	}
	return e
}

// Clone returns an independent copy of the environment.
func (e Env) Clone() Env {
	c := make(Env, len(e))
	for k, v := range e {
		c[k] = v
	}
	return c
}

// Keys returns the variable names in sorted order.
func (e Env) Keys() []string {
	keys := make([]string, 0, len(e))
	for k := range e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
