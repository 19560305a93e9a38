package registry

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func newTestReg(t *testing.T) *Registry {
	t.Helper()
	r := New()
	if _, err := r.CreateKey(`HKLM\Software\Fonts\Cleanup`, UnprotectedACL()); err != nil {
		t.Fatal(err)
	}
	if err := r.SetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", `C:\Fonts\old.fon`, System); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CreateKey(`HKLM\Software\Logon`, DefaultACL()); err != nil {
		t.Fatal(err)
	}
	if err := r.SetString(`HKLM\Software\Logon`, "ProfileDir", `C:\Profiles`, System); err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCreateAndGet(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	s, err := r.GetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", Everyone)
	if err != nil || s != `C:\Fonts\old.fon` {
		t.Fatalf("GetString = %q, %v", s, err)
	}
	if _, err := r.GetString(`HKLM\Software\Fonts\Cleanup`, "Missing", Everyone); !errors.Is(err, ErrNoValue) {
		t.Errorf("missing value err = %v", err)
	}
	if _, err := r.GetString(`HKLM\No\Such\Key`, "x", Everyone); !errors.Is(err, ErrNoKey) {
		t.Errorf("missing key err = %v", err)
	}
	if _, err := r.GetString(`NOHIVE\x`, "x", Everyone); !errors.Is(err, ErrNoKey) {
		t.Errorf("missing hive err = %v", err)
	}
}

func TestACLEnforcement(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	// Everyone can write the unprotected key.
	if err := r.SetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", `C:\boot.ini`, Everyone); err != nil {
		t.Errorf("unprotected write: %v", err)
	}
	// Everyone cannot write the protected key.
	if err := r.SetString(`HKLM\Software\Logon`, "ProfileDir", `\\evil\share`, Everyone); !errors.Is(err, ErrAccess) {
		t.Errorf("protected write err = %v", err)
	}
	// Administrator can.
	if err := r.SetString(`HKLM\Software\Logon`, "ProfileDir", `C:\P2`, Administrator); err != nil {
		t.Errorf("admin write: %v", err)
	}
	// SYSTEM holds a superset of Administrator.
	if err := r.SetString(`HKLM\Software\Logon`, "ProfileDir", `C:\P3`, System); err != nil {
		t.Errorf("system write: %v", err)
	}
}

func TestPrincipalHierarchy(t *testing.T) {
	t.Parallel()
	acl := ACL{AuthenticatedUser: RightWrite}
	if !acl.Grants(System, RightWrite) {
		t.Error("SYSTEM must inherit AuthenticatedUser grants")
	}
	if !acl.Grants(Administrator, RightWrite) {
		t.Error("Administrator must inherit AuthenticatedUser grants")
	}
	if acl.Grants(Everyone, RightWrite) {
		t.Error("Everyone must not inherit AuthenticatedUser grants")
	}
}

func TestDWord(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	if err := r.SetDWord(`HKLM\Software\Logon`, "Timeout", 30, System); err != nil {
		t.Fatal(err)
	}
	d, err := r.GetDWord(`HKLM\Software\Logon`, "Timeout", Everyone)
	if err != nil || d != 30 {
		t.Fatalf("GetDWord = %d, %v", d, err)
	}
	// Type confusion rejected.
	if _, err := r.GetString(`HKLM\Software\Logon`, "Timeout", Everyone); !errors.Is(err, ErrNoValue) {
		t.Errorf("string read of dword err = %v", err)
	}
	if _, err := r.GetDWord(`HKLM\Software\Logon`, "ProfileDir", Everyone); !errors.Is(err, ErrNoValue) {
		t.Errorf("dword read of string err = %v", err)
	}
}

func TestDeleteValue(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	if err := r.DeleteValue(`HKLM\Software\Fonts\Cleanup`, "FontFile", Everyone); !errors.Is(err, ErrAccess) {
		t.Errorf("everyone delete on unprotected (write-only) key err = %v", err)
	}
	if err := r.DeleteValue(`HKLM\Software\Fonts\Cleanup`, "FontFile", Administrator); err != nil {
		t.Errorf("admin delete: %v", err)
	}
	if err := r.DeleteValue(`HKLM\Software\Fonts\Cleanup`, "FontFile", Administrator); !errors.Is(err, ErrNoValue) {
		t.Errorf("double delete err = %v", err)
	}
}

func TestUnprotectedKeys(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	keys := r.UnprotectedKeys()
	if len(keys) != 1 || keys[0] != `HKLM\Software\Fonts\Cleanup` {
		t.Errorf("UnprotectedKeys = %v", keys)
	}
	// Protect it and the inventory empties.
	if err := r.SetACL(`HKLM\Software\Fonts\Cleanup`, DefaultACL()); err != nil {
		t.Fatal(err)
	}
	if got := r.UnprotectedKeys(); len(got) != 0 {
		t.Errorf("after SetACL: %v", got)
	}
}

func TestIntermediateKeysProtected(t *testing.T) {
	t.Parallel()
	r := New()
	if _, err := r.CreateKey(`HKLM\A\B\C`, UnprotectedACL()); err != nil {
		t.Fatal(err)
	}
	keys := r.UnprotectedKeys()
	if len(keys) != 1 || keys[0] != `HKLM\A\B\C` {
		t.Errorf("only the leaf should be unprotected: %v", keys)
	}
}

func TestBadPaths(t *testing.T) {
	t.Parallel()
	r := New()
	for _, p := range []string{"", `HKLM\\x`, `\leading`} {
		if _, err := r.CreateKey(p, DefaultACL()); !errors.Is(err, ErrBadPath) {
			t.Errorf("CreateKey(%q) err = %v, want ErrBadPath", p, err)
		}
	}
}

func TestOpenReadDenied(t *testing.T) {
	t.Parallel()
	r := New()
	secret := ACL{System: RightRead | RightWrite}
	if _, err := r.CreateKey(`HKLM\SAM\Secrets`, secret); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Open(`HKLM\SAM\Secrets`, Everyone); !errors.Is(err, ErrAccess) {
		t.Errorf("read of SYSTEM-only key err = %v", err)
	}
	if _, err := r.Open(`HKLM\SAM\Secrets`, System); err != nil {
		t.Errorf("SYSTEM read: %v", err)
	}
}

func TestWalkDeterministic(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	var a, b []string
	r.Walk(func(p string, k *Key) { a = append(a, p) })
	r.Walk(func(p string, k *Key) { b = append(b, p) })
	if len(a) != len(b) {
		t.Fatal("walk lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("walk order differs at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestClone(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	c := r.Clone()
	if err := c.SetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", `C:\evil`, Everyone); err != nil {
		t.Fatal(err)
	}
	if err := c.SetACL(`HKLM\Software\Logon`, UnprotectedACL()); err != nil {
		t.Fatal(err)
	}
	orig, err := r.GetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", Everyone)
	if err != nil || orig != `C:\Fonts\old.fon` {
		t.Errorf("original value changed: %q, %v", orig, err)
	}
	if len(r.UnprotectedKeys()) != 1 {
		t.Error("original ACLs changed by clone mutation")
	}
}

func TestValueAndSubkeyNames(t *testing.T) {
	t.Parallel()
	r := newTestReg(t)
	k, err := r.Open(`HKLM\Software`, Everyone)
	if err != nil {
		t.Fatal(err)
	}
	subs := k.SubkeyNames()
	if len(subs) != 2 || subs[0] != "Fonts" || subs[1] != "Logon" {
		t.Errorf("SubkeyNames = %v", subs)
	}
	fc, err := r.Open(`HKLM\Software\Fonts\Cleanup`, Everyone)
	if err != nil {
		t.Fatal(err)
	}
	if names := fc.ValueNames(); len(names) != 1 || names[0] != "FontFile" {
		t.Errorf("ValueNames = %v", names)
	}
}

func TestPrincipalString(t *testing.T) {
	t.Parallel()
	if System.String() != "SYSTEM" || Everyone.String() != "Everyone" {
		t.Error("Principal.String mismatch")
	}
}

// Property: a right granted to Everyone is granted to every principal.
func TestEveryoneGrantUniversal(t *testing.T) {
	t.Parallel()
	f := func(rights uint8) bool {
		r := Rights(rights) & (RightRead | RightWrite | RightDelete)
		acl := ACL{Everyone: r}
		for _, p := range []Principal{System, Administrator, AuthenticatedUser, Everyone} {
			if r != 0 && !acl.Grants(p, r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// dump renders every key with its ACL and values, for whole-forest
// comparisons.
func dump(r *Registry) string {
	var b strings.Builder
	r.Walk(func(path string, k *Key) {
		fmt.Fprintf(&b, "%s unprotected=%v\n", path, k.Unprotected())
		for _, n := range k.ValueNames() {
			fmt.Fprintf(&b, "  %s=%+v\n", n, k.values[n])
		}
	})
	return b.String()
}

// TestForkIsolation: every mutator, applied through one fork, leaves the
// frozen base and a sibling fork unchanged, and the fork reads back its
// own writes.
func TestForkIsolation(t *testing.T) {
	t.Parallel()
	base := newTestReg(t)
	base.Freeze()
	want := dump(base)

	a, b := base.Fork(), base.Fork()
	if err := a.SetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", `C:\evil`, Everyone); err != nil {
		t.Fatal(err)
	}
	if err := a.SetDWord(`HKLM\Software\Fonts\Cleanup`, "Count", 7, Everyone); err != nil {
		t.Fatal(err)
	}
	if err := a.DeleteValue(`HKLM\Software\Logon`, "ProfileDir", System); err != nil {
		t.Fatal(err)
	}
	if err := a.SetACL(`HKLM\Software\Logon`, UnprotectedACL()); err != nil {
		t.Fatal(err)
	}
	if _, err := a.CreateKey(`HKCU\Evil\Run`, UnprotectedACL()); err != nil {
		t.Fatal(err)
	}

	if got := dump(base); got != want {
		t.Errorf("fork writes reached the frozen base:\n%s\nwant\n%s", got, want)
	}
	if got := dump(b); got != want {
		t.Errorf("fork writes reached a sibling fork:\n%s\nwant\n%s", got, want)
	}
	if s, err := a.GetString(`HKLM\Software\Fonts\Cleanup`, "FontFile", Everyone); err != nil || s != `C:\evil` {
		t.Errorf("fork reads back %q, %v", s, err)
	}
	if _, err := a.GetString(`HKLM\Software\Logon`, "ProfileDir", Everyone); !errors.Is(err, ErrNoValue) {
		t.Errorf("fork still sees its deleted value: %v", err)
	}
	if len(a.UnprotectedKeys()) != 3 {
		t.Errorf("fork unprotected keys = %v", a.UnprotectedKeys())
	}
}
