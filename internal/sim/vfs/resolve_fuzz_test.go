package vfs

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// refResolve is the split-based walker Resolve used before the index walk:
// it splits the path into a component slice, rebuilds the resolved path by
// joining names, and recurses on every symlink splice. It stays here as the
// reference the differential fuzz test holds the index walk to.
func refResolve(fs *FS, cwd, p string, followLast bool) (Resolved, error) {
	abs := p
	if !strings.HasPrefix(abs, "/") {
		if cwd == "" {
			cwd = "/"
		}
		abs = strings.TrimSuffix(cwd, "/") + "/" + abs
	}
	return refWalk(fs, abs, followLast, 0)
}

// refSplit splits an absolute path into components, dropping empties and
// "." but preserving ".." for the walk to handle.
func refSplit(abs string) []string {
	parts := strings.Split(abs, "/")
	out := parts[:0]
	for _, c := range parts {
		if c == "" || c == "." {
			continue
		}
		out = append(out, c)
	}
	return out
}

func refWalk(fs *FS, abs string, followLast bool, depth int) (Resolved, error) {
	if depth > maxSymlinkDepth {
		return Resolved{}, fmt.Errorf("%w: %s", ErrLoop, abs)
	}
	comps := refSplit(abs)
	stack := []*Inode{fs.view(fs.root)}
	var names []string
	pathOf := func() string {
		if len(names) == 0 {
			return "/"
		}
		return "/" + strings.Join(names, "/")
	}
	for i := 0; i < len(comps); i++ {
		comp := comps[i]
		cur := stack[len(stack)-1]
		last := i == len(comps)-1
		if comp == ".." {
			if len(stack) > 1 {
				stack = stack[:len(stack)-1]
				names = names[:len(names)-1]
			}
			continue
		}
		if len(comp) > MaxNameLen {
			return Resolved{}, fmt.Errorf("%w: %q", ErrNameTooLong, comp)
		}
		if cur.Type != TypeDir {
			return Resolved{}, fmt.Errorf("%w: %s", ErrNotDir, pathOf())
		}
		next := fs.view(cur.kids[comp])
		if next == nil {
			if last {
				return Resolved{Parent: cur, Name: comp, Path: joinResolved(pathOf(), comp)}, nil
			}
			return Resolved{}, fmt.Errorf("%w: %s", ErrNotExist, joinResolved(pathOf(), comp))
		}
		if next.Type == TypeSymlink && (!last || followLast) {
			rest := strings.Join(comps[i+1:], "/")
			target := next.Target
			if !strings.HasPrefix(target, "/") {
				target = joinResolved(pathOf(), target)
			}
			if rest != "" {
				target = target + "/" + rest
			}
			return refWalk(fs, target, followLast, depth+1)
		}
		if last {
			return Resolved{Node: next, Parent: cur, Name: comp, Path: joinResolved(pathOf(), comp)}, nil
		}
		stack = append(stack, next)
		names = append(names, comp)
	}
	res := Resolved{Node: stack[len(stack)-1], Path: pathOf()}
	if len(stack) > 1 {
		res.Parent = stack[len(stack)-2]
		res.Name = names[len(names)-1]
	}
	return res, nil
}

// longName is one byte over MaxNameLen.
var longName = strings.Repeat("n", MaxNameLen+1)

// resolveNames are the entry names trees and paths draw from; the short
// pool makes paths hit existing entries often.
var resolveNames = []string{"a", "b", "c", "l1", "l2", "l3"}

// resolveTargets are symlink targets: absolute and relative, chains
// through other links, self-references that loop, and targets with ".",
// "..", "//" and trailing slashes of their own.
var resolveTargets = []string{
	"/a", "/a/b", "/b/c/", "a", "b/c", "..", "../a", "../../b", ".",
	"./a", "l1", "l2/a", "/l1", "/l2", "/a/l3", "//a//b", "/", "",
	"c/../l1", "/a/./b", longName,
}

// resolveTree builds a filesystem from script: each pair of bytes adds a
// directory, a file, or a symlink under a directory made so far.
func resolveTree(script []byte) *FS {
	fs := New()
	dirs := []string{"/"}
	for i := 0; i+1 < len(script); i += 2 {
		op, arg := script[i], script[i+1]
		dir := dirs[int(arg)%len(dirs)]
		p := joinResolved(dir, resolveNames[int(op>>2)%len(resolveNames)])
		switch op % 4 {
		case 0, 1:
			if _, err := fs.Mkdir("/", p, 0o755, 0, 0); err == nil {
				dirs = append(dirs, p)
			}
		case 2:
			_ = fs.WriteFile(p, []byte(p), 0o644, 0, 0)
		case 3:
			_, _ = fs.Symlink("/", resolveTargets[int(arg>>3)%len(resolveTargets)], p, 0, 0)
		}
	}
	return fs
}

// resolvePath renders walk as a path: each byte picks a name, "..", ".",
// an empty component (a doubled slash) or an over-long name. The first
// byte picks absolute or relative form and a trailing slash.
func resolvePath(walk []byte) string {
	if len(walk) == 0 {
		return ""
	}
	pool := append(append([]string{}, resolveNames...), "..", ".", "", longName)
	var b strings.Builder
	if walk[0]&1 == 0 {
		b.WriteByte('/')
	}
	for i, c := range walk[1:] {
		if i > 0 {
			b.WriteByte('/')
		}
		b.WriteString(pool[int(c)%len(pool)])
	}
	if walk[0]&2 != 0 {
		b.WriteByte('/')
	}
	return b.String()
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkResolve holds Resolve and Peek to the reference walker on one path.
func checkResolve(t *testing.T, fs *FS, cwd, p string, follow bool) {
	t.Helper()
	want, werr := refResolve(fs, cwd, p, follow)
	got, gerr := fs.Resolve(cwd, p, follow)
	if errText(gerr) != errText(werr) || got != want {
		t.Fatalf("Resolve(%q, %q, %v) = %+v, %v; reference %+v, %v",
			cwd, p, follow, got, gerr, want, werr)
	}
	if strings.HasPrefix(p, "/") {
		var wantNode *Inode
		if werr == nil {
			wantNode = want.Node
		}
		if n := fs.Peek(p, follow); n != wantNode {
			t.Fatalf("Peek(%q, %v) = %v; reference %v", p, follow, n, wantNode)
		}
	}
}

// TestResolveMatchesReference runs the reference comparison over a fixed
// tree that reaches every walk outcome: relative, absolute, chained and
// looping links, links whose targets carry "." and trailing slashes, paths
// deeper than the walk's fixed arrays, and each of the four walk errors.
func TestResolveMatchesReference(t *testing.T) {
	t.Parallel()
	fs := New()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	link := func(target, p string) {
		_, err := fs.Symlink("/", target, p, 0, 0)
		must(err)
	}
	must(fs.MkdirAll("/", "/a/b", 0o755, 0, 0))
	must(fs.WriteFile("/a/b/c", []byte("c"), 0o644, 0, 0))
	must(fs.WriteFile("/a/c", []byte("c"), 0o644, 0, 0))
	link("/a/b", "/l1")
	link("b", "/a/l2")
	link("../l2", "/a/b/l3")
	link("/loop", "/loop")
	link("p2", "/p1")
	link("p1", "/p2")
	link("/a/./b/", "/dotty")
	link("..", "/up")
	link(longName, "/long")
	// Past 16 levels the walk's fixed arrays spill to the heap.
	deep := strings.Repeat("/d", 20)
	must(fs.MkdirAll("/", deep, 0o755, 0, 0))
	link("../../../l1", deep+"/up3")

	paths := []string{
		deep, deep + "/", deep + "/up3/c", deep + "/../../d/x", deep + "/d/x/y",
		deep + strings.Repeat("/..", 19) + "/a",
		"/", "", ".", "..", "/a", "/a/", "a/b", "//a//b/", "/a/./b", "/a/../b",
		"/l1", "/l1/", "/l1/c", "/a/l2", "/a/l2/c", "/a/b/l3/../c", "/a/b/l3/l3/c",
		"/loop", "/loop/x", "/loop/./x//.", "/p1", "/p1/a", "/dotty/c", "/dotty/./c/", "/up/a/../up",
		"/long", "/long/x", "/x/y", "/x", "/a/c/x", "/a/b/c/", "/" + longName,
		"/a/" + longName + "/x", "l1/../l2/.", "../../l1/c",
	}
	seen := map[error]bool{}
	for _, cwd := range []string{"/", "/a", "/a/b/", "", "rel"} {
		for _, p := range paths {
			for _, follow := range []bool{true, false} {
				checkResolve(t, fs, cwd, p, follow)
				if _, err := fs.Resolve(cwd, p, follow); err != nil {
					for _, e := range []error{ErrLoop, ErrNameTooLong, ErrNotDir, ErrNotExist} {
						seen[e] = seen[e] || errors.Is(err, e)
					}
				}
			}
		}
	}
	for _, e := range []error{ErrLoop, ErrNameTooLong, ErrNotDir, ErrNotExist} {
		if !seen[e] {
			t.Errorf("no case reached %v", e)
		}
	}
}

// FuzzResolve is a differential test of the index walk: on random trees of
// directories, files and symlinks (relative, absolute, chained, looping),
// Resolve must return the same Resolved and the same error text as the
// split-based reference for every path, and Peek the same node.
func FuzzResolve(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0, 3, 0}, []byte{0, 3, 1}, true, uint8(0))
	f.Add([]byte{0, 0, 7, 64, 11, 72}, []byte{0, 3, 6, 0}, true, uint8(1))
	f.Add([]byte{0, 0, 4, 1, 15, 8, 19, 24}, []byte{2, 0, 1, 9, 7}, false, uint8(2))
	f.Add([]byte{3, 104, 7, 112}, []byte{1, 3, 8, 10}, true, uint8(3))
	f.Fuzz(func(t *testing.T, tree, walk []byte, follow bool, cwdSel uint8) {
		if len(tree) > 64 || len(walk) > 32 {
			return
		}
		fs := resolveTree(tree)
		cwd := []string{"/", "/a", "/a/b/", "", "/l1"}[int(cwdSel)%5]
		checkResolve(t, fs, cwd, resolvePath(walk), follow)
	})
}
