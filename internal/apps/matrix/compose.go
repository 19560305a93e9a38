package matrix

import (
	"strings"
	"sync"

	"repro/internal/apps"
	"repro/internal/core/eai"
	"repro/internal/core/inject"
	"repro/internal/core/policy"
	"repro/internal/sim/kernel"
	"repro/internal/sim/vfs"
)

// Compose builds a multi-site campaign spec from two or more member
// specs: one campaign whose world is the members' worlds merged and
// whose run executes every member program in sequence, so the clean
// trace — and with it the perturbable interaction-point surface —
// composes the members' traces. The paper's catalog perturbs one
// program per campaign; composition is the scenario-diversity axis the
// matrix adds on top: faults planted for one member's interaction
// points are live while the *other* members run, so cross-application
// propagation (lpr's spool attack corrupting the world turnin then
// trusts) is observable under the same oracle.
//
// Merge rules, all first-member-wins so a pair (a,b) is a perturbation
// of a's world rather than an unpredictable blend: filesystem nodes,
// fault-config scalars and read-target overrides come from the
// earliest member that defines them; users, mailboxes, semantics maps
// and trusted write paths are unioned; the network and registry
// substrates attach from the first member that has one. The launch
// (credentials, environment, cwd) is the first member's; later members
// run as their own processes inside the merged kernel with their own
// launch parameters, and their stdout is appended to the composite
// process's so the confidentiality oracle sees every member's output.
func Compose(members ...apps.Spec) apps.Spec {
	if len(members) < 2 {
		panic("matrix: Compose needs at least two member specs")
	}
	names := make([]string, len(members))
	sources := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
		sources[i] = m.Source
	}
	name := strings.Join(names, "+")
	build := func(variant func(apps.Spec) func() inject.Campaign) func() inject.Campaign {
		// One memoized world image per variant: matrix cells regenerate
		// the campaign value per cell, but the merged composition world is
		// identical across cells (only engine options and site cuts
		// differ), so every cell forks one shared frozen snapshot instead
		// of re-grafting the member worlds. The launch carries the member
		// programs, so the image cannot be shared across variants.
		var (
			imgOnce sync.Once
			img     *inject.WorldImage
		)
		return func() inject.Campaign {
			cs := make([]inject.Campaign, len(members))
			for i, m := range members {
				cs[i] = variant(m)()
			}
			c := composeCampaign(name, cs)
			imgOnce.Do(func() { img = inject.NewWorldImage(c.World) })
			c.World = img.Factory()
			return c
		}
	}
	return apps.Spec{
		Name:       name,
		Source:     strings.Join(sources, "+"),
		Paper:      "multi-site composition (matrix axis; not a paper campaign)",
		Vulnerable: build(func(s apps.Spec) func() inject.Campaign { return s.Vulnerable }),
		Fixed:      build(func(s apps.Spec) func() inject.Campaign { return s.Fixed }),
	}
}

// composeCampaign merges member campaigns into one.
func composeCampaign(name string, members []inject.Campaign) inject.Campaign {
	c := inject.Campaign{
		Name:      name,
		World:     composeWorld(members),
		Policy:    composePolicy(members),
		Faults:    composeFaults(members),
		Sites:     composeSites(members),
		Semantics: composeSemantics(members),
	}
	return c
}

// composeWorld builds the merged kernel and the sequential launch.
func composeWorld(members []inject.Campaign) inject.Factory {
	return func() (*kernel.Kernel, inject.Launch) {
		base, first := members[0].World()
		launches := []inject.Launch{first}
		for _, m := range members[1:] {
			k, l := m.World()
			graftWorld(base, k)
			launches = append(launches, l)
		}
		launch := first
		launch.Prog = composeProgram(launches)
		return base, launch
	}
}

// composeProgram runs each member program in order inside one kernel.
// The first member runs on the launch process itself; later members get
// their own processes with their member launch parameters, and their
// output is folded into the launch process's stdout/stderr so the
// oracle observes it. The composite exit code is the first non-zero
// member exit. A simulated memory error in any member unwinds to
// kernel.Run's recover exactly as it would in a solo campaign.
func composeProgram(launches []inject.Launch) kernel.Program {
	return func(p *kernel.Proc) int {
		exit := launches[0].Prog(p)
		for _, l := range launches[1:] {
			q := p.K.NewProc(l.Cred, l.Env, l.Cwd, l.Args...)
			e := func() int {
				// Fold the member's output in even when it crashes —
				// the panic unwinds to kernel.Run's recover, and the
				// oracle must still see what the member printed first
				// (a leak followed by a crash is still a leak).
				defer func() {
					p.Stdout.Write(q.Stdout.Bytes())
					p.Stderr.Write(q.Stderr.Bytes())
				}()
				return l.Prog(q)
			}()
			if exit == 0 {
				exit = e
			}
		}
		return exit
	}
}

// graftWorld merges the src kernel's state into dst. Existing dst state
// wins every conflict; graft errors (a file under a path dst holds as a
// non-directory, say) are deliberately ignored — the merge is a
// deterministic best effort, and a member program that misses a file
// simply fails the way the oracle can observe.
func graftWorld(dst, src *kernel.Kernel) {
	for _, u := range src.Users.All() {
		// Guard by uid AND name: Users.Add replaces both indexes, so a
		// same-named account at a different uid would clobber the first
		// member's name lookup.
		if _, ok := dst.Users.ByUID(u.UID); ok {
			continue
		}
		if _, ok := dst.Users.ByName(u.Name); ok {
			continue
		}
		dst.Users.Add(u)
	}
	src.FS.Walk(func(p string, n *vfs.Inode) {
		if p == "/" {
			return
		}
		if _, err := dst.FS.LookupNoFollow("/", p); err == nil {
			return
		}
		switch n.Type {
		case vfs.TypeDir:
			dst.FS.Mkdir("/", p, n.Mode, n.UID, n.GID)
		case vfs.TypeRegular:
			dst.FS.WriteFile(p, n.Data, n.Mode, n.UID, n.GID)
		case vfs.TypeSymlink:
			dst.FS.Symlink("/", n.Target, p, n.UID, n.GID)
		}
	})
	if dst.Net == nil {
		dst.Net = src.Net
	}
	if dst.Reg == nil {
		dst.Reg = src.Reg
	}
	for _, name := range src.MailboxNames() {
		if len(dst.PeekMailbox(name)) == 0 {
			dst.SetMailbox(name, src.PeekMailbox(name))
		}
	}
}

// composePolicy keeps the first member's principals and oracle knobs
// and unions the trusted write paths, so every member's legitimate
// writes stay non-violations.
func composePolicy(members []inject.Campaign) policy.Policy {
	pol := members[0].Policy
	var trusted []string
	for _, m := range members {
		trusted = append(trusted, m.Policy.TrustedWritePaths...)
	}
	pol.TrustedWritePaths = trusted
	return pol
}

// composeFaults merges the members' fault configurations: first member
// wins each scalar, read-target overrides union with first-wins per
// object.
func composeFaults(members []inject.Campaign) eai.Config {
	cfg := members[0].Faults
	overrides := map[string]string{}
	for obj, t := range cfg.ReadTargetOverrides {
		overrides[obj] = t
	}
	for _, m := range members[1:] {
		f := m.Faults
		if cfg.AttackerDir == "" {
			cfg.AttackerDir = f.AttackerDir
		}
		if cfg.ReadTarget == "" {
			cfg.ReadTarget = f.ReadTarget
		}
		if cfg.WriteTarget == "" {
			cfg.WriteTarget = f.WriteTarget
		}
		if cfg.DirTarget == "" {
			cfg.DirTarget = f.DirTarget
		}
		if len(cfg.AttackerContent) == 0 {
			cfg.AttackerContent = f.AttackerContent
		}
		if cfg.EvilHost == "" {
			cfg.EvilHost = f.EvilHost
		}
		for obj, t := range f.ReadTargetOverrides {
			if _, ok := overrides[obj]; !ok {
				overrides[obj] = t
			}
		}
	}
	if len(overrides) > 0 {
		cfg.ReadTargetOverrides = overrides
	}
	return cfg
}

// composeSites unions the members' site selections. All members
// unrestricted composes to unrestricted; otherwise an unrestricted
// member contributes its whole surface as "<prefix>:*" patterns
// derived from its own clean trace (site labels carry the program's
// prefix, which may differ from the campaign name — ntreg-updater
// labels its sites "updater:..."), so a restricted member's
// deliberate exclusions survive the merge.
func composeSites(members []inject.Campaign) []string {
	restricted := false
	for _, m := range members {
		if len(m.Sites) > 0 {
			restricted = true
			break
		}
	}
	if !restricted {
		return nil
	}
	var sites []string
	for _, m := range members {
		if len(m.Sites) > 0 {
			sites = append(sites, m.Sites...)
			continue
		}
		sites = append(sites, sitePrefixPatterns(m)...)
	}
	return sites
}

// sitePrefixPatterns enumerates the member's solo clean-trace sites
// and returns one "<prefix>:*" pattern per distinct label prefix, in
// first-hit order. The campaign name is the fallback when the member
// cannot be probed.
func sitePrefixPatterns(m inject.Campaign) []string {
	sites, err := inject.CleanSites(m)
	if err != nil {
		return []string{m.Name + ":*"}
	}
	seen := map[string]bool{}
	var patterns []string
	for _, site := range sites {
		prefix := site
		if i := strings.Index(site, ":"); i >= 0 {
			prefix = site[:i]
		}
		if seen[prefix] {
			continue
		}
		seen[prefix] = true
		patterns = append(patterns, prefix+":*")
	}
	return patterns
}

// composeSemantics unions the members' semantic annotations; site
// labels are app-prefixed, so the maps are disjoint.
func composeSemantics(members []inject.Campaign) map[string]eai.Semantic {
	out := map[string]eai.Semantic{}
	for _, m := range members {
		for site, sem := range m.Semantics {
			if _, ok := out[site]; !ok {
				out[site] = sem
			}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}
