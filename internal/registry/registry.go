// Package registry names the library's example systems for the CLI tools:
// each entry bundles a built system with the primitive propositions usable
// in formulas over it.
package registry

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"kpa/internal/canon"
	"kpa/internal/coordattack"
	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/system"
	"kpa/internal/twoaces"
)

// Entry is a named example system together with its primitive propositions,
// for use by the CLI tools.
type Entry struct {
	// Name is the registry key.
	Name string
	// Description summarizes the system and its paper section.
	Description string
	// Sys is the built system.
	Sys *system.System
	// Props maps proposition names usable in formulas to facts.
	Props map[string]system.Fact
}

// Lookup builds the named example system. Recognized names:
//
//	introcoin        the introduction's three-agent coin toss
//	vardi            §3's fair-vs-biased coin (two trees)
//	die              §5's fair die
//	async:N          §7's clockless N-coin system (e.g. async:10)
//	biased           §7's pts-vs-state biased coin
//	fig1             Figure 1's labelled tree
//	ca1, ca2, ca3, canever   §4/§8 coordinated attack protocols (ca3 adaptive)
//	aces-fixed, aces-random   App. B.1's two-aces protocols
//	scale:TIER       deterministic benchmark broom (scale:100k, scale:1m, scale:10m)
func Lookup(name string) (Entry, error) {
	switch {
	case name == "introcoin":
		sys := canon.IntroCoin()
		return Entry{
			Name:        name,
			Description: "introduction: p3 tosses a fair coin; p1, p2 never learn it",
			Sys:         sys,
			Props: map[string]system.Fact{
				"heads": canon.Heads(),
				"tails": system.Not(canon.Heads()),
			},
		}, nil
	case name == "vardi":
		sys := canon.VardiCoin()
		return Entry{
			Name:        name,
			Description: "§3: input bit selects a fair or 2/3-biased coin (two trees)",
			Sys:         sys,
			Props: map[string]system.Fact{
				"heads": canon.Heads(),
			},
		}, nil
	case name == "die":
		sys := canon.Die()
		props := map[string]system.Fact{"even": canon.Even()}
		for f := 1; f <= 6; f++ {
			props["face"+strconv.Itoa(f)] = canon.DieFace(f)
		}
		return Entry{
			Name:        name,
			Description: "§5: a fair die p2 never sees",
			Sys:         sys,
			Props:       props,
		}, nil
	case strings.HasPrefix(name, "async:"):
		n, ok := asyncCount(strings.TrimPrefix(name, "async:"))
		if !ok {
			return Entry{}, fmt.Errorf("registry: async:N needs 1 ≤ N ≤ 12, got %q", name)
		}
		sys := canon.AsyncCoins(n)
		return Entry{
			Name:        name,
			Description: fmt.Sprintf("§7: %d clock-tick coin tosses, p1 clockless", n),
			Sys:         sys,
			Props: map[string]system.Fact{
				"lastHeads": canon.LastTossHeads(),
				"allHeads":  canon.AllHeads(sys),
			},
		}, nil
	case name == "biased":
		sys := canon.BiasedPtsState()
		return Entry{
			Name:        name,
			Description: "§7: 99/100-biased coin separating pts from state adversaries",
			Sys:         sys,
			Props: map[string]system.Fact{
				"headsRun": canon.CoinLandsHeads(sys),
			},
		}, nil
	case name == "fig1":
		return Entry{
			Name:        name,
			Description: "Figure 1's labelled computation tree",
			Sys:         canon.Fig1(),
			Props:       map[string]system.Fact{},
		}, nil
	case name == "ca1" || name == "ca2" || name == "ca3" || name == "canever":
		variant := coordattack.VariantCA1
		switch name {
		case "ca2":
			variant = coordattack.VariantCA2
		case "ca3":
			variant = coordattack.VariantCA3
		case "canever":
			variant = coordattack.VariantNever
		}
		sys, err := coordattack.Build(variant, coordattack.DefaultConfig())
		if err != nil {
			return Entry{}, err
		}
		return Entry{
			Name:        name,
			Description: "§4/§8: probabilistic coordinated attack (" + variant.String() + ")",
			Sys:         sys,
			Props: map[string]system.Fact{
				"coordinated": coordattack.Coordinated(),
				"Aattacks": system.NewFact("Aattacks", func(p system.Point) bool {
					return coordattack.Attacks(coordattack.GeneralA, p)
				}),
				"Battacks": system.NewFact("Battacks", func(p system.Point) bool {
					return coordattack.Attacks(coordattack.GeneralB, p)
				}),
			},
		}, nil
	case name == "aces-fixed" || name == "aces-random":
		variant := twoaces.VariantFixedQuestions
		if name == "aces-random" {
			variant = twoaces.VariantRandomAce
		}
		sys, err := twoaces.Build(variant)
		if err != nil {
			return Entry{}, err
		}
		return Entry{
			Name:        name,
			Description: "App. B.1: Freund's two aces (" + variant.String() + ")",
			Sys:         sys,
			Props: map[string]system.Fact{
				"bothAces": twoaces.BothAces(),
				"hasAce":   twoaces.HoldsAce(),
				"hasAS":    twoaces.HoldsAceOfSpades(),
			},
		}, nil
	case strings.HasPrefix(name, "scale:"):
		tier := strings.TrimPrefix(name, "scale:")
		cfg, ok := gen.ScaleTiers[tier]
		if !ok {
			tiers := make([]string, 0, len(gen.ScaleTiers))
			for t := range gen.ScaleTiers {
				tiers = append(tiers, t)
			}
			sort.Strings(tiers)
			return Entry{}, fmt.Errorf("registry: unknown scale tier %q (try %s)",
				tier, strings.Join(tiers, ", "))
		}
		sys, err := gen.ScaleSystem(cfg)
		if err != nil {
			return Entry{}, err
		}
		return Entry{
			Name: name,
			Description: fmt.Sprintf("benchmark broom: %d agents, %d runs × %d steps = %d points",
				cfg.NumAgents, cfg.NumRuns, cfg.RunLen, cfg.NumPoints()),
			Sys: sys,
			Props: map[string]system.Fact{
				"m2": gen.ScaleFact("m2", 2),
				"m3": gen.ScaleFact("m3", 3),
				"m5": gen.ScaleFact("m5", 5),
			},
		}, nil
	default:
		return Entry{}, fmt.Errorf("registry: unknown system %q (try %s)",
			name, strings.Join(Names(), ", "))
	}
}

// Reserved reports whether Lookup accepts the name, without building the
// system: a fixed name, async:N with 1 ≤ N ≤ 12, or scale: plus a key of
// gen.ScaleTiers. Uploads may not take a reserved name.
func Reserved(name string) bool {
	if rest, ok := strings.CutPrefix(name, "async:"); ok {
		_, ok = asyncCount(rest)
		return ok
	}
	if tier, ok := strings.CutPrefix(name, "scale:"); ok {
		_, ok = gen.ScaleTiers[tier]
		return ok
	}
	return slices.Contains(fixedNames, name)
}

// asyncCount parses the N of async:N, which must be 1 ≤ N ≤ 12.
func asyncCount(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 1 && n <= 12
}

// Assignment resolves a probability-assignment name for the system.
// Recognized names:
//
//	post     the postfix assignment (future branching resolved)
//	fut      the future assignment
//	prior    the prior assignment
//	opp:J    agent J (1-based) is the opponent
//
// The CLI tools and the query service share this resolution so the names
// and error messages stay in sync.
func Assignment(sys *system.System, name string) (core.SampleAssignment, error) {
	switch {
	case name == "post":
		return core.Post(sys), nil
	case name == "fut":
		return core.Future(sys), nil
	case name == "prior":
		return core.Prior(sys), nil
	case strings.HasPrefix(name, "opp:"):
		j, err := strconv.Atoi(strings.TrimPrefix(name, "opp:"))
		if err != nil || j < 1 || j > sys.NumAgents() {
			return nil, fmt.Errorf("opp:J needs 1 ≤ J ≤ %d, got %q", sys.NumAgents(), name)
		}
		return core.Opponent(sys, system.AgentID(j-1)), nil
	default:
		return nil, fmt.Errorf("unknown assignment %q (post, fut, prior, opp:J)", name)
	}
}

// fixedNames are the registry's names that take no parameter.
var fixedNames = []string{
	"introcoin", "vardi", "die", "biased", "fig1",
	"ca1", "ca2", "ca3", "canever", "aces-fixed", "aces-random",
}

// Names lists the registry's fixed names and its two parameterized
// patterns, async:N and scale:TIER.
func Names() []string {
	names := append(slices.Clone(fixedNames), "async:N", "scale:TIER")
	sort.Strings(names)
	return names
}
