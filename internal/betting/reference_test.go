package betting

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"kpa/internal/core"
	"kpa/internal/gen"
	"kpa/internal/rat"
	"kpa/internal/registry"
	"kpa/internal/system"
)

// TestMinExpectedWinningsRefAgrees pins the analytic MinExpectedWinnings
// against its brute-force spec MinExpectedWinningsRef on every space of
// every core.Opponent(sys, j) assignment, where p_j's local state is
// constant, over the registry's fixed systems with each of their
// propositions and over generated systems with random facts: for each α
// in {1/3, 1/2, 2/3, 1} both return the same value, and each one's
// witness strategy attains it under ExpectedWinnings.
func TestMinExpectedWinningsRefAgrees(t *testing.T) {
	type fixture struct {
		name  string
		sys   *system.System
		facts []system.Fact
	}
	var fixtures []fixture
	for _, name := range registry.Names() {
		if strings.Contains(name, ":") {
			continue // async:N and scale:TIER take a parameter
		}
		e, err := registry.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		props := make([]string, 0, len(e.Props))
		for p := range e.Props {
			props = append(props, p)
		}
		sort.Strings(props)
		fx := fixture{name: name, sys: e.Sys}
		for _, p := range props {
			fx.facts = append(fx.facts, e.Props[p])
		}
		fixtures = append(fixtures, fx)
	}
	rng := rand.New(rand.NewSource(20260808))
	for k := 0; k < 6; k++ {
		sys := gen.MustSystem(rng, gen.DefaultConfig())
		fixtures = append(fixtures, fixture{
			name:  fmt.Sprintf("gen %d", k),
			sys:   sys,
			facts: []system.Fact{gen.RandomFact(rng, sys, "phi"), gen.RandomRunFact(rng, sys, "psi")},
		})
	}
	alphas := []rat.Rat{rat.New(1, 3), rat.Half, rat.New(2, 3), rat.One}

	spaces := 0
	for _, fx := range fixtures {
		n := fx.sys.NumAgents()
		for j := system.AgentID(0); int(j) < n; j++ {
			P := core.NewProbAssignment(fx.sys, core.Opponent(fx.sys, j))
			for i := system.AgentID(0); int(i) < n; i++ {
				for _, d := range fx.sys.Points().Sorted() {
					sp, err := P.Space(i, d)
					if err != nil {
						t.Fatalf("%s: S^p%d for p%d at %v: %v", fx.name, j+1, i+1, d, err)
					}
					spaces++
					for _, phi := range fx.facts {
						for _, alpha := range alphas {
							r := MustRule(phi, alpha)
							at := fmt.Sprintf("%s, φ=%s, α=%s, S^p%d for p%d at %v", fx.name, phi, alpha, j+1, i+1, d)
							got, gotWitness, err := MinExpectedWinnings(sp, r, j)
							if err != nil {
								t.Fatalf("%s: MinExpectedWinnings: %v", at, err)
							}
							want, wantWitness, err := MinExpectedWinningsRef(sp, r, j)
							if err != nil {
								t.Fatalf("%s: MinExpectedWinningsRef: %v", at, err)
							}
							if !got.Equal(want) {
								t.Errorf("%s: MinExpectedWinnings = %s, MinExpectedWinningsRef = %s", at, got, want)
							}
							for _, w := range []struct {
								who     string
								value   rat.Rat
								witness Strategy
							}{{"MinExpectedWinnings", got, gotWitness}, {"MinExpectedWinningsRef", want, wantWitness}} {
								e, err := ExpectedWinnings(sp, r, w.witness, j)
								if err != nil {
									t.Fatalf("%s: %s's witness: %v", at, w.who, err)
								}
								if !e.Equal(w.value) {
									t.Errorf("%s: %s's witness %s wins %s, not its value %s", at, w.who, w.witness.Name(), e, w.value)
								}
							}
						}
					}
				}
			}
		}
	}
	if spaces == 0 {
		t.Fatal("no spaces checked")
	}
}
