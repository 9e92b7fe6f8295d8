package measure

import (
	"fmt"

	"kpa/internal/rat"
	"kpa/internal/system"
)

// This file mechanizes the classical attainability result Appendix B.2
// quotes from Halmos [Hal50]: the inner and outer measures of a set are
// not just bounds — they are attained by probability spaces extending the
// original one in which the set becomes measurable.
//
// In our point spaces an extension is a distribution of each run's mass
// among the points of its fiber (the original space constrains only the
// fiber totals). PointMeasure represents such an extension explicitly.

// PointMeasure is a full distribution over the points of a sample space —
// an extension of the induced space in which every point set is
// measurable. It refines the fiber σ-algebra: the mass of each fiber
// equals the conditional run probability, so every originally-measurable
// set keeps its measure.
type PointMeasure struct {
	space *Space
	mass  map[system.Point]rat.Rat
}

// Mass returns the mass of a single point.
func (m *PointMeasure) Mass(p system.Point) rat.Rat { return m.mass[p] }

// Prob returns the measure of an arbitrary point set (everything is
// measurable in the extension).
func (m *PointMeasure) Prob(set system.PointSet) rat.Rat {
	acc := rat.Zero
	for p := range set {
		if w, ok := m.mass[p]; ok {
			acc = acc.Add(w)
		}
	}
	return acc
}

// validExtension checks that the point masses refine the space: each
// fiber's total equals the run's conditional probability.
func (m *PointMeasure) validExtension() error {
	totals := make(map[int]rat.Rat)
	for p, w := range m.mass {
		if w.Sign() < 0 {
			return fmt.Errorf("measure: negative point mass at %v", p)
		}
		t, ok := totals[p.Run]
		if !ok {
			t = rat.Zero
		}
		totals[p.Run] = t.Add(w)
	}
	for _, r := range m.space.runs {
		want := m.space.Tree().RunProb(r).Div(m.space.BaseProb())
		got, ok := totals[r]
		if !ok || !got.Equal(want) {
			return fmt.Errorf("measure: fiber of run %d has mass %v, want %s", r, got, want)
		}
	}
	return nil
}

// ExtendAttainingInner returns an extension of the space in which the
// given set's measure equals its inner measure: each run's mass goes to a
// point outside the set whenever the fiber has one.
func (s *Space) ExtendAttainingInner(set system.PointSet) (*PointMeasure, error) {
	return s.extend(set, true)
}

// ExtendAttainingOuter returns an extension in which the set's measure
// equals its outer measure: each run's mass goes to a point inside the set
// whenever the fiber has one.
func (s *Space) ExtendAttainingOuter(set system.PointSet) (*PointMeasure, error) {
	return s.extend(set, false)
}

func (s *Space) extend(set system.PointSet, avoid bool) (*PointMeasure, error) {
	in := set.Intersect(s.sample)
	mass := make(map[system.Point]rat.Rat, s.sample.Len())
	for p := range s.sample {
		mass[p] = rat.Zero
	}
	// Choose one carrier point per run, deterministically.
	carrier := make(map[int]system.Point)
	for _, p := range s.sample.Sorted() {
		cur, ok := carrier[p.Run]
		if !ok {
			carrier[p.Run] = p
			continue
		}
		curIn, pIn := in.Contains(cur), in.Contains(p)
		if avoid && curIn && !pIn {
			carrier[p.Run] = p
		}
		if !avoid && !curIn && pIn {
			carrier[p.Run] = p
		}
	}
	for r, p := range carrier {
		mass[p] = s.tree.RunProb(r).Div(s.base)
	}
	m := &PointMeasure{space: s, mass: mass}
	if err := m.validExtension(); err != nil {
		return nil, err
	}
	return m, nil
}
