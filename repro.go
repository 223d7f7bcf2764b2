// Package repro is the public facade of the Bias-by-Design
// reproduction: structural-diversity quantification for And-Inverter
// Graphs (Gardner et al., DATE 2025).
//
// The library lets a synthesis flow generate structurally diverse,
// functionally equivalent AIGs for a Boolean function, measure their
// pairwise structural dissimilarity before optimization (RRR Score and
// friends), and use those measurements to decide which starting points
// are worth optimizing — the paper's antidote to structural bias.
//
// Subsystem packages: internal/tt (truth tables), internal/aig (the
// graph), internal/aiger (I/O), internal/synth (seven synthesis
// recipes), internal/opt (rewrite/refactor/resub/balance + flows),
// internal/simil (the metrics), internal/harness (the paper's
// experiment).
package repro

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/aig"
	"repro/internal/opt"
	"repro/internal/simil"
	"repro/internal/sop"
	"repro/internal/synth"
	"repro/internal/tt"
)

// Variant is one synthesized implementation of a function.
type Variant struct {
	Recipe  string
	AIG     *aig.AIG
	Profile *simil.Profile
}

// SynthesizeAll builds the function with every recipe and profiles each
// result, ready for pairwise diversity measurement.
func SynthesizeAll(spec []tt.TT) []Variant {
	var out []Variant
	for _, r := range synth.Recipes() {
		g := r.Build(spec)
		out = append(out, Variant{
			Recipe:  r.Name,
			AIG:     g,
			Profile: simil.NewProfile(g, simil.ProfileOptions{}),
		})
	}
	return out
}

// PairScore is the RRR Score between two variants.
type PairScore struct {
	A, B  string
	Score float64
}

// DiversityMatrix computes the pairwise RRR Scores of the variants,
// sorted most-diverse first.
func DiversityMatrix(vs []Variant) []PairScore {
	var out []PairScore
	for i := 0; i < len(vs); i++ {
		for j := i + 1; j < len(vs); j++ {
			out = append(out, PairScore{
				A:     vs[i].Recipe,
				B:     vs[j].Recipe,
				Score: simil.RRRScore(vs[i].Profile, vs[j].Profile),
			})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Score > out[b].Score })
	return out
}

// SelectDiverse greedily picks k variants maximizing the minimum pairwise
// RRR Score — the paper's recipe for choosing which parallel optimization
// runs are worth paying for. The first pick is the variant with the best
// single-step reduction potential.
func SelectDiverse(vs []Variant, k int) []Variant {
	if k >= len(vs) {
		return vs
	}
	if k <= 0 {
		return nil
	}
	// Seed with the variant with the largest reduction vector norm.
	best := 0
	bestNorm := -1.0
	for i, v := range vs {
		r := v.Profile.Reductions()
		n := r[0]*r[0] + r[1]*r[1] + r[2]*r[2]
		if n > bestNorm {
			best, bestNorm = i, n
		}
	}
	chosen := []int{best}
	for len(chosen) < k {
		next, nextScore := -1, -1.0
		for i := range vs {
			if containsInt(chosen, i) {
				continue
			}
			// Minimum distance to the chosen set.
			minD := -1.0
			for _, c := range chosen {
				d := simil.RRRScore(vs[i].Profile, vs[c].Profile)
				if minD < 0 || d < minD {
					minD = d
				}
			}
			if minD > nextScore {
				next, nextScore = i, minD
			}
		}
		chosen = append(chosen, next)
	}
	out := make([]Variant, len(chosen))
	for i, c := range chosen {
		out[i] = vs[c]
	}
	return out
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Optimize runs the named flow (orchestrate, dc2, deepsyn) on the AIG.
// When ctx is done the flow returns its best equivalent AIG so far.
func Optimize(ctx context.Context, g *aig.AIG, flow string, seed int64) (*aig.AIG, error) {
	f, err := opt.FlowByName(flow)
	if err != nil {
		return nil, err
	}
	return f.RunCtx(ctx, g, seed), nil
}

// OptimizeBest optimizes every given variant with the flow and returns
// the smallest result along with the recipe that produced it.
func OptimizeBest(ctx context.Context, vs []Variant, flow string, seed int64) (*aig.AIG, string, error) {
	if len(vs) == 0 {
		return nil, "", fmt.Errorf("repro: no variants to optimize")
	}
	f, err := opt.FlowByName(flow)
	if err != nil {
		return nil, "", err
	}
	var best *aig.AIG
	bestRecipe := ""
	for _, v := range vs {
		og := f.RunCtx(ctx, v.AIG, seed)
		if best == nil || og.NumAnds() < best.NumAnds() {
			best, bestRecipe = og, v.Recipe
		}
	}
	return best, bestRecipe, nil
}

// sopMinCubes reports the espresso-minimized cube count of a function
// (used by the two-level minimization ablation bench).
func sopMinCubes(f tt.TT) int {
	return sop.MinimizeTT(f).NumCubes()
}
