// Package simil implements the paper's AIG dissimilarity framework: the
// four traditional graph similarity measures adapted to AIGs (Vertex-Edge
// Overlap, NetSimile, Weisfeiler-Lehman kernel, Adjacency Spectral
// Distance), the proposed AIG-specific metrics (Relative Gate Count,
// Relative Level Count, the Rewrite/Refactor/Resub Scores, and the RRR
// Score), and the post-optimization Relative Optimizability Difference
// benchmark (Eq. 1).
package simil

import (
	"math"

	"repro/internal/aig"
	"repro/internal/graph"
	"repro/internal/opt"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// Artifacts is a bitmask of the per-graph artifact families a Profile
// can carry. Splitting the families apart lets batch consumers (the
// aigd service, the harness's O(n²) pair loop) compute exactly the
// per-graph work the requested metrics need — once per graph, never
// once per pair.
type Artifacts uint32

// The artifact families, one per independent precomputation.
const (
	NeedOverlap   Artifacts = 1 << iota // vertex/edge sets (VEO)
	NeedNetSimile                       // 35-dim NetSimile signature
	NeedWL                              // Weisfeiler-Lehman histogram
	NeedSpectrum                        // top-k adjacency eigenvalues (ASD)
	NeedOptScores                       // single-step reduction vector (Eq. 3/4)
	NeedSketch                          // MinHash/simhash retrieval signature

	// AllArtifacts requests every family.
	AllArtifacts = NeedOverlap | NeedNetSimile | NeedWL | NeedSpectrum | NeedOptScores | NeedSketch
)

// Profile holds per-AIG precomputations so that pairwise metric
// evaluation over many pairs stays cheap: each artifact is computed once
// per AIG, not once per pair.
type Profile struct {
	A      *aig.AIG
	Gates  int
	Levels int

	// has records which artifact families were computed.
	has Artifacts

	// Traditional-metric artifacts over the undirected skeleton.
	vertices map[int]bool
	edges    map[[2]int]bool
	features [35]float64 // NetSimile signature: 7 features x 5 aggregates
	wlHist   map[string]int
	spectrum []float64

	// Single-step optimization reductions (rewrite, refactor, resub),
	// the r_i(A) of Eq. 3/4.
	reductions [3]float64

	// Retrieval sketch over the WL histogram and NetSimile features
	// (NeedSketch; implies both parent families).
	sig *sketch.Signature
}

// ProfileOptions tunes profile construction.
type ProfileOptions struct {
	// Seed feeds the Lanczos starting vector.
	Seed int64
}

// Profile construction constants: the number of adjacency eigenvalues
// kept for the spectral distance (a practical NetComp-style k) and the
// number of Weisfeiler-Lehman refinements.
const (
	spectrumK    = 20
	wlIterations = 3
)

// NewProfile computes all metric artifacts for one AIG.
func NewProfile(a *aig.AIG, opts ProfileOptions) *Profile {
	return NewProfileFor(a, opts, AllArtifacts)
}

// NewProfileFor computes exactly the artifact families in needs (plus
// the always-cheap gate and level counts). Batch consumers that know
// which metrics a request asks for pass Needs(metrics) to skip the
// unneeded per-graph work entirely — the single-step optimization runs
// dominate profile cost, so a request for the traditional metrics only
// never pays for them.
func NewProfileFor(a *aig.AIG, opts ProfileOptions, needs Artifacts) *Profile {
	p := &Profile{A: a, Gates: a.NumAnds(), Levels: a.NumLevels()}
	p.add(a, opts, needs)
	return p
}

// add computes the artifact families in needs that p does not yet hold,
// in place. The caller must ensure p was built from the same AIG and
// options; the service's profile cache uses it to upgrade a cached
// partial profile instead of recomputing families it already has.
func (p *Profile) add(a *aig.AIG, opts ProfileOptions, needs Artifacts) {
	// The sketch is derived from the WL histogram and the NetSimile
	// features, so requesting it pulls in both parents.
	if needs&NeedSketch != 0 {
		needs |= NeedWL | NeedNetSimile
	}
	needs &^= p.has
	if needs == 0 {
		return
	}
	var und *graph.Graph
	if needs&(NeedOverlap|NeedNetSimile|NeedWL|NeedSpectrum) != 0 {
		und = graph.FromAIG(a)
	}

	if needs&NeedOverlap != 0 {
		// Vertex and edge sets under the consistent node numbering.
		p.vertices = make(map[int]bool)
		p.edges = make(map[[2]int]bool)
		for id := 1; id < a.NumObjs(); id++ {
			p.vertices[id] = true
		}
		for _, e := range und.Edges() {
			p.edges[e] = true
		}
	}

	if needs&NeedNetSimile != 0 {
		// NetSimile signature.
		feats := und.NetSimileFeatures()
		for fi := 0; fi < 7; fi++ {
			agg := stats.Aggregate(feats[fi][1:]) // node 0 (constant) excluded
			copy(p.features[fi*5:fi*5+5], agg[:])
		}
	}

	if needs&NeedWL != 0 {
		// Weisfeiler-Lehman label histogram.
		p.wlHist = wlHistogram(und, wlIterations)
	}

	if needs&NeedSpectrum != 0 {
		// Adjacency spectrum.
		p.spectrum = und.TopEigenvalues(spectrumK, opts.Seed+1)
	}

	if needs&NeedOptScores != 0 {
		p.reductions = OptReductions(a)
	}

	if needs&NeedSketch != 0 {
		// Both parents are guaranteed present: either computed above or
		// already in p.has from an earlier staged build.
		p.sig = sketch.New(p.wlHist, p.features[:])
	}
	p.has |= needs
}

// Has reports the artifact families this profile carries.
func (p *Profile) Has() Artifacts { return p.has }

// Sketch returns the profile's retrieval signature, or nil when
// NeedSketch was never requested.
func (p *Profile) Sketch() *sketch.Signature { return p.sig }

// Extend computes, in place, any artifact families in needs that the
// profile does not yet carry, using the profile's own AIG. Callers that
// cache profiles (the aigd service) use it to upgrade a cached partial
// profile instead of rebuilding families it already has. Pass the same
// ProfileOptions the profile was built with: options are part of the
// artifact definition, and mixing them would silently mix metrics.
func (p *Profile) Extend(opts ProfileOptions, needs Artifacts) {
	p.add(p.A, opts, needs)
}

// OptReductions computes the single-step reduction ratios
// (G(A)-G(A^opt))/G(A) for rewriting, refactoring, and resubstitution —
// the building blocks of the paper's Eq. 3 and Eq. 4.
func OptReductions(a *aig.AIG) [3]float64 {
	g := float64(a.NumAnds())
	if g == 0 {
		return [3]float64{}
	}
	rw := opt.RewriteOnce(a, opt.RewriteOptions{})
	rf := opt.RefactorOnce(a, opt.RefactorOptions{})
	rs := opt.ResubOnce(a, opt.ResubOptions{})
	return [3]float64{
		(g - float64(rw.NumAnds())) / g,
		(g - float64(rf.NumAnds())) / g,
		(g - float64(rs.NumAnds())) / g,
	}
}

// Reductions exposes the profile's single-step reduction vector.
func (p *Profile) Reductions() [3]float64 { return p.reductions }

// --- Traditional measures (Section IV-A) -------------------------------

// VEO computes the Vertex-Edge Overlap similarity (Papadimitriou et al.):
// 2*(|V∩V'| + |E∩E'|) / (|V|+|V'|+|E|+|E'|). 1 means identical, 0 fully
// disjoint. Higher = more similar.
func VEO(p1, p2 *Profile) float64 {
	sharedV := 0
	for v := range p1.vertices {
		if p2.vertices[v] {
			sharedV++
		}
	}
	sharedE := 0
	for e := range p1.edges {
		if p2.edges[e] {
			sharedE++
		}
	}
	den := len(p1.vertices) + len(p2.vertices) + len(p1.edges) + len(p2.edges)
	if den == 0 {
		return 1
	}
	return 2 * float64(sharedV+sharedE) / float64(den)
}

// NetSimile computes the Canberra distance between the two graphs'
// 35-dimensional NetSimile signatures. Higher = more different.
func NetSimile(p1, p2 *Profile) float64 {
	return stats.Canberra(p1.features[:], p2.features[:])
}

// WLKernel computes the normalized Weisfeiler-Lehman subtree kernel:
// the dot product of label histograms accumulated over the refinement
// iterations, normalized so identical graphs score 1. Higher = more
// similar.
func WLKernel(p1, p2 *Profile) float64 {
	dot := func(a, b map[string]int) float64 {
		s := 0.0
		for l, c := range a {
			if c2, ok := b[l]; ok {
				s += float64(c) * float64(c2)
			}
		}
		return s
	}
	k12 := dot(p1.wlHist, p2.wlHist)
	k11 := dot(p1.wlHist, p1.wlHist)
	k22 := dot(p2.wlHist, p2.wlHist)
	if k11 == 0 || k22 == 0 {
		return 0
	}
	return k12 / math.Sqrt(k11*k22)
}

// ASD computes the Adjacency Spectral Distance: the Euclidean distance
// between the top-k adjacency eigenvalues (shorter spectra are
// zero-padded). Higher = more different.
func ASD(p1, p2 *Profile) float64 {
	n := len(p1.spectrum)
	if len(p2.spectrum) > n {
		n = len(p2.spectrum)
	}
	a := make([]float64, n)
	b := make([]float64, n)
	copy(a, p1.spectrum)
	copy(b, p2.spectrum)
	return stats.Euclidean(a, b)
}

// wlHistogram runs Weisfeiler-Lehman label refinement and accumulates
// label counts across iterations (iteration 0 uses degrees as labels).
func wlHistogram(g *graph.Graph, iterations int) map[string]int {
	hist := make(map[string]int)
	labels := make([]string, g.N)
	for u := 0; u < g.N; u++ {
		labels[u] = itoa(g.Degree(u))
		hist["0:"+labels[u]]++
	}
	for it := 1; it <= iterations; it++ {
		next := make([]string, g.N)
		for u := 0; u < g.N; u++ {
			nb := g.Neighbors(u)
			ns := make([]string, len(nb))
			for i, v := range nb {
				ns[i] = labels[v]
			}
			sortStrings(ns)
			sig := labels[u]
			for _, s := range ns {
				sig += "|" + s
			}
			next[u] = hashLabel(sig)
			hist[itoa(it)+":"+next[u]]++
		}
		labels = next
	}
	return hist
}

// --- Proposed AIG-specific measures (Section IV-B) ---------------------

// RGC computes the Relative Gate Count difference (Eq. 2):
// |G1-G2| / (G1+G2). Higher = more different.
func RGC(p1, p2 *Profile) float64 {
	den := p1.Gates + p2.Gates
	if den == 0 {
		return 0
	}
	return math.Abs(float64(p1.Gates-p2.Gates)) / float64(den)
}

// RLC computes the Relative Level Count difference, the level-depth
// analogue of Eq. 2. Higher = more different.
func RLC(p1, p2 *Profile) float64 {
	den := p1.Levels + p2.Levels
	if den == 0 {
		return 0
	}
	return math.Abs(float64(p1.Levels-p2.Levels)) / float64(den)
}

// Operator indexes the single-operator scores.
type Operator int

// The three optimization operators of Eq. 3.
const (
	OpRewrite Operator = iota
	OpRefactor
	OpResub
)

// OpScore computes the single-operator score of Eq. 3: the absolute
// difference of the two AIGs' single-step reduction ratios under the
// given operator. Higher = more different.
func OpScore(p1, p2 *Profile, op Operator) float64 {
	return math.Abs(p1.reductions[op] - p2.reductions[op])
}

// RewriteScore is Eq. 3 with the rewriting operator.
func RewriteScore(p1, p2 *Profile) float64 { return OpScore(p1, p2, OpRewrite) }

// RefactorScore is Eq. 3 with the refactoring operator.
func RefactorScore(p1, p2 *Profile) float64 { return OpScore(p1, p2, OpRefactor) }

// ResubScore is Eq. 3 with the resubstitution operator.
func ResubScore(p1, p2 *Profile) float64 { return OpScore(p1, p2, OpResub) }

// RRRScore computes Eq. 4: the Euclidean distance between the two AIGs'
// (rewrite, refactor, resub) reduction vectors. Higher = more different.
func RRRScore(p1, p2 *Profile) float64 {
	s := 0.0
	for i := 0; i < 3; i++ {
		d := p1.reductions[i] - p2.reductions[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// --- Benchmark (Section III-B) ------------------------------------------

// ROD computes the Relative Optimizability Difference (Eq. 1) from the
// gate counts of the two fully optimized AIGs:
// |G1*-G2*| / max(G1*, G2*).
func ROD(gates1, gates2 int) float64 {
	mx := gates1
	if gates2 > mx {
		mx = gates2
	}
	if mx == 0 {
		return 0
	}
	return math.Abs(float64(gates1-gates2)) / float64(mx)
}

// --- Metric registry -----------------------------------------------------

// Kind distinguishes the two metric families of the paper.
type Kind int

// Metric families.
const (
	Traditional Kind = iota
	AIGSpecific
)

// Metric is a named pairwise dissimilarity/similarity measure.
type Metric struct {
	Name string
	Kind Kind
	// HigherIsSimilar records the metric's direction: VEO and the WL
	// kernel grow with similarity, the others with difference. The paper
	// reports correlation strength regardless of sign.
	HigherIsSimilar bool
	// Needs lists the profile artifact families the metric reads; both
	// sides of a Compute call must carry at least these.
	Needs   Artifacts
	Compute func(p1, p2 *Profile) float64
}

// Needs returns the union of the artifact families the given metrics
// read — what a batch consumer must precompute per graph.
func Needs(metrics []Metric) Artifacts {
	var n Artifacts
	for _, m := range metrics {
		n |= m.Needs
	}
	return n
}

// Metrics returns all eleven pairwise measures in the paper's order
// (Table I then Table II, with the three operator scores and RRR).
func Metrics() []Metric {
	return []Metric{
		{"VEO", Traditional, true, NeedOverlap, VEO},
		{"NetSimile", Traditional, false, NeedNetSimile, NetSimile},
		{"WLKernel", Traditional, true, NeedWL, WLKernel},
		{"ASD", Traditional, false, NeedSpectrum, ASD},
		{"RGC", AIGSpecific, false, 0, RGC},
		{"RLC", AIGSpecific, false, 0, RLC},
		{"RewriteScore", AIGSpecific, false, NeedOptScores, RewriteScore},
		{"RefactorScore", AIGSpecific, false, NeedOptScores, RefactorScore},
		{"ResubScore", AIGSpecific, false, NeedOptScores, ResubScore},
		{"RRRScore", AIGSpecific, false, NeedOptScores, RRRScore},
	}
}

// MetricByName returns the named metric.
func MetricByName(name string) (Metric, bool) {
	for _, m := range Metrics() {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}
