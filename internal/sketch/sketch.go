// Package sketch implements the sub-quadratic similarity layer of the
// serving stack: fixed-size structural signatures cheap enough to
// compute once per AIG and compare in nanoseconds, so that full
// ten-metric evaluation — the expensive part of the paper's framework —
// is spent only on pairs a sketch says are worth it.
//
// Two sketch families cover the two cheap profile artifacts the
// similarity framework already computes per graph:
//
//   - a MinHash signature over the Weisfeiler-Lehman label multiset
//     (MinHashK independent permutations of the multiset elements; the
//     fraction of matching slots is an unbiased estimate of the
//     multiset Jaccard similarity, which tracks the WL subtree kernel);
//   - a signed-random-projection bit signature (simhash) over the
//     35-dimensional NetSimile feature vector (FeatBits hyperplanes;
//     Hamming distance estimates the angular distance between feature
//     vectors, which tracks the Canberra-based NetSimile metric).
//
// Both signatures are banded for locality-sensitive retrieval: two
// graphs land in the same bucket of some band exactly when a contiguous
// run of their signature agrees, so near-duplicates collide with high
// probability and unrelated graphs almost never do.
//
// Determinism contract: the hash family, the permutation parameters,
// and the projection hyperplanes are all derived from fixed
// compile-time seeds, never from process state. A given WL histogram
// and feature vector therefore always produces the same signature —
// on every node of a cluster and across restarts. The service's cache
// and replication invariants (a hit is bit-identical to fresh
// computation) extend to sketches only because of this.
package sketch

import (
	"hash/fnv"
	"math"
)

// Sketch geometry. Two signatures are comparable only when they were
// built under the same geometry, which is why these are constants and
// not options.
const (
	// MinHashK is the number of MinHash permutations. 128 slots put the
	// standard error of the Jaccard estimate around 1/sqrt(128) ≈ 0.09.
	MinHashK = 128
	// wlBandRows rows per band: a WL band collides when 4 consecutive
	// permutation minima all agree, i.e. with probability j^4 for true
	// Jaccard j — steep enough to separate near-duplicates from noise.
	wlBandRows = 4
	// WLBands is the number of WL banding buckets per signature.
	WLBands = MinHashK / wlBandRows

	// FeatureDim is the NetSimile signature dimension (7 features × 5
	// aggregates) the projection hyperplanes are sized for.
	FeatureDim = 35
	// FeatBits is the number of random-projection sign bits.
	FeatBits  = 128
	featWords = FeatBits / 64
	// featBandBits bits per feature band (one byte of the bit vector).
	featBandBits = 8
	// FeatBands is the number of feature banding buckets per signature.
	FeatBands = FeatBits / featBandBits
)

// familySeed roots every derived hash parameter. Fixed by design: see
// the package comment's determinism contract.
const familySeed uint64 = 0x51e7c4_a11ab1e5d1

// Signature is one AIG's structural sketch: the per-permutation MinHash
// minima over its WL label multiset and the simhash bit vector of its
// NetSimile features. Immutable after construction.
type Signature struct {
	WL   [MinHashK]uint32
	Feat [featWords]uint64
}

// splitmix64 is the SplitMix64 mixer — a tiny, well-dispersed
// deterministic PRF used to derive all family parameters.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// The derived family parameters, computed once at init from familySeed.
var (
	minhashMulA [MinHashK]uint64 // odd multipliers
	minhashAddB [MinHashK]uint64
	featPlanes  [FeatBits][FeatureDim]float64
)

func init() {
	s := familySeed
	for i := 0; i < MinHashK; i++ {
		s = splitmix64(s)
		minhashMulA[i] = s | 1 // odd, so the map is a bijection mod 2^64
		s = splitmix64(s)
		minhashAddB[i] = s
	}
	for j := 0; j < FeatBits; j++ {
		for d := 0; d < FeatureDim; d++ {
			s = splitmix64(s)
			// Uniform in [-1, 1): direction is all simhash needs.
			featPlanes[j][d] = float64(int64(s)) / float64(math.MaxInt64)
		}
	}
}

// New builds the signature for one graph from its WL label histogram
// (labels with multiplicities, exactly as simil computes them) and its
// NetSimile feature vector (FeatureDim values; shorter slices are
// zero-padded, longer ones truncated).
func New(wlHist map[string]int, features []float64) *Signature {
	sig := &Signature{}
	for i := range sig.WL {
		sig.WL[i] = math.MaxUint32
	}
	// Multiset MinHash: each of a label's count occurrences is a
	// distinct element (label, occ), so duplicated labels weigh in the
	// Jaccard estimate exactly as they do in the WL kernel's histogram
	// dot product. Map iteration order is irrelevant: each slot is a
	// min-fold over all elements.
	for label, count := range wlHist {
		h := fnv.New64a()
		h.Write([]byte(label))
		base := h.Sum64()
		for occ := 0; occ < count; occ++ {
			el := splitmix64(base + uint64(occ)*0x9e3779b97f4a7c15)
			for i := 0; i < MinHashK; i++ {
				v := uint32((minhashMulA[i]*el + minhashAddB[i]) >> 32)
				if v < sig.WL[i] {
					sig.WL[i] = v
				}
			}
		}
	}
	// Simhash over compressed features: NetSimile aggregates span
	// orders of magnitude (means vs 90th percentiles of egonet sizes),
	// so project the signed log — the same compression Canberra's
	// per-dimension normalization effectively applies.
	var t [FeatureDim]float64
	for d := 0; d < FeatureDim && d < len(features); d++ {
		t[d] = math.Copysign(math.Log1p(math.Abs(features[d])), features[d])
	}
	for j := 0; j < FeatBits; j++ {
		dot := 0.0
		for d := 0; d < FeatureDim; d++ {
			dot += featPlanes[j][d] * t[d]
		}
		if dot >= 0 {
			sig.Feat[j/64] |= 1 << uint(j%64)
		}
	}
	return sig
}

// WLDistance estimates the WL label-multiset dissimilarity: 1 minus
// the fraction of agreeing MinHash slots (an unbiased estimate of
// 1 − Jaccard). 0 means structurally near-identical label multisets.
func (s *Signature) WLDistance(o *Signature) float64 {
	match := 0
	for i := 0; i < MinHashK; i++ {
		if s.WL[i] == o.WL[i] {
			match++
		}
	}
	return 1 - float64(match)/MinHashK
}

// FeatDistance estimates the NetSimile feature dissimilarity: the
// normalized Hamming distance of the projection bit vectors, which is
// the angular distance between the (log-compressed) feature vectors
// scaled to [0, 1].
func (s *Signature) FeatDistance(o *Signature) float64 {
	ham := 0
	for w := 0; w < featWords; w++ {
		ham += popcount64(s.Feat[w] ^ o.Feat[w])
	}
	return float64(ham) / FeatBits
}

// Distance is the combined sketch dissimilarity: the mean of the two
// family estimates. It is the default candidate-ranking key for metrics
// that read neither parent artifact directly.
func (s *Signature) Distance(o *Signature) float64 {
	return (s.WLDistance(o) + s.FeatDistance(o)) / 2
}

func popcount64(x uint64) int {
	// Kernighan is fine here: xors of similar signatures are sparse.
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// wlBandKey returns the bucket key of one WL band: a hash of the
// band's wlBandRows consecutive minima.
func (s *Signature) wlBandKey(band int) uint64 {
	k := familySeed + uint64(band)
	for r := 0; r < wlBandRows; r++ {
		k = splitmix64(k ^ uint64(s.WL[band*wlBandRows+r]))
	}
	return k
}

// featBandKey returns the bucket key of one feature band: one byte of
// the bit vector.
func (s *Signature) featBandKey(band int) uint64 {
	word := s.Feat[(band*featBandBits)/64]
	shift := uint((band * featBandBits) % 64)
	return (word >> shift) & 0xff
}
