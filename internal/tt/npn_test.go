package tt

import (
	"math/rand"
	"sync"
	"testing"
)

func randTransform(n int, r *rand.Rand) NPNTransform {
	perm := r.Perm(n)
	return NPNTransform{
		Perm:    perm,
		Flips:   uint32(r.Intn(1 << uint(n))),
		OutFlip: r.Intn(2) == 1,
	}
}

// Inverse returns the transform mapping the canonical form back to the
// original function. The tests use it to check NPNCanon's transforms.
func (x NPNTransform) Inverse() NPNTransform {
	inv := NPNTransform{Perm: make([]int, len(x.Perm)), OutFlip: x.OutFlip}
	// x maps original var p=Perm[i] to canonical var i (after flipping
	// original inputs). The inverse permutes canonical var i back to p and
	// then flips, but since flips commute with renaming when re-indexed we
	// fold them: inverse flips act on canonical variable i when original
	// variable Perm[i] was flipped.
	for i, p := range x.Perm {
		inv.Perm[p] = i
		if x.Flips>>uint(p)&1 == 1 {
			inv.Flips |= 1 << uint(i)
		}
	}
	return inv
}

func TestNPNTransformInverse(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for n := 1; n <= 6; n++ {
		for trial := 0; trial < 30; trial++ {
			f := Random(n, r)
			x := randTransform(n, r)
			if !x.Inverse().Apply(x.Apply(f)).Equal(f) {
				t.Fatalf("n=%d trial=%d: inverse(apply) is not identity", n, trial)
			}
			if !x.Apply(x.Inverse().Apply(f)).Equal(f) {
				t.Fatalf("n=%d trial=%d: apply(inverse) is not identity", n, trial)
			}
		}
	}
}

// TestNPNCanonConcurrent canonicalizes from several goroutines at once,
// the way parallel passes do, so the first use of the permutation
// tables must be synchronized (run with -race). Every goroutine must
// agree with a serial canonicalization.
func TestNPNCanonConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	var fs []TT
	for n := 1; n <= 5; n++ {
		for i := 0; i < 4; i++ {
			fs = append(fs, Random(n, r))
		}
	}
	const goroutines = 8
	got := make([][]TT, goroutines)
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			out := make([]TT, len(fs))
			for i := range fs {
				j := (i + 3*w) % len(fs) // each goroutine starts elsewhere
				out[j], _ = NPNCanon(fs[j])
			}
			got[w] = out
		}(w)
	}
	wg.Wait()
	for i, f := range fs {
		want, _ := NPNCanon(f)
		for w := range got {
			if !got[w][i].Equal(want) {
				t.Errorf("goroutine %d: canon of %s is %s, want %s", w, f.Hex(), got[w][i].Hex(), want.Hex())
			}
		}
	}
}

func TestNPNCanonRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for n := 1; n <= 5; n++ {
		for trial := 0; trial < 20; trial++ {
			f := Random(n, r)
			canon, x := NPNCanon(f)
			if !x.Apply(f).Equal(canon) {
				t.Fatalf("n=%d: transform does not map f to canon", n)
			}
			if !x.Inverse().Apply(canon).Equal(f) {
				t.Fatalf("n=%d: inverse transform does not recover f", n)
			}
		}
	}
}

func TestNPNCanonInvariance(t *testing.T) {
	// All NPN-equivalent functions must share the canonical form.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 3 + trial%2
		f := Random(n, r)
		canonF, _ := NPNCanon(f)
		for k := 0; k < 10; k++ {
			g := randTransform(n, r).Apply(f)
			canonG, _ := NPNCanon(g)
			if !canonF.Equal(canonG) {
				t.Fatalf("trial %d: NPN-equivalent functions map to different canons", trial)
			}
		}
	}
}

func TestNPNClassCount4(t *testing.T) {
	// The number of NPN classes of 4-variable functions is famously 222.
	classes := make(map[string]bool)
	for f := 0; f < 1<<16; f++ {
		fn := FromWords(4, []uint64{uint64(f)})
		canon, _ := NPNCanon(fn)
		classes[canon.Hex()] = true
	}
	if len(classes) != 222 {
		t.Errorf("found %d NPN classes of 4-var functions, want 222", len(classes))
	}
}

func TestNPNClassCount3(t *testing.T) {
	// 3-variable functions fall into 14 NPN classes.
	classes := make(map[string]bool)
	for f := 0; f < 1<<8; f++ {
		fn := FromWords(3, []uint64{uint64(f)})
		canon, _ := NPNCanon(fn)
		classes[canon.Hex()] = true
	}
	if len(classes) != 14 {
		t.Errorf("found %d NPN classes of 3-var functions, want 14", len(classes))
	}
}
