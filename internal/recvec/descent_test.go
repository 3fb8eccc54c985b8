package recvec

import (
	"math"
	"testing"

	"repro/internal/rng"
	"repro/internal/skg"
)

// searchBinary is the reference in-vector search: the largest k with
// f[k] <= x by binary search over f[0..levels-1], or -1 when f[0] > x.
func (v *Vector) searchBinary(x float64) int {
	lo, hi := 0, v.levels
	for lo < hi {
		mid := (lo + hi) / 2
		if v.f[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// clampedBinary is binary search plus the strict-decrease clamp that
// the descent loop applied before scanDown replaced both.
func (v *Vector) clampedBinary(x float64, prev int) int {
	k := v.searchBinary(x)
	if k >= prev {
		k = prev - 1
	}
	return k
}

// determineRef is the sparse descent with binary search plus clamp
// (and the upward linear scan under LinearSearch), the reference every
// DetermineOpt variant must reproduce draw for draw.
func (v *Vector) determineRef(x float64, src *rng.Source, o Options) int64 {
	if !o.SparseRecursion {
		return v.determineFull(x, src, o)
	}
	var dst int64
	prev := v.levels
	for x >= v.f[0] && x > 0 {
		var k int
		if o.LinearSearch {
			k = v.searchLinear(x)
		} else {
			k = v.searchBinary(x)
		}
		if k >= prev {
			k = prev - 1
			if k < 0 {
				break
			}
		}
		prev = k
		dst |= 1 << uint(k)
		if o.SingleRandom {
			x = (x - v.f[k]) / v.sigma[k]
		} else {
			x = src.UniformTo(v.f[k])
		}
	}
	return dst
}

// descentSeeds includes degenerate seeds: a zero α makes f[0..k] equal
// runs of zeros with σ = +Inf, a zero β makes f[k] = f[k+1] runs with
// σ = 0, and a zero row sum makes the whole vector zero.
var descentSeeds = []skg.Seed{
	skg.Graph500Seed,
	skg.UniformSeed,
	{A: 0, B: 0.5, C: 0.25, D: 0.25},
	{A: 0.5, B: 0, C: 0.25, D: 0.25},
	{A: 0.6, B: 0.4, C: 0, D: 0},
	{A: 0.9, B: 0.05, C: 0.05, D: 0},
}

// probes returns random values across [0, 1.01·f[levels]] plus every
// boundary f[k] and its float neighbours.
func probes(v *Vector, src *rng.Source, n int) []float64 {
	xs := []float64{0, math.Inf(1)}
	for k := 0; k <= v.levels; k++ {
		f := v.f[k]
		xs = append(xs, f, math.Nextafter(f, math.Inf(1)), math.Nextafter(f, math.Inf(-1)))
	}
	for i := 0; i < n; i++ {
		xs = append(xs, src.UniformTo(1.01*v.RowProb()))
	}
	return xs
}

// TestScanDownMatchesClampedBinary: the downward scan from prev-1
// returns exactly binary search plus the clamp, for every x and prev.
func TestScanDownMatchesClampedBinary(t *testing.T) {
	src := rng.New(61)
	for levels := 1; levels <= 47; levels++ {
		for _, k := range descentSeeds {
			u := src.Int63n(int64(1) << uint(levels))
			v := New(k, u, levels)
			for _, x := range probes(v, src, 50) {
				for prev := 0; prev <= levels; prev++ {
					if a, b := v.scanDown(x, prev), v.clampedBinary(x, prev); a != b {
						t.Fatalf("levels=%d seed=%+v u=%d x=%v prev=%d: scan %d, binary %d",
							levels, k, u, x, prev, a, b)
					}
				}
			}
		}
	}
}

// TestDetermineMatchesReference: every DetermineOpt variant (and
// Determine) returns the reference descent's destination and consumes
// the same randomness, on SKG and NSKG vectors including degenerate
// seeds and boundary values of x.
func TestDetermineMatchesReference(t *testing.T) {
	src := rng.New(67)
	check := func(v *Vector, name string) {
		for _, x := range probes(v, src, 40) {
			if a, b := v.Determine(x), v.determineRef(x, nil, Production()); a != b {
				t.Fatalf("%s x=%v: Determine %d, reference %d", name, x, a, b)
			}
			for mask := 0; mask < 16; mask++ {
				o := Options{
					ReuseVector:     mask&1 != 0,
					SparseRecursion: mask&2 != 0,
					SingleRandom:    mask&4 != 0,
					LinearSearch:    mask&8 != 0,
				}
				ra, rb := rng.New(uint64(mask)), rng.New(uint64(mask))
				a, b := v.DetermineOpt(x, ra, o), v.determineRef(x, rb, o)
				if a != b || ra.Uint64() != rb.Uint64() {
					t.Fatalf("%s x=%v opts=%+v: got %d, reference %d (or streams diverged)", name, x, o, a, b)
				}
			}
		}
	}
	for _, levels := range []int{1, 2, 5, 13, 20, 31, 40, 47} {
		for _, k := range descentSeeds {
			u := src.Int63n(int64(1) << uint(levels))
			check(New(k, u, levels), "skg")
		}
		ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0.1, rng.New(uint64(levels)))
		if err != nil {
			t.Fatal(err)
		}
		check(NewNoisy(ns, src.Int63n(int64(1)<<uint(levels)), levels), "nskg")
	}
}

// TestResetMatchesNew: rebuilding one vector in place across sources and
// sizes yields exactly the freshly built vectors.
func TestResetMatchesNew(t *testing.T) {
	ns, err := skg.NewNoise(skg.Graph500Seed, 40, 0.1, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	var v Vector
	src := rng.New(71)
	for _, levels := range []int{20, 3, 40, 1, 33} {
		for i := 0; i < 10; i++ {
			u := src.Int63n(int64(1) << uint(levels))
			for _, noisy := range []bool{false, true} {
				want := New(skg.Graph500Seed, u, levels)
				v.Reset(skg.Graph500Seed, u, levels)
				if noisy {
					want = NewNoisy(ns, u, levels)
					v.ResetNoisy(ns, u, levels)
				}
				if v.Levels() != levels || v.Source() != u {
					t.Fatalf("reset vector is (%d, %d), want (%d, %d)", v.Levels(), v.Source(), levels, u)
				}
				for x := 0; x <= levels; x++ {
					if v.At(x) != want.At(x) {
						t.Fatalf("levels=%d u=%d noisy=%v: f[%d] %v, want %v", levels, u, noisy, x, v.At(x), want.At(x))
					}
				}
				for x := 0; x < levels; x++ {
					if v.Sigma(x) != want.Sigma(x) {
						t.Fatalf("levels=%d u=%d noisy=%v: sigma[%d] %v, want %v", levels, u, noisy, x, v.Sigma(x), want.Sigma(x))
					}
				}
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { v.Reset(skg.Graph500Seed, 12345, 30) }); n != 0 {
		t.Fatalf("Reset allocates %v times per call", n)
	}
}
