package avs

import (
	"math"
	"testing"

	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

func chunkConfig(levels int) Config {
	cfg := baseConfig(levels)
	cfg.Sampler = SamplerChunk
	return cfg
}

// rawDraws returns n destinations of scope u drawn by the chunk
// sampler, duplicates kept (more than |V| of them, which a scope's
// size clamp would not allow).
func rawDraws(t *testing.T, cfg Config, u int64, n int, seed uint64) []int64 {
	t.Helper()
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	g.pickChunks(u)
	src := rng.New(seed)
	dsts := make([]int64, n)
	for i := range dsts {
		dsts[i] = g.draw(u, 0, src)
	}
	return dsts
}

// chiSquarePerDF compares observed destination counts with the exact
// probabilities exact(v) (unnormalized): Pearson's statistic over the
// cells expecting at least 5 draws plus one pooled cell of the rest,
// divided by its degrees of freedom. A zero-probability cell that is
// drawn fails the test outright.
func chiSquarePerDF(t *testing.T, dsts []int64, levels int, exact func(v int64) float64) (stat float64, df int) {
	t.Helper()
	n := int64(1) << uint(levels)
	obs := make([]float64, n)
	for _, d := range dsts {
		if d < 0 || d >= n {
			t.Fatalf("destination %d outside [0, %d)", d, n)
		}
		obs[d]++
	}
	var total float64
	probs := make([]float64, n)
	for v := range probs {
		probs[v] = exact(int64(v))
		total += probs[v]
	}
	draws := float64(len(dsts))
	var poolObs, poolExp float64
	cells := 0
	for v, p := range probs {
		e := draws * p / total
		if p == 0 && obs[v] > 0 {
			t.Fatalf("zero-probability destination %d drawn %v times", v, obs[v])
		}
		if e < 5 {
			poolObs += obs[v]
			poolExp += e
			continue
		}
		d := obs[v] - e
		stat += d * d / e
		cells++
	}
	if poolExp > 0 {
		d := poolObs - poolExp
		stat += d * d / poolExp
		cells++
	}
	return stat, cells - 1
}

// TestChunkSamplerChiSquare: chunk draws follow the exact
// Proposition-1 (SKG) and Lemma-8 (NSKG) probabilities, also under
// AVS-I (the transposed seed and noise core passes down, checked
// against the untransposed column probabilities) and for level counts
// with a partial last chunk or a single partial chunk.
func TestChunkSamplerChiSquare(t *testing.T) {
	const draws = 1 << 20
	seed := skg.Graph500Seed
	noise := func(levels int) *skg.Noise {
		ns, err := skg.NewNoise(seed, levels, 0.1, rng.New(uint64(levels)))
		if err != nil {
			t.Fatal(err)
		}
		return ns
	}
	type tc struct {
		name   string
		cfg    Config
		exact  func(u, v int64) float64
		levels int
	}
	var cases []tc
	for _, levels := range []int{10, 12, 3} {
		cfg := chunkConfig(levels)
		cases = append(cases, tc{"skg", cfg, func(u, v int64) float64 { return skg.EdgeProb(seed, u, v, levels) }, levels})
		ns := noise(levels)
		cfg.Noise = ns
		cases = append(cases, tc{"nskg", cfg, func(u, v int64) float64 { return ns.EdgeProbNoisy(u, v, levels) }, levels})
	}
	// AVS-I: scope c draws the sources x of column c with K[x][c]. The
	// seed is asymmetric (β ≠ γ) so a missing transpose would show.
	asym := skg.Seed{A: 0.45, B: 0.25, C: 0.15, D: 0.15}
	avsi := chunkConfig(10)
	avsi.Seed = asym.Transpose()
	cases = append(cases, tc{"avsi-skg", avsi, func(c, x int64) float64 { return skg.EdgeProb(asym, x, c, 10) }, 10})
	ns, err := skg.NewNoise(asym, 10, 0.1, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	avsi.Noise = ns.Transpose()
	cases = append(cases, tc{"avsi-nskg", avsi, func(c, x int64) float64 { return ns.EdgeProbNoisy(x, c, 10) }, 10})

	for _, c := range cases {
		mask := int64(1)<<uint(c.levels) - 1
		for i, u := range []int64{0, mask, 0x2B5 & mask, 0x1C3 & mask} {
			dsts := rawDraws(t, c.cfg, u, draws, uint64(100+i))
			stat, df := chiSquarePerDF(t, dsts, c.levels, func(v int64) float64 { return c.exact(u, v) })
			t.Logf("%s L=%d u=%d: χ²/df %.3f (%d df)", c.name, c.levels, u, stat/float64(df), df)
			// 6σ of the χ² distribution around its mean df.
			if math.Abs(stat-float64(df)) > 6*math.Sqrt(2*float64(df)) {
				t.Errorf("%s L=%d u=%d: χ² %.1f on %d df (χ²/df %.3f)", c.name, c.levels, u, stat, df, stat/float64(df))
			}
		}
	}
}

// TestChunkSamplerScale47: at the largest supported scale every chunk
// draw stays inside the vertex space and each destination bit x is one
// with its exact conditional probability K[u_x][1]/rowsum (under NSKG
// from level 46−x) — the per-bit factorization the sampler rests on,
// with no float64 cumulative-probability drift.
func TestChunkSamplerScale47(t *testing.T) {
	const levels = 47
	const draws = 200000
	ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0.1, rng.New(47))
	if err != nil {
		t.Fatal(err)
	}
	for _, noise := range []*skg.Noise{nil, ns} {
		cfg := chunkConfig(levels)
		cfg.Noise = noise
		for i, u := range []int64{0, 1<<levels - 1, 0x5555_5555_5555 & (1<<levels - 1), 0x123456789AB} {
			dsts := rawDraws(t, cfg, u, draws, uint64(7+i))
			var ones [levels]float64
			for _, d := range dsts {
				if d < 0 || d >= 1<<levels {
					t.Fatalf("noise=%v u=%d: destination %d outside [0, 2^47)", noise != nil, u, d)
				}
				for x := range ones {
					ones[x] += float64(d >> uint(x) & 1)
				}
			}
			for x := range ones {
				k := cfg.Seed
				if noise != nil {
					k = noise.Level(levels - 1 - x)
				}
				b := uint64(u) >> uint(x) & 1
				p := k.At(b, 1) / k.RowSum(b)
				got := ones[x] / draws
				if sd := math.Sqrt(p * (1 - p) / draws); math.Abs(got-p) > 6*sd {
					t.Errorf("noise=%v u=%d bit %d: one-frequency %.5f, want %.5f (6σ = %.5f)", noise != nil, u, x, got, p, 6*sd)
				}
			}
		}
	}
}

// TestChunkSamplerValidate: high precision and the ablation options
// are RecVec variants, so the chunk sampler rejects them; an unknown
// sampler is rejected too.
func TestChunkSamplerValidate(t *testing.T) {
	if err := chunkConfig(10).Validate(); err != nil {
		t.Fatal(err)
	}
	hp := chunkConfig(10)
	hp.HighPrecision = true
	abl := chunkConfig(10)
	abl.Opts = recvec.Options{ReuseVector: true}
	bad := chunkConfig(10)
	bad.Sampler = 7
	for name, cfg := range map[string]Config{"highprecision": hp, "ablation": abl, "unknown": bad} {
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("%s: chunk config accepted", name)
		}
	}
	for _, s := range []Sampler{SamplerRecVec, SamplerChunk} {
		if got, err := ParseSampler(s.String()); err != nil || got != s {
			t.Errorf("ParseSampler(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSampler("descent"); err == nil {
		t.Error("ParseSampler accepted an unknown name")
	}
}

// TestChunkSamplerSameScopeSizes: scope sizes are drawn before any
// destination, so both samplers give every scope the same number of
// distinct destinations from the same stream.
func TestChunkSamplerSameScopeSizes(t *testing.T) {
	rv, err := New(baseConfig(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(chunkConfig(11), nil)
	if err != nil {
		t.Fatal(err)
	}
	var a, b []int64
	for u := int64(0); u < 1<<11; u++ {
		a = rv.Scope(u, rng.NewScoped(9, uint64(u)), a).Dsts
		b = ch.Scope(u, rng.NewScoped(9, uint64(u)), b).Dsts
		if len(a) != len(b) {
			t.Fatalf("scope %d: recvec %d destinations, chunk %d", u, len(a), len(b))
		}
	}
}

// BenchmarkSamplerDraw times one destination draw of a Scale-20 scope
// per sampler, without dedup.
func BenchmarkSamplerDraw(b *testing.B) {
	for _, s := range []Sampler{SamplerRecVec, SamplerChunk} {
		b.Run(s.String(), func(b *testing.B) {
			cfg := baseConfig(20)
			cfg.Sampler = s
			cfg.AllowDuplicates = true
			g, err := New(cfg, nil)
			if err != nil {
				b.Fatal(err)
			}
			src := rng.New(1)
			buf := make([]int64, 0, 1<<12)
			b.ResetTimer()
			for i := 0; i < b.N; i += 1 << 12 {
				buf = g.ScopeWithSize(int64(i)&(1<<20-1), 1<<12, src, buf).Dsts
			}
		})
	}
}
