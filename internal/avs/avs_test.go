package avs

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/memacct"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/stats"
)

func baseConfig(levels int) Config {
	return Config{
		Seed:     skg.Graph500Seed,
		Levels:   levels,
		NumEdges: 16 << uint(levels),
		Opts:     recvec.Production(),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := baseConfig(10).Validate(); err != nil {
		t.Fatal(err)
	}
	bad := baseConfig(10)
	bad.Levels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for levels 0")
	}
	bad = baseConfig(10)
	bad.Levels = 60
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for levels 60")
	}
	bad = baseConfig(10)
	bad.NumEdges = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for zero edges")
	}
	bad = baseConfig(10)
	bad.Seed = skg.Seed{A: 1, B: 1, C: 1, D: 1}
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for invalid seed")
	}
	src := rng.New(1)
	ns, _ := skg.NewNoise(skg.Graph500Seed, 4, 0.1, src)
	bad = baseConfig(10)
	bad.Noise = ns
	if err := bad.Validate(); err == nil {
		t.Fatal("expected error for short noise")
	}
}

func TestNumVertices(t *testing.T) {
	if got := baseConfig(10).NumVertices(); got != 1024 {
		t.Fatalf("NumVertices = %d", got)
	}
}

// TestScopeSizesSumToNumEdges: Theorem 1 — summing all scope sizes
// approximates |E| (the binomial total is exactly |E| in expectation).
func TestScopeSizesSumToNumEdges(t *testing.T) {
	cfg := baseConfig(12)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(7)
	var total int64
	for u := int64(0); u < cfg.NumVertices(); u++ {
		total += g.ScopeSize(u, src)
	}
	want := float64(cfg.NumEdges)
	if math.Abs(float64(total)-want) > 0.02*want {
		t.Fatalf("total scope size %d, want ≈ %d", total, cfg.NumEdges)
	}
}

// TestExpectedDegreeMatchesScopeSizeMean: the analytic expectation used
// by the partitioner agrees with the sampler.
func TestExpectedDegreeMatchesScopeSizeMean(t *testing.T) {
	cfg := baseConfig(10)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(11)
	u := int64(5)
	const trials = 3000
	var sum int64
	for i := 0; i < trials; i++ {
		sum += g.ScopeSize(u, src)
	}
	mean := float64(sum) / trials
	want := g.ExpectedDegree(u)
	if math.Abs(mean-want) > 0.05*want+0.5 {
		t.Fatalf("sampled mean %v, analytic %v", mean, want)
	}
}

// TestScopeDestinationsDistinct: Algorithm 4's dedup produces a set.
func TestScopeDestinationsDistinct(t *testing.T) {
	cfg := baseConfig(12)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(13)
	var buf []int64
	for u := int64(0); u < 512; u++ {
		res := g.Scope(u, src, buf)
		buf = res.Dsts
		seen := make(map[int64]struct{}, len(res.Dsts))
		for _, d := range res.Dsts {
			if _, dup := seen[d]; dup {
				t.Fatalf("u=%d: duplicate destination %d", u, d)
			}
			if d < 0 || d >= cfg.NumVertices() {
				t.Fatalf("u=%d: destination %d out of range", u, d)
			}
			seen[d] = struct{}{}
		}
		if res.Attempts < int64(len(res.Dsts)) {
			t.Fatalf("u=%d: attempts %d < edges %d", u, res.Attempts, len(res.Dsts))
		}
	}
}

// TestScopeWithSizeExact: requesting a size yields exactly that many
// distinct destinations (when |V| allows).
func TestScopeWithSizeExact(t *testing.T) {
	cfg := baseConfig(14)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(17)
	res := g.ScopeWithSize(123, 200, src, nil)
	if len(res.Dsts) != 200 {
		t.Fatalf("got %d destinations, want 200", len(res.Dsts))
	}
}

// TestScopeWithSizeClampsToNumVertices: asking for more than |V|
// distinct destinations is clamped instead of looping forever.
func TestScopeWithSizeClampsToNumVertices(t *testing.T) {
	cfg := Config{Seed: skg.UniformSeed, Levels: 4, NumEdges: 100, Opts: recvec.Production()}
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.New(19)
	res := g.ScopeWithSize(3, 1000, src, nil)
	if len(res.Dsts) != 16 {
		t.Fatalf("got %d destinations, want all 16", len(res.Dsts))
	}
}

// TestScopeDeterministic: identical source streams replay identical
// scopes.
func TestScopeDeterministic(t *testing.T) {
	cfg := baseConfig(12)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := g.Scope(42, rng.NewScoped(1, 42), nil)
	b := g.Scope(42, rng.NewScoped(1, 42), nil)
	if len(a.Dsts) != len(b.Dsts) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Dsts), len(b.Dsts))
	}
	for i := range a.Dsts {
		if a.Dsts[i] != b.Dsts[i] {
			t.Fatalf("destination %d differs", i)
		}
	}
}

// TestGraphDegreeDistribution: generating every scope of a Scale-13
// graph yields ≈ |E| edges, and the mean degree of vertices with k one
// bits falls on Lemma 6's line: log2(deg_k) linear in k with slope
// log2(γ+δ) − log2(α+β) ≈ −1.663 (the content of the paper's Zipf-slope
// claim; the true rank-frequency curve is convex, see EXPERIMENTS.md).
func TestGraphDegreeDistribution(t *testing.T) {
	cfg := baseConfig(13)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var buf []int64
	classSum := make([]float64, cfg.Levels+1)
	classN := make([]float64, cfg.Levels+1)
	for u := int64(0); u < cfg.NumVertices(); u++ {
		res := g.Scope(u, rng.NewScoped(33, uint64(u)), buf)
		buf = res.Dsts
		total += int64(len(res.Dsts))
		ones := 0
		for x := u; x != 0; x &= x - 1 {
			ones++
		}
		classSum[ones] += float64(len(res.Dsts))
		classN[ones]++
	}
	if math.Abs(float64(total)-float64(cfg.NumEdges)) > 0.05*float64(cfg.NumEdges) {
		t.Fatalf("total edges %d, want ≈ %d", total, cfg.NumEdges)
	}
	var xs, ys []float64
	for k := 0; k <= cfg.Levels; k++ {
		if classN[k] == 0 {
			continue
		}
		mean := classSum[k] / classN[k]
		if mean < 2 { // tail classes dominated by dedup clamping/noise
			continue
		}
		xs = append(xs, float64(k))
		ys = append(ys, math.Log2(mean))
	}
	slope, _, r2 := stats.LinearFit(xs, ys)
	want := cfg.Seed.OutZipfSlope() // ≈ −1.663
	if math.Abs(slope-want) > 0.1 {
		t.Fatalf("popcount-class slope %v (r2 %v), want ≈ %v", slope, r2, want)
	}
	if r2 < 0.99 {
		t.Fatalf("popcount-class fit r2 %v, want near-perfect linearity", r2)
	}
}

// TestNoisyScopeGeneration: the NSKG path produces a valid graph of
// roughly |E| edges too.
func TestNoisyScopeGeneration(t *testing.T) {
	const levels = 11
	nsrc := rng.New(3)
	ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0.1, nsrc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(levels)
	cfg.Noise = ns
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	var buf []int64
	for u := int64(0); u < cfg.NumVertices(); u++ {
		res := g.Scope(u, rng.NewScoped(5, uint64(u)), buf)
		buf = res.Dsts
		total += int64(len(res.Dsts))
	}
	if math.Abs(float64(total)-float64(cfg.NumEdges)) > 0.1*float64(cfg.NumEdges) {
		t.Fatalf("noisy total edges %d, want ≈ %d", total, cfg.NumEdges)
	}
}

// TestAblationVariantsProduceSameTotals: all option combos generate
// statistically equivalent graphs (same expected |E| and max degree
// order); exact per-scope sizes agree because scope sizing is
// option-independent.
func TestAblationVariantsProduceSameTotals(t *testing.T) {
	combos := []recvec.Options{
		{},
		{ReuseVector: true},
		{ReuseVector: true, SparseRecursion: true},
		{ReuseVector: true, SparseRecursion: true, SingleRandom: true},
	}
	var sizes [][]int64
	for _, o := range combos {
		cfg := baseConfig(10)
		cfg.Opts = o
		g, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		var ss []int64
		for u := int64(0); u < cfg.NumVertices(); u++ {
			ss = append(ss, g.ScopeSize(u, rng.NewScoped(77, uint64(u))))
		}
		sizes = append(sizes, ss)
	}
	for i := 1; i < len(sizes); i++ {
		for u := range sizes[0] {
			if sizes[i][u] != sizes[0][u] {
				t.Fatalf("combo %d scope %d size %d != %d", i, u, sizes[i][u], sizes[0][u])
			}
		}
	}
}

// TestHighPrecisionMatchesFloat64Sizes: big.Float mode generates the
// same scope sizes and valid destinations.
func TestHighPrecisionMatchesFloat64(t *testing.T) {
	cfg := baseConfig(10)
	cfg.HighPrecision = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res := g.Scope(100, rng.NewScoped(9, 100), nil)
	for _, d := range res.Dsts {
		if d < 0 || d >= cfg.NumVertices() {
			t.Fatalf("destination %d out of range", d)
		}
	}
	if len(res.Dsts) == 0 {
		t.Fatal("expected some edges from vertex 100")
	}
}

// TestMemoryAccountingIsScopeLocal: peak tracked memory stays O(d_max),
// far below edge-set size.
func TestMemoryAccountingIsScopeLocal(t *testing.T) {
	var acct memacct.Acct
	cfg := baseConfig(13)
	g, err := New(cfg, &acct)
	if err != nil {
		t.Fatal(err)
	}
	var maxDeg int64
	var buf []int64
	for u := int64(0); u < cfg.NumVertices(); u++ {
		res := g.Scope(u, rng.NewScoped(21, uint64(u)), buf)
		buf = res.Dsts
		if int64(len(res.Dsts)) > maxDeg {
			maxDeg = int64(len(res.Dsts))
		}
	}
	if acct.Current() != 0 {
		t.Fatalf("leaked %d tracked bytes", acct.Current())
	}
	peak := acct.Peak()
	// Peak must cover d_max vertex IDs but stay well under |E| edges.
	if peak < maxDeg*memacct.VertexBytes {
		t.Fatalf("peak %d below d_max requirement %d", peak, maxDeg*memacct.VertexBytes)
	}
	if peak > 64*maxDeg*memacct.VertexBytes+4096 {
		t.Fatalf("peak %d not O(d_max) (d_max=%d)", peak, maxDeg)
	}
}

// tableEmpty reports whether every slot of g's dedup table is free.
func tableEmpty(g *Generator) bool {
	for _, v := range g.dedup.slots {
		if v != freeSlot {
			return false
		}
	}
	return true
}

// TestDedupTableTransition: the table answers fresh/duplicate correctly
// at sizes around and beyond the retention cap, is empty after reset,
// keeps its retained table through an oversized scope and drops the
// oversized one.
func TestDedupTableTransition(t *testing.T) {
	var tab dedupTable
	var retained []int64
	for _, size := range []int64{1, 3, 48, 49, 500, dedupRetainSlots / 2, dedupRetainSlots/2 + 1, 50000, 7} {
		tab.prepare(size)
		var inserted []int64
		for i := int64(0); i < size; i++ {
			v := i << 20 // equal low bits stress the hash
			if !tab.insert(v) {
				t.Fatalf("size %d: fresh value %d reported duplicate", size, v)
			}
			inserted = append(inserted, v)
		}
		for _, v := range inserted {
			if tab.insert(v) {
				t.Fatalf("size %d: duplicate %d reported fresh", size, v)
			}
		}
		if got := int64(len(tab.slots)); got < 2*size {
			t.Fatalf("size %d: table of %d slots is over half full", size, got)
		}
		oversized := len(tab.slots) > dedupRetainSlots
		if !oversized {
			retained = tab.slots
		}
		tab.reset(inserted)
		if oversized && (len(tab.slots) > dedupRetainSlots || &tab.slots[0] != &retained[0]) {
			t.Fatalf("size %d: oversized table not dropped back to the retained one", size)
		}
		for i, v := range tab.slots {
			if v != freeSlot {
				t.Fatalf("size %d: slot %d still holds %d after reset", size, i, v)
			}
		}
	}
}

// TestDedupTableEmptyAfterEveryScope: whatever a scope does — a normal
// scope, a maxAttempts bail-out, a scope larger than the retention cap,
// AllowDuplicates — the dedup table is empty when it returns, and the
// next scope's output is unaffected.
func TestDedupTableEmptyAfterEveryScope(t *testing.T) {
	cfg := baseConfig(14)
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf []int64
	for u := int64(0); u < 600; u++ {
		res := g.Scope(u, rng.NewScoped(5, uint64(u)), buf)
		buf = res.Dsts
		if !tableEmpty(g) {
			t.Fatalf("table not empty after scope %d", u)
		}
	}
	// Larger than the retention cap: the oversized table is dropped.
	res := g.ScopeWithSize(1, dedupRetainSlots, rng.New(1), nil)
	if int64(len(res.Dsts)) != dedupRetainSlots {
		t.Fatalf("oversized scope produced %d destinations", len(res.Dsts))
	}
	if len(g.dedup.slots) > dedupRetainSlots || !tableEmpty(g) {
		t.Fatalf("oversized table retained (%d slots) or not empty", len(g.dedup.slots))
	}

	// A zero β confines source 0 to destination 0: every scope of size
	// > 1 ends in the maxAttempts bail-out.
	bail, err := New(Config{Seed: skg.Seed{A: 0.5, B: 0, C: 0.25, D: 0.25}, Levels: 6, NumEdges: 1 << 10, Opts: recvec.Production()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res = bail.ScopeWithSize(0, 8, rng.New(2), nil)
	if len(res.Dsts) != 1 || res.Attempts != 64*8+1024 {
		t.Fatalf("bail-out scope: %d destinations after %d attempts", len(res.Dsts), res.Attempts)
	}
	if !tableEmpty(bail) {
		t.Fatal("table not empty after a bail-out")
	}
	// The same generator then behaves like a fresh one.
	fresh, _ := New(bail.Config(), nil)
	a := bail.ScopeWithSize(5, 20, rng.New(3), nil)
	b := fresh.ScopeWithSize(5, 20, rng.New(3), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("scope after a bail-out differs from a fresh generator's: %v vs %v", a, b)
	}
}

// TestScopeAllocationFree: after warm-up a production scope allocates
// nothing, for SKG and NSKG.
func TestScopeAllocationFree(t *testing.T) {
	const levels = 12
	ns, err := skg.NewNoise(skg.Graph500Seed, levels, 0.1, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	for _, noise := range []*skg.Noise{nil, ns} {
		var acct memacct.Acct
		cfg := baseConfig(levels)
		cfg.Noise = noise
		g, err := New(cfg, &acct)
		if err != nil {
			t.Fatal(err)
		}
		var src rng.Source
		var buf []int64
		pass := func() {
			for u := int64(0); u < 1<<levels; u += 7 {
				src.Reset(rng.Mix64(11, uint64(u)))
				buf = g.Scope(u, &src, buf).Dsts
			}
		}
		pass() // warm-up: grow the buffer and the table
		if n := testing.AllocsPerRun(3, pass); n != 0 {
			t.Fatalf("noise=%v: %v allocations per pass", noise != nil, n)
		}
	}
}

// TestScopeAccountingPeak: one charge per scope reaches exactly the
// high-water mark per-edge charging reached — vector bytes plus one
// VertexBytes per distinct destination of the largest scope — and
// leaves nothing charged.
func TestScopeAccountingPeak(t *testing.T) {
	for _, dups := range []bool{false, true} {
		var acct memacct.Acct
		cfg := baseConfig(11)
		cfg.AllowDuplicates = dups
		g, err := New(cfg, &acct)
		if err != nil {
			t.Fatal(err)
		}
		vecBytes := int64((cfg.Levels + 1) * 16)
		var maxDeg int64
		var buf []int64
		for u := int64(0); u < cfg.NumVertices(); u++ {
			buf = g.Scope(u, rng.NewScoped(13, uint64(u)), buf).Dsts
			maxDeg = max(maxDeg, int64(len(buf)))
		}
		want := vecBytes + maxDeg*memacct.VertexBytes
		if dups {
			want = vecBytes
		}
		if acct.Peak() != want || acct.Current() != 0 {
			t.Fatalf("dups=%v: peak %d current %d, want peak %d current 0", dups, acct.Peak(), acct.Current(), want)
		}
	}
}

func BenchmarkScope(b *testing.B) {
	cfg := baseConfig(24)
	g, err := New(cfg, nil)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	var buf []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := g.Scope(int64(i)&(cfg.NumVertices()-1), src, buf)
		buf = res.Dsts
	}
}

// TestAllowDuplicatesMode: the raw-trial mode emits exactly the sampled
// scope size, including repeats (the Graph500-edge-list behaviour the
// paper criticizes) — and repeats actually occur in hot scopes.
func TestAllowDuplicatesMode(t *testing.T) {
	cfg := baseConfig(12)
	cfg.AllowDuplicates = true
	g, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	foundDup := false
	var total int64
	var buf []int64
	for u := int64(0); u < 256; u++ {
		res := g.Scope(u, rng.NewScoped(3, uint64(u)), buf)
		buf = res.Dsts
		if res.Attempts != int64(len(res.Dsts)) {
			t.Fatalf("u=%d: attempts %d != emitted %d in raw mode", u, res.Attempts, len(res.Dsts))
		}
		total += int64(len(res.Dsts))
		seen := make(map[int64]bool)
		for _, d := range res.Dsts {
			if seen[d] {
				foundDup = true
			}
			seen[d] = true
		}
	}
	if !foundDup {
		t.Fatal("no duplicates in raw mode at a dense scale — unexpected")
	}
	if total == 0 {
		t.Fatal("nothing generated")
	}
}
