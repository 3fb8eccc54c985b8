package partition

import (
	"reflect"
	"runtime"
	"testing"

	"repro/internal/avs"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// planRef is the unblocked planner: every scope size drawn up front into
// an O(|V|) slice, then combined and repartitioned sequentially. Plan
// must return exactly its ranges.
func planRef(g *avs.Generator, masterSeed uint64, parts, binsPerPart int) []Range {
	if binsPerPart <= 0 {
		binsPerPart = 8
	}
	cfg := g.Config()
	nv := cfg.NumVertices()
	binTarget := max(cfg.NumEdges/int64(parts*binsPerPart), 1)
	sizes := make([]int64, nv)
	for u := range sizes {
		sizes[u] = g.ScopeSize(int64(u), rng.NewScoped(masterSeed, uint64(u)))
	}
	type bin struct{ lo, hi, edges int64 }
	var bins []bin
	cur := bin{}
	var total int64
	for u := int64(0); u < nv; u++ {
		cur.edges += sizes[u]
		total += sizes[u]
		if cur.edges >= binTarget {
			cur.hi = u + 1
			bins = append(bins, cur)
			cur = bin{lo: u + 1}
		}
	}
	if cur.lo < nv {
		cur.hi = nv
		bins = append(bins, cur)
	}
	ranges := make([]Range, 0, parts)
	var acc, curEdges int64
	lo := int64(0)
	for _, b := range bins {
		acc += b.edges
		curEdges += b.edges
		if parts-len(ranges) == 1 {
			break
		}
		if acc >= total*int64(len(ranges)+1)/int64(parts) {
			ranges = append(ranges, Range{Lo: lo, Hi: b.hi, Edges: curEdges})
			lo = b.hi
			curEdges = 0
		}
	}
	lastEdges := total
	for _, r := range ranges {
		lastEdges -= r.Edges
	}
	ranges = append(ranges, Range{Lo: lo, Hi: nv, Edges: lastEdges})
	for len(ranges) < parts {
		ranges = append(ranges, Range{Lo: nv, Hi: nv})
	}
	return ranges
}

// TestPlanMatchesUnblockedReference: drawing sizes block by block
// changes no range, for vertex spaces smaller than, equal to and
// several times larger than one block, with and without noise.
func TestPlanMatchesUnblockedReference(t *testing.T) {
	cases := []struct {
		levels, parts, bins int
		noise               float64
	}{
		{6, 3, 0, 0},
		{12, 7, 1, 0.1},
		{14, 2, 8, 0},
		{16, 5, 3, 0},
		{17, 60, 4, 0.1},
	}
	for _, tc := range cases {
		cfg := avs.Config{
			Seed:     skg.Graph500Seed,
			Levels:   tc.levels,
			NumEdges: 16 << uint(tc.levels),
			Opts:     recvec.Production(),
		}
		if tc.noise > 0 {
			ns, err := skg.NewNoise(cfg.Seed, tc.levels, tc.noise, rng.New(17))
			if err != nil {
				t.Fatal(err)
			}
			cfg.Noise = ns
		}
		g, err := avs.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Plan(g, 31, tc.parts, tc.bins)
		if err != nil {
			t.Fatal(err)
		}
		if want := planRef(g, 31, tc.parts, tc.bins); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: Plan %v, reference %v", tc, got, want)
		}
	}
}

// TestPlanMemoryIndependentOfVertexCount: the planner's allocations stay
// O(sizeBlock + bins), not the 8·|V| bytes of a full size array.
func TestPlanMemoryIndependentOfVertexCount(t *testing.T) {
	const levels = 20
	g := gen(t, levels)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Plan(g, 3, 2, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	full := uint64(8) << levels
	if got := after.TotalAlloc - before.TotalAlloc; got > full/8 {
		t.Fatalf("Plan allocated %d bytes at |V| = 2^%d; a full size array is %d", got, levels, full)
	}
}
