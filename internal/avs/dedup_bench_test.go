package avs

// Benchmarks for the in-scope dedup structure (DESIGN.md §5): the
// open-addressed table, prepared and reset per scope as ScopeWithSize
// does, vs a fresh Go map, across scope degrees below and above the
// retention cap. Run with `go test -bench=Dedup ./internal/avs/`.

import (
	"testing"

	"repro/internal/rng"
)

func benchDedupTable(b *testing.B, degree int) {
	src := rng.New(1)
	vals := make([]int64, degree)
	var tab dedupTable
	var kept []int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range vals {
			vals[j] = src.Int63n(1 << 30)
		}
		tab.prepare(int64(degree))
		kept = kept[:0]
		for _, v := range vals {
			if tab.insert(v) {
				kept = append(kept, v)
			}
		}
		tab.reset(kept)
	}
}

func benchDedupMap(b *testing.B, degree int) {
	src := rng.New(1)
	vals := make([]int64, degree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := make(map[int64]struct{}, 8)
		for j := range vals {
			vals[j] = src.Int63n(1 << 30)
		}
		for _, v := range vals {
			m[v] = struct{}{}
		}
	}
}

func BenchmarkDedupTableDegree8(b *testing.B)     { benchDedupTable(b, 8) }
func BenchmarkDedupMapDegree8(b *testing.B)       { benchDedupMap(b, 8) }
func BenchmarkDedupTableDegree32(b *testing.B)    { benchDedupTable(b, 32) }
func BenchmarkDedupMapDegree32(b *testing.B)      { benchDedupMap(b, 32) }
func BenchmarkDedupTableDegree512(b *testing.B)   { benchDedupTable(b, 512) }
func BenchmarkDedupMapDegree512(b *testing.B)     { benchDedupMap(b, 512) }
func BenchmarkDedupTableDegree16384(b *testing.B) { benchDedupTable(b, 16384) }
func BenchmarkDedupMapDegree16384(b *testing.B)   { benchDedupMap(b, 16384) }
