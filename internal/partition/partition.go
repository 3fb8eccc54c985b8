// Package partition implements TrillionG's AVS-level workload
// partitioning (Section 5, Figure 6): vertex scopes are combined into
// bins of roughly |E|/p expected edges, bin summaries are gathered at a
// master, repartitioned into p contiguous groups of nearly equal load,
// and scattered back — so every worker generates about the same number
// of edges with no shuffling at all.
//
// Scope sizes are drawn from each scope's private random stream (the
// first draws of that stream). Because generation later re-derives the
// same stream from (master seed, vertex), the planned sizes are exactly
// the generated sizes — the plan ships only O(bins) numbers, mirroring
// the paper's observation that the gather step is tiny.
package partition

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/avs"
	"repro/internal/rng"
)

// Range is a contiguous vertex range [Lo, Hi) with its planned load.
type Range struct {
	Lo, Hi int64
	// Edges is the summed planned scope size of the range.
	Edges int64
}

// Plan partitions the generator's vertex space into exactly `parts`
// contiguous ranges of near-equal planned load. binsPerPart controls
// combine granularity (Figure 6 uses 1; larger values trade a bigger
// gather for finer balance; ≤ 0 selects the default of 8).
func Plan(g *avs.Generator, masterSeed uint64, parts, binsPerPart int) ([]Range, error) {
	if parts < 1 {
		return nil, fmt.Errorf("partition: parts %d < 1", parts)
	}
	if binsPerPart <= 0 {
		binsPerPart = 8
	}
	cfg := g.Config()
	nv := cfg.NumVertices()
	if int64(parts) > nv {
		return nil, fmt.Errorf("partition: %d parts exceed %d vertices", parts, nv)
	}

	// Combine: walk all scopes in vertex order, drawing each scope's
	// size from its private stream, and close a bin whenever it reaches
	// the target. Sizes are drawn a fixed-size block of vertices at a
	// time, each block sliced across GOMAXPROCS goroutines exactly as the
	// paper slices the combine step across threads, so the planner holds
	// O(sizeBlock) sizes at any scale. The result is identical to a
	// sequential walk because sizes are scope-seeded and bin boundaries
	// depend only on the size sequence.
	binTarget := cfg.NumEdges / int64(parts*binsPerPart)
	if binTarget < 1 {
		binTarget = 1
	}
	type bin struct {
		lo, hi int64 // [lo, hi)
		edges  int64
	}
	var bins []bin
	cur := bin{lo: 0}
	var total int64
	sizes := make([]int64, min(nv, sizeBlock))
	for base := int64(0); base < nv; base += sizeBlock {
		block := sizes[:min(sizeBlock, nv-base)]
		drawSizesParallel(g, masterSeed, base, block)
		for i, size := range block {
			cur.edges += size
			total += size
			if cur.edges >= binTarget {
				u := base + int64(i)
				cur.hi = u + 1
				bins = append(bins, cur)
				cur = bin{lo: u + 1}
			}
		}
	}
	if cur.lo < nv {
		cur.hi = nv
		bins = append(bins, cur)
	}

	// Gather + repartition: cut the ordered bin list into `parts`
	// contiguous groups, closing group i once the running total reaches
	// the proportional target total·(i+1)/parts. The final group always
	// extends to |V|; trailing empty ranges pad out to exactly `parts`.
	ranges := make([]Range, 0, parts)
	var acc, curEdges int64
	lo := int64(0)
	for _, b := range bins {
		acc += b.edges
		curEdges += b.edges
		if parts-len(ranges) == 1 {
			break // the last range absorbs everything that remains
		}
		target := total * int64(len(ranges)+1) / int64(parts)
		if acc >= target {
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
	return ranges, nil
}

// sizeBlock is the number of scope sizes the planner draws per
// parallel step (128 KiB of sizes).
const sizeBlock = 1 << 14

// drawSizesParallel fills sizes[i] with the scope size of vertex base+i,
// slicing the block across GOMAXPROCS goroutines. Each scope has its own
// seeded stream, so the slicing cannot change any value.
func drawSizesParallel(g *avs.Generator, masterSeed uint64, base int64, sizes []int64) {
	n := int64(len(sizes))
	workers := min(int64(runtime.GOMAXPROCS(0)), n)
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := int64(0); lo < n; lo += chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(lo, hi int64) {
			defer wg.Done()
			var src rng.Source
			for i := lo; i < hi; i++ {
				u := base + i
				src.Reset(rng.Mix64(masterSeed, uint64(u)))
				sizes[i] = g.ScopeSize(u, &src)
			}
		}(lo, hi)
	}
	wg.Wait()
}
