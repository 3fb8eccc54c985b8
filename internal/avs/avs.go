// Package avs implements the A-Vertex-Scope engine of Sections 3.3–5:
// for each source vertex u (one scope), it draws the scope size from
// Theorem 1's normal approximation of the binomial and generates that
// many *distinct* destinations with the recursive vector model
// (Algorithm 4), deduplicating inside the scope only.
//
// The engine is deliberately independent of threading and I/O: callers
// (the TrillionG core, the partitioner, the experiment harness) decide
// which scopes to run where and what to do with the adjacency lists.
package avs

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/memacct"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// Config parameterizes scope generation for one graph.
type Config struct {
	// Seed is the 2x2 probability matrix.
	Seed skg.Seed
	// Levels is log2|V|.
	Levels int
	// NumEdges is the target |E| of Theorem 1 (the binomial trial count).
	NumEdges int64
	// Noise, when non-nil, switches the engine to the NSKG model
	// (Appendix C); it must have at least Levels levels.
	Noise *skg.Noise
	// Opts selects the ablation variant of edge determination;
	// recvec.Production() is the real system.
	Opts recvec.Options
	// HighPrecision switches RecVec arithmetic to math/big.Float
	// (the paper's BigDecimal mode, Section 5).
	HighPrecision bool
	// MaxScopeFactor caps a sampled scope size at MaxScopeFactor times
	// the scope's expectation (0 means no cap beyond |V|). TrillionG
	// does not need it; it exists for fault-injection tests.
	MaxScopeFactor float64
	// AllowDuplicates skips in-scope duplicate elimination, emitting raw
	// stochastic trials like the Graph500 edge-list generator. The
	// paper's criticism of such lists ("a huge number of repeated
	// edges") is measurable by diffing this mode against the default.
	AllowDuplicates bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Seed.Validate(); err != nil {
		return err
	}
	if c.Levels < 1 || c.Levels > 47 {
		return fmt.Errorf("avs: levels %d outside [1, 47]", c.Levels)
	}
	if c.NumEdges < 1 {
		return fmt.Errorf("avs: NumEdges %d < 1", c.NumEdges)
	}
	if c.Noise != nil && c.Noise.Levels() < c.Levels {
		return fmt.Errorf("avs: noise has %d levels, need %d", c.Noise.Levels(), c.Levels)
	}
	return nil
}

// NumVertices returns |V| = 2^Levels.
func (c Config) NumVertices() int64 { return int64(1) << uint(c.Levels) }

// Generator generates scopes for one graph configuration. Scope and
// ScopeWithSize are not safe for concurrent use (they share a scratch
// vector and dedup table) — give each worker its own instance, as
// core.Generate does. ScopeSize and the probability accessors are
// read-only and safe to call concurrently (the partitioner's parallel
// combine relies on this).
type Generator struct {
	cfg Config
	// acct, when non-nil, is charged once per scope for the scope's
	// recursive vector plus one VertexBytes per distinct destination —
	// the high-water mark per-edge charging would reach — and released
	// when the scope ends, making O(d_max) visible to experiments.
	acct *memacct.Acct
	// rowProbs[i] is the noise-free P_{u→} of a source with i one bits.
	rowProbs []float64
	// production selects the Algorithm 4 fast path: float64 arithmetic
	// with all three performance ideas and no ablation.
	production bool
	// vec is the scope's recursive vector, rebuilt in place; big is the
	// HighPrecision one, built per scope.
	vec recvec.Vector
	big *recvec.BigVector
	// dedup is the reusable in-scope duplicate filter.
	dedup dedupTable
}

// New returns a scope generator. acct may be nil.
func New(cfg Config, acct *memacct.Acct) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	base := cfg.Seed
	if cfg.Noise != nil {
		base = cfg.Noise.Base()
	}
	return &Generator{
		cfg:        cfg,
		acct:       acct,
		rowProbs:   skg.RowProbs(base, cfg.Levels),
		production: !cfg.HighPrecision && cfg.Opts == recvec.Production(),
	}, nil
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// RowProb returns P_{u→} under the configured model.
func (g *Generator) RowProb(u int64) float64 {
	p := g.rowProbs[bits.OnesCount64(uint64(u)&(uint64(1)<<uint(g.cfg.Levels)-1))]
	if g.cfg.Noise != nil {
		return g.cfg.Noise.RowProbFrom(p, u, g.cfg.Levels)
	}
	return p
}

// ExpectedDegree returns E[|S(u,V)|] = |E|·P_{u→}, the partitioner's
// load estimate for scope u.
func (g *Generator) ExpectedDegree(u int64) float64 {
	return float64(g.cfg.NumEdges) * g.RowProb(u)
}

// ScopeSize draws |S(u,V)| per Theorem 1: Binomial(|E|, P_{u→}),
// approximated by N(np, np(1−p)) for large n. The draw is clamped to
// [0, |V|] because a scope has only |V| distinct cells.
func (g *Generator) ScopeSize(u int64, src *rng.Source) int64 {
	p := g.RowProb(u)
	d := src.Binomial(g.cfg.NumEdges, p)
	if nv := g.cfg.NumVertices(); d > nv {
		d = nv
	}
	if g.cfg.MaxScopeFactor > 0 {
		if lim := int64(math.Ceil(g.cfg.MaxScopeFactor * float64(g.cfg.NumEdges) * p)); d > lim {
			d = lim
		}
	}
	return d
}

// ScopeResult carries one generated scope.
type ScopeResult struct {
	Src int64
	// Dsts are the distinct destinations, in generation order. The slice
	// aliases the buffer passed to GenerateScope.
	Dsts []int64
	// Attempts counts stochastic edge trials including duplicates.
	Attempts int64
}

// Scope generates the full scope of source vertex u: it draws the scope
// size, builds u's recursive vector once (Idea#1, unless ablated), and
// determines destinations until the size is reached, discarding
// duplicates. buf, if non-nil, is reused for the destination slice.
//
// The returned destinations are unique. Generation is deterministic
// given src's state.
func (g *Generator) Scope(u int64, src *rng.Source, buf []int64) ScopeResult {
	size := g.ScopeSize(u, src)
	return g.ScopeWithSize(u, size, src, buf)
}

// ScopeWithSize generates exactly `size` distinct destinations for u
// (clamped to |V|). It is split from Scope so the partitioner can draw
// scope sizes ahead of time (Figure 6) and later generate the edges.
//
// After warm-up a production scope allocates nothing: the vector is
// rebuilt in place, the dedup table is reused, and the memory account
// is charged once for the whole scope.
func (g *Generator) ScopeWithSize(u int64, size int64, src *rng.Source, buf []int64) ScopeResult {
	if nv := g.cfg.NumVertices(); size > nv {
		size = nv
	}
	res := ScopeResult{Src: u, Dsts: buf[:0]}
	if size <= 0 {
		return res
	}

	var total float64
	if g.cfg.HighPrecision {
		g.big = recvec.NewBig(g.cfg.Seed, u, g.cfg.Levels, 0)
		total = g.big.RowProb()
	} else {
		g.build(u)
		total = g.vec.RowProb()
	}
	if total > 0 {
		if g.cfg.AllowDuplicates {
			for res.Attempts < size {
				res.Dsts = append(res.Dsts, g.draw(u, total, src))
				res.Attempts++
			}
		} else {
			g.dedup.prepare(size)
			// A scope close to |V| distinct cells would make rejection
			// sampling quadratic; bail into direct enumeration when
			// duplicates dominate pathologically (uniform seeds with tiny
			// graphs in tests).
			maxAttempts := 64*size + 1024
			for int64(len(res.Dsts)) < size && res.Attempts < maxAttempts {
				dst := g.draw(u, total, src)
				res.Attempts++
				if g.dedup.insert(dst) {
					res.Dsts = append(res.Dsts, dst)
				}
			}
			g.dedup.reset(res.Dsts)
		}
	}
	if g.acct != nil {
		// One charge for the whole scope: the vector (f and sigma,
		// float64 each) plus the dedup table's distinct destinations.
		held := int64((g.cfg.Levels + 1) * 16)
		if !g.cfg.AllowDuplicates {
			held += memacct.VertexBytes * int64(len(res.Dsts))
		}
		g.acct.Add(held)
		g.acct.Add(-held)
	}
	return res
}

// build rebuilds the scope's recursive vector for source u in place.
func (g *Generator) build(u int64) {
	if g.cfg.Noise != nil {
		g.vec.ResetNoisy(g.cfg.Noise, u, g.cfg.Levels)
	} else {
		g.vec.Reset(g.cfg.Seed, u, g.cfg.Levels)
	}
}

// draw determines one destination of scope u from a fresh uniform value
// in [0, total).
func (g *Generator) draw(u int64, total float64, src *rng.Source) int64 {
	x := src.UniformTo(total)
	if g.production {
		return g.vec.Determine(x)
	}
	if g.cfg.HighPrecision {
		return g.big.Determine(x)
	}
	if !g.cfg.Opts.ReuseVector {
		g.build(u) // Idea#1 ablation: rebuild the vector for every edge
	}
	return g.vec.DetermineOpt(x, src, g.cfg.Opts)
}
