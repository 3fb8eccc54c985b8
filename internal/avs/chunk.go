package avs

import (
	"fmt"
	"math"

	"repro/internal/alias"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
)

// Sampler selects how a scope draws its destinations. Both samplers
// draw from the same distribution (Proposition 1, or Lemma 8 under
// NSKG); they consume randomness differently, so their bytes differ.
type Sampler int

const (
	// SamplerRecVec is the paper's Theorem-2 descent over the scope's
	// recursive vector: one uniform per edge, translated level by level.
	// It is the zero value, the reference for Table 2 and Figure 13, and
	// the only sampler with ablation and high-precision variants.
	SamplerRecVec Sampler = iota
	// SamplerChunk draws the destination ⌈Levels/chunkBits⌉ bits at a
	// time, one O(1) alias-table lookup per chunk. Given the source the
	// destination bits are independent (Proposition 1 factorizes over
	// bit positions, Lemma 8 per level), so a chunk's bits are one draw
	// from a table indexed by the source's bits at the same positions.
	SamplerChunk
)

// String names the sampler as the -sampler flag spells it.
func (s Sampler) String() string {
	switch s {
	case SamplerRecVec:
		return "recvec"
	case SamplerChunk:
		return "chunk"
	}
	return fmt.Sprintf("Sampler(%d)", int(s))
}

// ParseSampler maps a sampler name to its value.
func ParseSampler(name string) (Sampler, error) {
	for _, s := range []Sampler{SamplerRecVec, SamplerChunk} {
		if name == s.String() {
			return s, nil
		}
	}
	return 0, fmt.Errorf("avs: unknown sampler %q (want recvec or chunk)", name)
}

// Validate checks that the sampler exists and supports the RecVec
// variant selected by highPrecision and opts: those are variants of the
// descent, so the chunk sampler takes production options only.
func (s Sampler) Validate(highPrecision bool, opts recvec.Options) error {
	switch s {
	case SamplerRecVec:
		return nil
	case SamplerChunk:
		if highPrecision || opts != recvec.Production() {
			return fmt.Errorf("sampler chunk runs production options only; high precision and ablations need sampler recvec")
		}
		return nil
	}
	return fmt.Errorf("unknown sampler %d", int(s))
}

// chunkBits is k, the destination bits one alias draw decides. Tables
// cost ⌈L/k⌉·4^k entries. At Scale 18 on one core k = 6, 7 and 8 draw
// within run-to-run noise of each other and k = 5 is 15–30% slower;
// 6 keeps the tables smallest among the fast ones.
const chunkBits = 6

const (
	chunkCols = 1 << chunkBits
	// coinBits is the coin's width: a draw's low 53 bits, disjoint from
	// the top chunkBits that pick the column.
	coinBits = 53
	coinMask = 1<<coinBits - 1
)

// chunkRow is the Walker table of one source pattern: column j is kept
// when the coin is below thr[j] (its probability scaled to 2^53,
// rounded up so the integer test equals the float one) and replaced by
// alias[j] otherwise. Only the first 2^width columns are used.
type chunkRow struct {
	thr   [chunkCols]uint64
	alias [chunkCols]uint8
}

// chunkLevel holds the tables of one chunk position: destination bits
// [shift, shift+width), one row per source pattern at those bits.
type chunkLevel struct {
	shift, width uint
	rows         []chunkRow
}

// pickedChunk is one chunk of the current scope: its row, its
// destination shift and the right shift that brings a draw's top width
// bits down to a column.
type pickedChunk struct {
	row         *chunkRow
	shift, drop uint
}

// chunkTables builds the chunk sampler's tables for cfg: ⌈Levels/k⌉
// chunk positions of up to 4^k entries each, read-only once built.
// Destination bit x takes its probabilities from the seed row of source
// bit x — under NSKG from noise level Levels−1−x. Without noise every
// full-width position has the same tables and shares one copy.
func chunkTables(cfg Config) []chunkLevel {
	var shared []chunkRow
	var levels []chunkLevel
	for shift := 0; shift < cfg.Levels; shift += chunkBits {
		width := min(chunkBits, cfg.Levels-shift)
		lv := chunkLevel{shift: uint(shift), width: uint(width)}
		if cfg.Noise == nil && width == chunkBits && shared != nil {
			lv.rows = shared
		} else {
			seeds := make([]skg.Seed, width)
			for b := range seeds {
				seeds[b] = cfg.Seed
				if cfg.Noise != nil {
					seeds[b] = cfg.Noise.Level(cfg.Levels - 1 - (shift + b))
				}
			}
			lv.rows = chunkRows(seeds)
			if cfg.Noise == nil && width == chunkBits {
				shared = lv.rows
			}
		}
		levels = append(levels, lv)
	}
	return levels
}

// chunkRows compiles the tables of one chunk whose bit b follows
// seeds[b]: row p weighs column j by ∏_b seeds[b][p_b][j_b],
// Proposition 1 restricted to the chunk.
func chunkRows(seeds []skg.Seed) []chunkRow {
	n := 1 << uint(len(seeds))
	rows := make([]chunkRow, n)
	var weights [chunkCols]float64
	for p := range rows {
		// Extend the product one bit at a time: after bit b, weights[j]
		// covers columns j < 2^(b+1).
		weights[0] = 1
		for b, k := range seeds {
			half := 1 << uint(b)
			src := uint64(p>>uint(b)) & 1
			lo, hi := k.At(src, 0), k.At(src, 1)
			for j := 0; j < half; j++ {
				weights[j+half] = weights[j] * hi
				weights[j] *= lo
			}
		}
		row := &rows[p]
		t, err := alias.New(weights[:n])
		if err != nil {
			// All-zero weights: a row of sources with P_{u→} = 0, whose
			// scopes are empty, so it is never drawn from.
			for j := 0; j < n; j++ {
				row.thr[j], row.alias[j] = 1<<coinBits, uint8(j)
			}
			continue
		}
		for j := 0; j < n; j++ {
			prob, a := t.Column(j)
			row.thr[j] = uint64(math.Ceil(prob * (1 << coinBits)))
			row.alias[j] = uint8(a)
		}
	}
	return rows
}

// pickChunks selects source u's row at every chunk position.
func (g *Generator) pickChunks(u int64) {
	if g.chunks == nil {
		g.chunks = chunkTables(g.cfg)
		g.picked = make([]pickedChunk, len(g.chunks))
	}
	for i := range g.chunks {
		lv := &g.chunks[i]
		p := uint64(u) >> lv.shift & (1<<lv.width - 1)
		g.picked[i] = pickedChunk{row: &lv.rows[p], shift: lv.shift, drop: 64 - lv.width}
	}
}

// drawChunk draws one destination of the picked scope: per chunk, one
// Uint64 whose top width bits choose a column and whose low 53 bits are
// the Walker coin.
func (g *Generator) drawChunk(src *rng.Source) int64 {
	var dst uint64
	for _, c := range g.picked {
		x := src.Uint64()
		col := x >> c.drop & (chunkCols - 1)
		if x&coinMask >= c.row.thr[col] {
			col = uint64(c.row.alias[col])
		}
		dst |= col << c.shift
	}
	return int64(dst)
}
