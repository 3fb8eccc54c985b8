// Package community composes TrillionG's scope generators into
// community-structured graphs: a partition of the vertex space into
// communities plus a mixing matrix, realized as dense intra-community
// blocks (SKG/NSKG via the recursive vector, or ERV for
// non-power-of-two community sizes) stitched together by sparse
// rectangular inter-community ERV blocks — the blocked layout of Yoo &
// Henderson's parallel scale-free generator, built from the paper's
// Figure-7b rectangles.
//
// Every block is generated deterministically from (master seed, block
// position): block b's scopes draw from rng.NewScoped(blockSeed(b), u),
// exactly the per-scope independence trick the flat generator uses. The
// graph is therefore a pure function of its Config — bit-identical
// across worker counts, machines, claim orders, and execution modes —
// and a block is the natural work unit: one part file, one store
// artifact, one dist lease, one swarm claim.
//
// Layout implements core.PartSource, which is what plugs the
// composition into the batch, distributed and masterless runtimes at
// once. docs/COMMUNITY.md is the user-facing contract.
package community

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"time"

	"repro/internal/avs"
	"repro/internal/core"
	"repro/internal/erv"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// Salts separating the package's derived RNG streams from each other
// and from the flat generator's.
const (
	// blockSeedSalt derives each block's seed from the master seed.
	blockSeedSalt = 0xB10C5
	// sizeSalt seeds the power-law community-size sampler.
	sizeSalt = 0x512E5
	// noiseSalt derives a block's NSKG noise stream from its block seed
	// (the same role core's 0xBE5 plays for the whole-graph noise).
	noiseSalt = 0xBE5
)

// maxCommunitySize caps one community at the generators' 2^47 range
// limit.
const maxCommunitySize = int64(1) << 47

// Config specifies a community-structured graph. It doubles as the
// JSON spec format of the -community CLI modes and the server job
// field (snake_case keys); ParseSpec decodes it strictly.
type Config struct {
	// Sizes lists explicit community sizes. When set, the sampler
	// fields below are ignored.
	Sizes []int64 `json:"sizes,omitempty"`

	// Communities, MinSize, MaxSize and SizeExponent parameterize the
	// seeded power-law size sampler used when Sizes is empty:
	// Communities sizes are drawn from a bounded power law with density
	// ∝ s^-SizeExponent on [MinSize, MaxSize], deterministically from
	// MasterSeed. Defaults: MinSize 64, MaxSize 8192, SizeExponent 2.
	Communities  int     `json:"communities,omitempty"`
	MinSize      int64   `json:"min_size,omitempty"`
	MaxSize      int64   `json:"max_size,omitempty"`
	SizeExponent float64 `json:"size_exponent,omitempty"`

	// Mixing is the k×k mixing matrix: Mixing[i][j] is the relative
	// weight of edges from community i to community j (unnormalized,
	// ≥ 0). The diagonal weights intra-community blocks.
	Mixing [][]float64 `json:"mixing"`

	// Edges is the total edge budget, split across blocks proportional
	// to Mixing. 0 means EdgeFactor × total vertices.
	Edges int64 `json:"edges,omitempty"`
	// EdgeFactor is the per-vertex budget when Edges is 0 (default 16).
	EdgeFactor int64 `json:"edge_factor,omitempty"`

	// Seed is the SKG seed matrix shaping degree distributions inside
	// every block (default Graph500). Intra blocks use it directly;
	// inter blocks use its Lemma-6 Zipf slopes for the ERV rectangle's
	// out- and in-distributions.
	Seed *skg.Seed `json:"seed,omitempty"`
	// Noise is the NSKG noise parameter applied to power-of-two intra
	// blocks (0 disables, as in the flat generator).
	Noise float64 `json:"noise,omitempty"`

	// MasterSeed is the graph's random identity (0 means 1).
	MasterSeed uint64 `json:"master_seed,omitempty"`
	// AllowDuplicates keeps repeated (src, dst) pairs within a scope.
	AllowDuplicates bool `json:"allow_duplicates,omitempty"`
}

// withDefaults fills unset fields with their documented defaults.
func (c Config) withDefaults() Config {
	if c.MasterSeed == 0 {
		c.MasterSeed = 1
	}
	if c.EdgeFactor == 0 {
		c.EdgeFactor = 16
	}
	if c.Seed == nil {
		s := skg.Graph500Seed
		c.Seed = &s
	}
	if len(c.Sizes) == 0 {
		if c.MinSize == 0 {
			c.MinSize = 64
		}
		if c.MaxSize == 0 {
			c.MaxSize = 8192
		}
		if c.SizeExponent == 0 {
			c.SizeExponent = 2
		}
	}
	return c
}

// ParseSpec decodes a JSON community spec strictly (unknown fields are
// an error, so a typoed key fails loudly instead of silently changing
// the graph).
func ParseSpec(b []byte) (Config, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return c, fmt.Errorf("community: spec: %w", err)
	}
	return c, nil
}

// Bipartite returns the spec of a plain rows×cols bipartite graph —
// the two-community degenerate case: all edges flow through the single
// rectangular inter block, the two diagonal blocks are empty.
func Bipartite(rows, cols, edges int64, masterSeed uint64) Config {
	return Config{
		Sizes:      []int64{rows, cols},
		Mixing:     [][]float64{{0, 1}, {0, 0}},
		Edges:      edges,
		MasterSeed: masterSeed,
	}
}

// Block is one rectangle of the blocked adjacency matrix: edges from
// community SrcComm's vertex range into community DstComm's.
type Block struct {
	// ID is the block's part index (dense, row-major over positive-
	// budget mixing entries).
	ID int
	// SrcComm and DstComm are the community indices.
	SrcComm, DstComm int
	// SrcLo/SrcHi and DstLo/DstHi are the global vertex ranges
	// (half-open) of the source rows and destination columns.
	SrcLo, SrcHi, DstLo, DstHi int64
	// Edges is the block's share of the total edge budget.
	Edges int64
	// Intra marks a diagonal (intra-community) block.
	Intra bool
	// Seed is the block's derived random seed; scope u of the block
	// draws from rng.NewScoped(Seed, u).
	Seed uint64
}

// Layout is a resolved community configuration: concrete sizes,
// offsets, per-block edge budgets and seeds. It implements
// core.PartSource with one part per block.
type Layout struct {
	cfg     Config // resolved: Sizes filled, Seed/Edges/MasterSeed set
	offsets []int64
	blocks  []Block
	edges   int64
	scopes  int64
	fp      string
}

// New resolves cfg into a Layout: sizes are sampled if not explicit,
// the mixing matrix is normalized into per-block budgets (largest-
// remainder rounding, so budgets always sum to the total), and every
// block's generator configuration is validated up front. Unusable
// block rectangles surface as erv's typed *RangeError.
func New(cfg Config) (*Layout, error) {
	c := cfg.withDefaults()
	if err := c.Seed.Validate(); err != nil {
		return nil, fmt.Errorf("community: %w", err)
	}

	if len(c.Sizes) == 0 {
		if c.Communities < 1 {
			return nil, fmt.Errorf("community: need explicit sizes or communities > 0")
		}
		if c.MinSize < 1 || c.MaxSize < c.MinSize || c.MaxSize > maxCommunitySize {
			return nil, fmt.Errorf("community: size bounds [%d, %d] invalid", c.MinSize, c.MaxSize)
		}
		c.Sizes = sampleSizes(c.Communities, c.MinSize, c.MaxSize, c.SizeExponent, c.MasterSeed)
	}
	k := len(c.Sizes)
	offsets := make([]int64, k+1)
	for i, s := range c.Sizes {
		if s < 1 {
			// A non-positive community is an unusable block rectangle;
			// surface erv's typed error so spec layers recognize it.
			return nil, fmt.Errorf("community %d: %w", i, &erv.RangeError{Rows: s, Cols: s})
		}
		if s > maxCommunitySize {
			return nil, fmt.Errorf("community %d: size %d exceeds the generator's 2^47 range limit", i, s)
		}
		offsets[i+1] = offsets[i] + s
	}
	if total := offsets[k]; total > gformat.MaxVertexID {
		return nil, fmt.Errorf("community: %d total vertices exceed the 48-bit id space", total)
	}

	if len(c.Mixing) != k {
		return nil, fmt.Errorf("community: mixing matrix is %d×?, need %d×%d", len(c.Mixing), k, k)
	}
	weights := make([]float64, k*k)
	var mass float64
	for i, row := range c.Mixing {
		if len(row) != k {
			return nil, fmt.Errorf("community: mixing row %d has %d entries, need %d", i, len(row), k)
		}
		for j, w := range row {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				return nil, fmt.Errorf("community: mixing[%d][%d] = %v invalid", i, j, w)
			}
			weights[i*k+j] = w
			mass += w
		}
	}
	if mass <= 0 {
		return nil, fmt.Errorf("community: mixing matrix is all zero")
	}

	if c.Edges == 0 {
		c.Edges = c.EdgeFactor * offsets[k]
	}
	if c.Edges < 1 {
		return nil, fmt.Errorf("community: edge budget %d < 1", c.Edges)
	}
	budgets := splitBudget(weights, c.Edges)

	l := &Layout{cfg: c, offsets: offsets}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			budget := budgets[i*k+j]
			if budget <= 0 {
				continue
			}
			b := Block{
				ID:      len(l.blocks),
				SrcComm: i, DstComm: j,
				SrcLo: offsets[i], SrcHi: offsets[i+1],
				DstLo: offsets[j], DstHi: offsets[j+1],
				Edges: budget,
				Intra: i == j,
				Seed:  rng.Mix64(rng.Mix64(c.MasterSeed, blockSeedSalt), uint64(i*k+j)),
			}
			rows, cols := b.SrcHi-b.SrcLo, b.DstHi-b.DstLo
			if !c.AllowDuplicates && float64(budget) > float64(rows)*float64(cols) {
				return nil, fmt.Errorf("community: block (%d,%d) budget %d exceeds its %d×%d capacity (raise sizes, lower the weight, or allow duplicates)",
					i, j, budget, rows, cols)
			}
			// Probe-build the block's generator so a bad configuration
			// (including empty/inverted rectangles, as *erv.RangeError)
			// fails at spec time, not mid-generation.
			if _, err := l.newScoper(b, nil); err != nil {
				return nil, fmt.Errorf("community: block (%d,%d): %w", i, j, err)
			}
			l.blocks = append(l.blocks, b)
			l.edges += budget
			l.scopes += rows
		}
	}
	if len(l.blocks) == 0 {
		return nil, fmt.Errorf("community: no block received a positive edge budget")
	}
	l.fp = fingerprint(c, l.blocks)
	return l, nil
}

// sampleSizes draws k community sizes from the bounded power law with
// density ∝ s^-gamma on [lo, hi] by inverse-CDF, deterministically from
// the master seed.
func sampleSizes(k int, lo, hi int64, gamma float64, masterSeed uint64) []int64 {
	src := rng.New(rng.Mix64(masterSeed, sizeSalt))
	sizes := make([]int64, k)
	for i := range sizes {
		u := src.Float64()
		var s float64
		if math.Abs(gamma-1) < 1e-9 {
			s = float64(lo) * math.Exp(u*math.Log(float64(hi)/float64(lo)))
		} else {
			a := math.Pow(float64(lo), 1-gamma)
			b := math.Pow(float64(hi), 1-gamma)
			s = math.Pow(a+u*(b-a), 1/(1-gamma))
		}
		sizes[i] = min(max(int64(math.Round(s)), lo), hi)
	}
	return sizes
}

// splitBudget apportions total across the weights by largest-remainder
// rounding: floors first, then the remainder to the largest fractional
// parts (ties to the lower index), so the budgets sum to total exactly
// and the split is deterministic.
func splitBudget(weights []float64, total int64) []int64 {
	var mass float64
	for _, w := range weights {
		mass += w
	}
	out := make([]int64, len(weights))
	type frac struct {
		i int
		f float64
	}
	var fr []frac
	var used int64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		exact := float64(total) * w / mass
		fl := math.Floor(exact)
		out[i] = int64(fl)
		used += int64(fl)
		fr = append(fr, frac{i, exact - fl})
	}
	sort.SliceStable(fr, func(a, b int) bool {
		if fr[a].f != fr[b].f {
			return fr[a].f > fr[b].f
		}
		return fr[a].i < fr[b].i
	})
	for r := 0; used < total && len(fr) > 0; r++ {
		out[fr[r%len(fr)].i]++
		used++
	}
	return out
}

// fingerprint condenses everything that determines generated bytes:
// the resolved sizes, every block's rectangle, budget and seed, and
// the per-block generator parameters. Identical fingerprints mean
// bit-identical output, which is the property the store keys need.
func fingerprint(c Config, blocks []Block) string {
	var b strings.Builder
	fmt.Fprintf(&b, "community/v2 sampler=%v master=%d dup=%t seed=%v noise=%v sizes=%v",
		blockSampler, c.MasterSeed, c.AllowDuplicates, *c.Seed, c.Noise, c.Sizes)
	for _, blk := range blocks {
		fmt.Fprintf(&b, " b%d=(%d,%d)[%d,%d)x[%d,%d)e%d:%016x",
			blk.ID, blk.SrcComm, blk.DstComm, blk.SrcLo, blk.SrcHi, blk.DstLo, blk.DstHi, blk.Edges, blk.Seed)
	}
	return b.String()
}

// Config returns the resolved configuration (sizes concrete, defaults
// applied). Marshaled, it round-trips through ParseSpec and New to an
// identical layout.
func (l *Layout) Config() Config { return l.cfg }

// Sizes returns the resolved community sizes.
func (l *Layout) Sizes() []int64 { return l.cfg.Sizes }

// Blocks returns the block plan in part order.
func (l *Layout) Blocks() []Block { return l.blocks }

// NumBlocks returns the number of blocks — the layout's part count.
func (l *Layout) NumBlocks() int { return len(l.blocks) }

// TotalEdges returns the summed block budgets.
func (l *Layout) TotalEdges() int64 { return l.edges }

// ScopeTotal returns the number of scopes generation emits: the summed
// source rows over all blocks (one vertex can head a scope in several
// blocks).
func (l *Layout) ScopeTotal() int64 { return l.scopes }

// CommunityOf returns the community index owning global vertex v, or
// -1 when v is outside the vertex space.
func (l *Layout) CommunityOf(v int64) int {
	if v < 0 || v >= l.offsets[len(l.offsets)-1] {
		return -1
	}
	// offsets is sorted; find the last offset ≤ v.
	i := sort.Search(len(l.offsets), func(i int) bool { return l.offsets[i] > v })
	return i - 1
}

// Fingerprint implements core.PartSource.
func (l *Layout) Fingerprint() string { return l.fp }

// NumVertices implements core.PartSource.
func (l *Layout) NumVertices() int64 { return l.offsets[len(l.offsets)-1] }

// Plan implements core.PartSource. The layout's part count is
// intrinsic — one part per block — so parts must be 0 (no opinion) or
// exactly NumBlocks; anything else is a configuration clash, not a
// parallelism knob.
func (l *Layout) Plan(parts int) ([]partition.Range, []int, error) {
	if parts != 0 && parts != len(l.blocks) {
		return nil, nil, fmt.Errorf("community: layout has %d blocks (one part each), cannot plan %d parts", len(l.blocks), parts)
	}
	ranges := make([]partition.Range, len(l.blocks))
	ids := make([]int, len(l.blocks))
	for i, b := range l.blocks {
		ranges[i] = partition.Range{Lo: b.SrcLo, Hi: b.SrcHi, Edges: b.Edges}
		ids[i] = i
	}
	return ranges, ids, nil
}

// PartKey implements core.PartSource: the key fingerprints the whole
// resolved layout plus the block id, so two configs differing anywhere
// that matters — sizes, mixing-derived budgets, seeds, noise — address
// different artifacts, while identical configs cache-hit across batch,
// dist and swarm runs.
func (l *Layout) PartKey(format gformat.Format, id int, r partition.Range) store.Key {
	lo, hi := r.Lo, r.Hi
	if id >= 0 && id < len(l.blocks) {
		lo, hi = l.blocks[id].SrcLo, l.blocks[id].SrcHi
	}
	return store.DeriveKey(store.KeyInput{
		ConfigFingerprint: fmt.Sprintf("%s|block=%d", l.fp, id),
		MasterSeed:        l.cfg.MasterSeed,
		Lo:                lo,
		Hi:                hi,
		Format:            format.String(),
		Codec:             core.CacheCodecVersion,
	})
}

// ArtifactKey addresses the whole concatenated output (every block in
// part order) in the given format — the server's stream/download
// artifact, the byte-equal of the batch part files joined.
func (l *Layout) ArtifactKey(format gformat.Format) store.Key {
	return store.DeriveKey(store.KeyInput{
		ConfigFingerprint: l.fp + "|stream",
		MasterSeed:        l.cfg.MasterSeed,
		Lo:                0,
		Hi:                l.NumVertices(),
		Format:            format.String(),
		Codec:             core.CacheCodecVersion,
	})
}

// EnsureManifest implements core.PartSource, recording the resolved
// spec so tools (the statistical validator foremost) can recover what
// the directory claims to be.
func (l *Layout) EnsureManifest(dir string, format gformat.Format, parts int) error {
	spec, err := json.Marshal(l.cfg)
	if err != nil {
		return err
	}
	return core.EnsureSourceManifest(dir, l.fp, spec, format, parts)
}

// distForSlope maps a Lemma-6 Zipf slope onto an ERV distribution:
// properly negative slopes are Zipfian; a flat (uniform-seed) slope
// degenerates to Gaussian, matching erv's own seed mapping.
func distForSlope(slope float64) erv.Dist {
	if slope < -1e-12 {
		return erv.Dist{Kind: erv.Zipfian, Slope: slope}
	}
	return erv.Dist{Kind: erv.Gaussian}
}

// blockSampler draws the destinations of AVS blocks: the production
// default of core.DefaultConfig.
const blockSampler = avs.SamplerChunk

// newScoper builds block b's generator charging acct (which may be
// nil). Power-of-two intra blocks run the production AVS engine (SKG,
// or NSKG when Noise is set, with the noise stream derived from the
// block seed); everything else — rectangles and odd-sized squares —
// runs ERV with the seed's Lemma-6 slopes.
func (l *Layout) newScoper(b Block, acct *memacct.Acct) (core.Scoper, error) {
	rows, cols := b.SrcHi-b.SrcLo, b.DstHi-b.DstLo
	seed := *l.cfg.Seed
	if b.Intra && rows >= 2 && rows == cols && rows&(rows-1) == 0 {
		levels := bits.Len64(uint64(rows)) - 1
		acfg := avs.Config{
			Seed:            seed,
			Levels:          levels,
			NumEdges:        b.Edges,
			Sampler:         blockSampler,
			Opts:            recvec.Production(),
			AllowDuplicates: l.cfg.AllowDuplicates,
		}
		if l.cfg.Noise > 0 {
			n, err := skg.NewNoise(seed, levels, l.cfg.Noise, rng.New(rng.Mix64(b.Seed, noiseSalt)))
			if err != nil {
				return nil, err
			}
			acfg.Noise = n
		}
		return avs.New(acfg, acct)
	}
	return erv.NewAccounted(erv.Config{
		NumSrc:          rows,
		NumDst:          cols,
		NumEdges:        b.Edges,
		OutDist:         distForSlope(seed.OutZipfSlope()),
		InDist:          distForSlope(seed.InZipfSlope()),
		AllowDuplicates: l.cfg.AllowDuplicates,
	}, acct)
}

// Runs returns the layout's blocks in part order as core driver runs.
// With tel set, each finished block feeds the community.* counters.
func (l *Layout) Runs(tel *telemetry.Registry) []core.Run {
	runs := make([]core.Run, len(l.blocks))
	for i, b := range l.blocks {
		runs[i] = l.run(b, tel)
	}
	return runs
}

// run is block b as a driver run: local scope u draws from
// Mix64(b.Seed, u) — fully independent of every other scope and block,
// which is the whole determinism story — and lands as global scope
// (SrcLo+u, dsts+DstLo).
func (l *Layout) run(b Block, tel *telemetry.Registry) core.Run {
	r := core.Run{
		Seed: b.Seed, Hi: b.SrcHi - b.SrcLo, SrcOff: b.SrcLo, DstOff: b.DstLo,
		NewScoper: func(acct *memacct.Acct) (core.Scoper, error) { return l.newScoper(b, acct) },
	}
	if tel != nil {
		kind := MetricInterEdges
		if b.Intra {
			kind = MetricIntraEdges
		}
		r.Done = func(edges int64) {
			tel.Counter(MetricBlocksGenerated).Inc()
			tel.Counter(kind).Add(edges)
		}
	}
	return r
}

// GeneratePart implements core.PartSource: block id through
// core.DrivePart into a writer from sinks(0, r). On error the writer is
// abandoned unclosed, so a failed part is never renamed into place.
func (l *Layout) GeneratePart(id int, r partition.Range, sinks core.SinkFactory, tel *telemetry.Registry) (core.Stats, error) {
	if id < 0 || id >= len(l.blocks) {
		return core.Stats{}, fmt.Errorf("community: part %d outside the %d-block layout", id, len(l.blocks))
	}
	b := l.blocks[id]
	st, err := core.DrivePart(l.run(b, tel), r, sinks, tel)
	if err != nil {
		return st, fmt.Errorf("community: block (%d,%d): %w", b.SrcComm, b.DstComm, err)
	}
	return st, nil
}

// checkFormat rejects encodings that cannot express the blocked
// layout: CSR6 needs exactly one scope per vertex, but a vertex heads
// one scope per block it sources.
func checkFormat(format gformat.Format) error {
	if format != gformat.TSV && format != gformat.ADJ6 {
		return fmt.Errorf("community: format %v unsupported (blocked output repeats source scopes; use tsv or adj6)", format)
	}
	return nil
}

// RunOptions tunes GenerateToDir.
type RunOptions struct {
	// Store, when non-nil, is the artifact store: cached blocks are
	// materialized instead of generated, generated blocks are ingested.
	Store *store.Store
	// Telemetry receives community.* and core sink metrics (nil
	// disables).
	Telemetry *telemetry.Registry
}

// GenerateToDir generates the layout into dir, one part file per block
// (part-<blockID>.<ext>), with the full resume/store treatment of the
// flat generator: atomic part files, a manifest handshake, existing
// complete parts skipped, store hits materialized, generated parts
// ingested. Concatenating the part files in part order yields the
// byte-exact stream output.
func (l *Layout) GenerateToDir(dir string, format gformat.Format, opt RunOptions) (core.Stats, error) {
	if err := checkFormat(format); err != nil {
		return core.Stats{}, err
	}
	planStart := time.Now()
	ranges, ids, err := l.Plan(0)
	if err != nil {
		return core.Stats{}, err
	}
	if err := l.EnsureManifest(dir, format, len(ranges)); err != nil {
		return core.Stats{}, err
	}
	if err := core.SweepTemps(dir); err != nil {
		return core.Stats{}, err
	}
	if tel := opt.Telemetry; tel != nil {
		tel.Gauge(MetricCommunities).Set(float64(len(l.cfg.Sizes)))
		tel.Gauge(MetricBlocksPlanned).Set(float64(len(l.blocks)))
	}
	planDur := time.Since(planStart)

	missing, missingIDs := core.MissingParts(dir, format, ranges, ids)
	missing, missingIDs, hits, err := core.FetchPartsFromStore(opt.Store, l, dir, format, missing, missingIDs)
	if err != nil {
		return core.Stats{}, err
	}
	if len(missing) == 0 {
		return core.Stats{
			PlanDuration:   planDur,
			Elapsed:        planDur,
			Ranges:         ranges,
			PartsFromCache: hits,
		}, nil
	}
	sinks := core.IngestingSinksFor(
		core.AtomicPartSinks(dir, format, l.NumVertices(), missingIDs),
		opt.Store, l, dir, format, missingIDs)
	if opt.Telemetry != nil {
		sinks = core.ObservedSinks(sinks, format, opt.Telemetry)
	}
	st, err := core.GenerateParts(l, missing, missingIDs, sinks, opt.Telemetry)
	if err != nil {
		return st, err
	}
	st.PlanDuration = planDur
	st.Elapsed = planDur + st.GenDuration
	st.Ranges = ranges
	st.PartsFromCache = hits
	return st, nil
}
