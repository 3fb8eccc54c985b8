// Package core is the TrillionG system of Section 5: it plans an
// AVS-level partition of the vertex space (Figure 6), runs one worker
// per partition generating scopes with the recursive vector model
// (Algorithm 4), and streams each worker's adjacency lists into its own
// format writer (TSV, ADJ6 or CSR6) — no shuffle, no global merge, and
// O(d_max) working memory per worker.
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/avs"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/partition"
	"repro/internal/recvec"
	"repro/internal/rng"
	"repro/internal/skg"
	"repro/internal/telemetry"
)

// Config parameterizes one TrillionG generation run.
type Config struct {
	// Scale is log2|V| (Graph500 terminology).
	Scale int
	// EdgeFactor is |E|/|V| (Graph500 uses 16).
	EdgeFactor int64
	// Seed is the 2x2 probability matrix.
	Seed skg.Seed
	// NoiseParam enables the NSKG model when > 0 (Appendix C).
	NoiseParam float64
	// MasterSeed makes the graph reproducible; the output is a pure
	// function of (Config, MasterSeed) regardless of Workers.
	MasterSeed uint64
	// Workers is the number of generation goroutines (0 = GOMAXPROCS).
	Workers int
	// BinsPerWorker tunes partition granularity (0 = default).
	BinsPerWorker int
	// Opts selects the edge-determination variant; zero value is the
	// all-ideas-off ablation, so most callers should use
	// DefaultConfig or set recvec.Production().
	Opts recvec.Options
	// HighPrecision switches RecVec arithmetic to math/big.Float.
	HighPrecision bool
	// Orientation selects out-edge scopes (AVS-O, the default) or
	// in-edge scopes (AVS-I, Section 3.3). Under AVS-I a scope is a
	// *column* of the adjacency matrix: WriteScope(v, srcs) carries the
	// in-neighbours of v, part files hold in-adjacency lists, and the
	// partitioner balances by in-degree.
	Orientation Orientation
	// AllowDuplicates emits raw stochastic trials without in-scope
	// dedup, the Graph500-edge-list semantics the paper contrasts with
	// ("a huge number of repeated edges"). Faster; unrealistic.
	AllowDuplicates bool
	// Sampler selects the destination draw. The zero value is the
	// paper's RecVec descent, which Opts and HighPrecision vary;
	// DefaultConfig selects SamplerChunk, the same distribution drawn
	// ⌈Scale/6⌉ alias lookups per edge. The two give different bytes.
	Sampler Sampler
}

// Sampler selects how scopes draw destinations (see avs.Sampler).
type Sampler = avs.Sampler

// The destination samplers.
const (
	SamplerRecVec = avs.SamplerRecVec
	SamplerChunk  = avs.SamplerChunk
)

// Orientation selects the scope axis of Section 3.3.
type Orientation int

const (
	// AVSO scopes are rows: one source vertex and its out-edges.
	AVSO Orientation = iota
	// AVSI scopes are columns: one destination vertex and its in-edges.
	AVSI
)

// String names the orientation.
func (o Orientation) String() string {
	if o == AVSI {
		return "AVS-I"
	}
	return "AVS-O"
}

// DefaultConfig returns the standard Graph500-style configuration at
// the given scale: K = [0.57, 0.19; 0.19, 0.05], |E| = 16·|V|, all
// three performance ideas enabled, destinations drawn by the chunk
// sampler.
func DefaultConfig(scale int) Config {
	return Config{
		Scale:      scale,
		EdgeFactor: 16,
		Seed:       skg.Graph500Seed,
		MasterSeed: 1,
		Opts:       recvec.Production(),
		Sampler:    SamplerChunk,
	}
}

// NumVertices returns |V|.
func (c Config) NumVertices() int64 { return int64(1) << uint(c.Scale) }

// NumEdges returns the target |E|.
func (c Config) NumEdges() int64 { return c.EdgeFactor * c.NumVertices() }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Scale < 1 || c.Scale > 47 {
		return fmt.Errorf("core: scale %d outside [1, 47]", c.Scale)
	}
	if c.EdgeFactor < 1 {
		return fmt.Errorf("core: edge factor %d < 1", c.EdgeFactor)
	}
	if err := c.Seed.Validate(); err != nil {
		return err
	}
	if c.NoiseParam < 0 || c.NoiseParam > skg.MaxNoise(c.Seed) {
		return fmt.Errorf("core: noise %v outside [0, %v]", c.NoiseParam, skg.MaxNoise(c.Seed))
	}
	if c.Workers < 0 {
		return fmt.Errorf("core: negative workers")
	}
	if c.Orientation != AVSO && c.Orientation != AVSI {
		return fmt.Errorf("core: unknown orientation %d", int(c.Orientation))
	}
	if err := c.Sampler.Validate(c.HighPrecision, c.Opts); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Stats reports a completed run.
type Stats struct {
	// Scopes is the number of scopes written, empty ones included.
	Scopes int64
	// Edges is the number of edges generated (and written).
	Edges int64
	// Attempts counts stochastic trials including in-scope duplicates.
	Attempts int64
	// MaxDegree is the largest generated out-degree.
	MaxDegree int64
	// PeakWorkerBytes is the largest tracked working set of any worker
	// (dedup set + the sampler's scope state) — the O(d_max) of Table 1.
	PeakWorkerBytes int64
	// BytesWritten sums the writers' outputs.
	BytesWritten int64
	// PlanDuration is the Figure 6 partitioning time; GenDuration the
	// generation+write time; Elapsed their sum.
	PlanDuration, GenDuration, Elapsed time.Duration
	// PartsFromCache counts parts satisfied from an artifact store
	// instead of generated (ResumeToDirStore and the cache-aware
	// distributed workers).
	PartsFromCache int
	// Ranges is the executed partition.
	Ranges []partition.Range
}

// SinkFactory supplies one writer per worker, called from the worker
// as it starts. The worker closes its writer.
type SinkFactory func(worker int, r partition.Range) (gformat.Writer, error)

// DiscardSinks returns a factory of counting no-op writers in the given
// format (for experiments that only need timing and counts).
func DiscardSinks(format gformat.Format) SinkFactory {
	return func(int, partition.Range) (gformat.Writer, error) {
		return gformat.NewDiscardWriter(format), nil
	}
}

// FileSinks writes one part file per worker into dir, named
// part-<worker>.<ext>. CSR6 part files carry the global vertex count so
// they can be read independently.
func FileSinks(dir string, format gformat.Format, numVertices int64) SinkFactory {
	return FileSinksOffset(dir, format, numVertices, 0)
}

// FileSinksOffset is FileSinks with part numbering starting at `first`,
// so workers on different machines produce a collision-free global file
// set (the distributed runtime's layout).
func FileSinksOffset(dir string, format gformat.Format, numVertices int64, first int) SinkFactory {
	return func(worker int, r partition.Range) (gformat.Writer, error) {
		name := filepath.Join(dir, fmt.Sprintf("part-%05d.%s", first+worker, extOf(format)))
		f, err := os.Create(name)
		if err != nil {
			return nil, err
		}
		switch format {
		case gformat.TSV:
			return &closerWriter{Writer: gformat.NewTSVWriter(f), f: f}, nil
		case gformat.ADJ6:
			return &closerWriter{Writer: gformat.NewADJ6Writer(f), f: f}, nil
		case gformat.CSR6:
			w, err := gformat.NewCSR6Writer(f, numVertices)
			if err != nil {
				f.Close()
				return nil, err
			}
			return &closerWriter{Writer: w, f: f}, nil
		default:
			f.Close()
			return nil, fmt.Errorf("core: unsupported format %v", format)
		}
	}
}

func extOf(f gformat.Format) string {
	switch f {
	case gformat.TSV:
		return "tsv"
	case gformat.ADJ6:
		return "adj6"
	default:
		return "csr6"
	}
}

type closerWriter struct {
	gformat.Writer
	f *os.File
}

func (c *closerWriter) Close() error {
	if err := c.Writer.Close(); err != nil {
		c.f.Close()
		return err
	}
	return c.f.Close()
}

// ScopeFunc receives generated scopes when using CallbackSinks.
type ScopeFunc func(src int64, dsts []int64) error

// CallbackSinks adapts a function into sinks. The function is called
// from multiple workers under a mutex, so it may keep plain state.
func CallbackSinks(fn ScopeFunc) SinkFactory {
	var mu sync.Mutex
	return func(int, partition.Range) (gformat.Writer, error) {
		return &callbackWriter{fn: fn, mu: &mu}, nil
	}
}

type callbackWriter struct {
	fn    ScopeFunc
	mu    *sync.Mutex
	edges int64
}

func (c *callbackWriter) WriteScope(src int64, dsts []int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.edges += int64(len(dsts))
	return c.fn(src, dsts)
}

func (c *callbackWriter) Close() error        { return nil }
func (c *callbackWriter) BytesWritten() int64 { return 0 }
func (c *callbackWriter) EdgesWritten() int64 { return c.edges }

// NewScopeGenerator builds the AVS generator for a configuration,
// reconstructing the NSKG noise deterministically from the master seed.
// acct may be nil. It is exported within the module for the distributed
// runtime and the experiment harness.
func NewScopeGenerator(cfg Config, acct *memacct.Acct) (*avs.Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var noise *skg.Noise
	if cfg.NoiseParam > 0 {
		var err error
		noise, err = skg.NewNoise(cfg.Seed, cfg.Scale, cfg.NoiseParam,
			rng.New(rng.Mix64(cfg.MasterSeed, 0xBE5)))
		if err != nil {
			return nil, err
		}
	}
	seed := cfg.Seed
	if cfg.Orientation == AVSI {
		// A column scope of K is a row scope of K^T; the noise (drawn
		// identically either way) transposes with it.
		seed = seed.Transpose()
		if noise != nil {
			noise = noise.Transpose()
		}
	}
	return avs.New(avs.Config{
		Seed:            seed,
		Levels:          cfg.Scale,
		NumEdges:        cfg.NumEdges(),
		Noise:           noise,
		Sampler:         cfg.Sampler,
		Opts:            cfg.Opts,
		HighPrecision:   cfg.HighPrecision,
		AllowDuplicates: cfg.AllowDuplicates,
	}, acct)
}

// Plan computes the Figure 6 partition for the configuration: `parts`
// contiguous vertex ranges of near-equal planned load. The plan is a
// pure function of (cfg, parts), so a distributed master and its
// workers agree on it without shipping sizes.
func Plan(cfg Config, parts int) ([]partition.Range, error) {
	g, err := NewScopeGenerator(cfg, nil)
	if err != nil {
		return nil, err
	}
	return partition.Plan(g, cfg.MasterSeed, parts, cfg.BinsPerWorker)
}

// Generate runs the full TrillionG pipeline: plan, then parallel scope
// generation into the sinks.
func Generate(cfg Config, sinks SinkFactory) (Stats, error) {
	return GenerateObserved(cfg, sinks, nil)
}

// GenerateObserved is Generate feeding the given telemetry registry:
// the plan, RecVec-build, scope-draw and sink-write stages plus the
// run-wide scope/edge/attempt counters (see docs/OBSERVABILITY.md for
// the catalog). A nil registry disables instrumentation entirely.
func GenerateObserved(cfg Config, sinks SinkFactory, tel *telemetry.Registry) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	workers := cfg.workers()
	var st Stats
	planStart := time.Now()
	ranges, err := Plan(cfg, workers)
	if err != nil {
		return Stats{}, err
	}
	st.PlanDuration = time.Since(planStart)
	if tel != nil {
		tel.Stage(StagePlan).Observe(st.PlanDuration, int64(len(ranges)))
	}
	gst, err := GenerateRangesObserved(cfg, ranges, sinks, tel)
	if err != nil {
		return st, err
	}
	gst.PlanDuration = st.PlanDuration
	gst.Elapsed = gst.PlanDuration + gst.GenDuration
	return gst, nil
}

// GenerateRanges generates exactly the given vertex ranges, one worker
// goroutine per range, into the sinks. It is the execution half of
// Generate, split out so a distributed worker can run the ranges a
// master assigned it.
func GenerateRanges(cfg Config, ranges []partition.Range, sinks SinkFactory) (Stats, error) {
	return GenerateRangesObserved(cfg, ranges, sinks, nil)
}

// GenerateRangesObserved is GenerateRanges feeding the given telemetry
// registry (nil disables instrumentation): each range is one part of
// GenerateParts, drawn inline by the scope driver.
func GenerateRangesObserved(cfg Config, ranges []partition.Range, sinks SinkFactory, tel *telemetry.Registry) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if len(ranges) == 0 {
		return Stats{}, fmt.Errorf("core: no ranges to generate")
	}
	ids := make([]int, len(ranges))
	for i := range ids {
		ids[i] = i
	}
	return GenerateParts(NewConfigSource(cfg), ranges, ids, sinks, tel)
}

// GenerateSeq is the single-threaded entry point (TrillionG/seq of
// Figure 11a): identical output, Workers forced to 1.
func GenerateSeq(cfg Config, sinks SinkFactory) (Stats, error) {
	cfg.Workers = 1
	return Generate(cfg, sinks)
}
