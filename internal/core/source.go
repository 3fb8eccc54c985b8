package core

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// PartSource abstracts a generation job whose output is a fixed,
// deterministic set of part files: the classic single-model run
// (ConfigSource, below) and the community-structured composition
// (internal/community.Layout) both implement it. Everything the
// runtimes need to execute a job part by part goes through this
// interface — the masterless swarm claims parts from it, the
// distributed worker executes leases against it, and the store plumbing
// derives cache keys from it — so a new graph family plugs into every
// execution mode at once instead of being a flag on one of them.
//
// The contract mirrors the determinism contract of the whole system:
// part id -> bytes is a pure function of the source alone. Two sources
// with equal Fingerprints must produce bit-identical parts, and a part's
// bytes must not depend on which process generates it, in what order,
// or alongside which other parts.
type PartSource interface {
	// Fingerprint condenses everything that determines generated bytes
	// (parallelism normalized out). It keys manifests, swarm claim
	// schedules, and — combined with PartKey — the artifact store.
	Fingerprint() string

	// NumVertices is the size of the global vertex space; part files
	// encode vertex ids below it.
	NumVertices() int64

	// Plan fixes the part layout: parallel slices pairing each part's
	// vertex range (Lo/Hi of its *source* rows, Edges its expected edge
	// budget, for cost-aware scheduling) with its global part index.
	// parts is a hint; sources with an intrinsic layout (one part per
	// community block) may ignore it or reject a conflicting value.
	Plan(parts int) ([]partition.Range, []int, error)

	// PartKey derives the artifact-store key addressing part id's exact
	// bytes in the given format.
	PartKey(format gformat.Format, id int, r partition.Range) store.Key

	// GeneratePart generates part id into a writer obtained from
	// sinks(0, r) and closes it. tel may be nil.
	GeneratePart(id int, r partition.Range, sinks SinkFactory, tel *telemetry.Registry) (Stats, error)

	// EnsureManifest validates dir against an existing run manifest or
	// records one — the shared-directory handshake that keeps two
	// processes from interleaving parts of two different jobs.
	EnsureManifest(dir string, format gformat.Format, parts int) error
}

// ConfigSource adapts the classic Config-driven run to PartSource. Its
// parts are exactly the parts of Plan/GenerateRanges, its keys exactly
// PartKey's, so runs through the PartSource plumbing share bytes,
// manifests and store entries with every pre-existing path.
type ConfigSource struct {
	cfg Config
}

// NewConfigSource wraps cfg. The config is validated at Plan time.
func NewConfigSource(cfg Config) ConfigSource { return ConfigSource{cfg: cfg} }

// Config returns the wrapped configuration.
func (s ConfigSource) Config() Config { return s.cfg }

// Fingerprint implements PartSource via CacheFingerprint.
func (s ConfigSource) Fingerprint() string { return CacheFingerprint(s.cfg) }

// NumVertices implements PartSource.
func (s ConfigSource) NumVertices() int64 { return s.cfg.NumVertices() }

// Plan implements PartSource with the degree-balanced partition of
// Plan; part ids are positional.
func (s ConfigSource) Plan(parts int) ([]partition.Range, []int, error) {
	if err := s.cfg.Validate(); err != nil {
		return nil, nil, err
	}
	ranges, err := Plan(s.cfg, parts)
	if err != nil {
		return nil, nil, err
	}
	ids := make([]int, len(ranges))
	for i := range ids {
		ids[i] = i
	}
	return ranges, ids, nil
}

// PartKey implements PartSource. The id is ignored: a classic part is
// addressed by its vertex range alone.
func (s ConfigSource) PartKey(format gformat.Format, _ int, r partition.Range) store.Key {
	return PartKey(s.cfg, format, r)
}

// GeneratePart implements PartSource: the range is one driver run.
func (s ConfigSource) GeneratePart(_ int, r partition.Range, sinks SinkFactory, tel *telemetry.Registry) (Stats, error) {
	return DrivePart(RangeRun(s.cfg, r.Lo, r.Hi), r, sinks, tel)
}

// EnsureManifest implements PartSource via EnsureRunManifest.
func (s ConfigSource) EnsureManifest(dir string, format gformat.Format, parts int) error {
	return EnsureRunManifest(dir, s.cfg, format, parts)
}

// GenerateParts executes the named parts of src concurrently — one
// worker goroutine per part — and merges their stats. sinks is keyed by
// position: part ids[i] writes through sinks(i, ranges[i]). Per-part
// errors do not cancel sibling parts (each part is independently useful
// and independently resumable); the first error in part order is
// returned, attributed to its worker, after all parts settle.
func GenerateParts(src PartSource, ranges []partition.Range, ids []int, sinks SinkFactory, tel *telemetry.Registry) (Stats, error) {
	if len(ranges) != len(ids) {
		return Stats{}, fmt.Errorf("core: %d ranges but %d part ids", len(ranges), len(ids))
	}
	start := time.Now()
	stats := make([]Stats, len(ranges))
	errs := make([]error, len(ranges))
	var wg sync.WaitGroup
	for i := range ranges {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			wrapped := func(_ int, r partition.Range) (gformat.Writer, error) {
				return sinks(i, r)
			}
			stats[i], errs[i] = src.GeneratePart(ids[i], ranges[i], wrapped, tel)
		}(i)
	}
	wg.Wait()

	var out Stats
	out.Ranges = ranges
	for _, st := range stats {
		out.Scopes += st.Scopes
		out.Edges += st.Edges
		out.Attempts += st.Attempts
		out.BytesWritten += st.BytesWritten
		out.MaxDegree = max(out.MaxDegree, st.MaxDegree)
		out.PeakWorkerBytes = max(out.PeakWorkerBytes, st.PeakWorkerBytes)
	}
	out.GenDuration = time.Since(start)
	out.Elapsed = out.GenDuration
	for i, err := range errs {
		if err != nil {
			return out, fmt.Errorf("core: worker %d: %w", i, err)
		}
	}
	return out, nil
}
