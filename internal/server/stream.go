// Package server implements the TrillionG generation service: an HTTP
// API that streams synthetic graphs on demand instead of batching them
// to disk. Because the graph is a pure function of (Config, MasterSeed)
// and every scope needs only O(d_max) memory (Sections 3-4), any vertex
// range of any configuration can be produced statelessly, with
// deterministic bytes — a stream is the ordered fan-in of the core scope
// driver the batch path uses, so a streamed range is bit-identical to
// the same range of core.Generate's part files.
//
// The package has four parts: the stream encoders over the core driver
// (stream.go), the job registry (jobs.go), the HTTP layer (server.go)
// and the expvar-style live counters (metrics.go).
package server

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/telemetry"
)

// StreamOptions tunes StreamRange.
type StreamOptions struct {
	// Workers is the number of producer goroutines (0 = the config's
	// Workers, else GOMAXPROCS).
	Workers int
	// Depth is each producer's channel capacity (0 = 32). Total
	// run-ahead — and therefore stream memory — is bounded by
	// Workers·(Depth+1) scopes.
	Depth int
	// OnScope, if non-nil, is called from the encoding goroutine after
	// each scope has been written out.
	OnScope func(src int64, edges int)
}

// StreamStats reports one completed stream.
type StreamStats struct {
	// Scopes is the number of source vertices streamed (including
	// empty ones).
	Scopes int64
	// Edges is the number of edges streamed.
	Edges int64
	// Attempts counts stochastic trials including in-scope duplicates.
	Attempts int64
	// MaxDegree is the largest streamed out-degree.
	MaxDegree int64
	// BytesWritten is the encoded output volume.
	BytesWritten int64
	// PeakWorkerBytes is the largest tracked working set of any
	// producer — the O(d_max) bound of Table 1.
	PeakWorkerBytes int64
}

// newStreamWriter wraps w in the format's encoder. CSR6 needs a
// seekable sink (its offset table is backfilled), so only the
// concatenation-safe formats stream.
func newStreamWriter(format gformat.Format, w io.Writer) (gformat.Writer, error) {
	switch format {
	case gformat.TSV:
		return gformat.NewTSVWriter(w), nil
	case gformat.ADJ6:
		return gformat.NewADJ6Writer(w), nil
	default:
		return nil, fmt.Errorf("server: format %v is not streamable (use tsv or adj6)", format)
	}
}

// StreamRange streams the scopes of the vertex range [lo, hi) into w
// in the given format. The bytes are identical to the corresponding
// slice of the part files core.Generate would write for the same
// (Config, MasterSeed): scopes appear in vertex order and every scope
// is encoded exactly as the batch writers encode it.
//
// Generation runs through the core driver's ordered fan-in, so a slow
// w throttles the producers and memory stays O(Workers · d_max)
// regardless of range size. Cancelling ctx aborts the stream and
// returns the context's error.
func StreamRange(ctx context.Context, cfg core.Config, format gformat.Format, lo, hi int64, w io.Writer, opt StreamOptions) (StreamStats, error) {
	if err := cfg.Validate(); err != nil {
		return StreamStats{}, err
	}
	if lo < 0 || hi < lo || hi > cfg.NumVertices() {
		return StreamStats{}, fmt.Errorf("server: range [%d, %d) outside [0, %d)", lo, hi, cfg.NumVertices())
	}
	if opt.Workers < 1 {
		opt.Workers = cfg.Workers
	}
	return streamRuns(ctx, []core.Run{core.RangeRun(cfg, lo, hi)}, format, w, opt, nil)
}

// streamRuns encodes the runs into w through the core driver, feeding
// tel (which may be nil) with the core.* metrics.
func streamRuns(ctx context.Context, runs []core.Run, format gformat.Format, w io.Writer, opt StreamOptions, tel *telemetry.Registry) (StreamStats, error) {
	enc, err := newStreamWriter(format, w)
	if err != nil {
		return StreamStats{}, err
	}
	if opt.Workers < 1 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	st, err := core.Drive(ctx, runs, enc, core.DriveOptions{
		Workers: opt.Workers,
		Depth:   opt.Depth,
		Tel:     tel,
		OnScope: opt.OnScope,
	})
	return StreamStats{
		Scopes:          st.Scopes,
		Edges:           st.Edges,
		Attempts:        st.Attempts,
		MaxDegree:       st.MaxDegree,
		BytesWritten:    st.BytesWritten,
		PeakWorkerBytes: st.PeakWorkerBytes,
	}, err
}
