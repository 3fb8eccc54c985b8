package server

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/memacct"
	"repro/internal/rng"
)

// concatParts reads every part file in dir in part order and returns
// the concatenated bytes — the batch-path reference a stream must
// reproduce.
func concatParts(t *testing.T, dir string) []byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	var buf bytes.Buffer
	for _, name := range names {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
	}
	return buf.Bytes()
}

func generateToDir(t *testing.T, cfg core.Config, format gformat.Format) []byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := core.Generate(cfg, core.FileSinks(dir, format, cfg.NumVertices())); err != nil {
		t.Fatal(err)
	}
	return concatParts(t, dir)
}

func TestStreamRangeMatchesGenerateToDir(t *testing.T) {
	for _, format := range []gformat.Format{gformat.TSV, gformat.ADJ6} {
		cfg := core.DefaultConfig(12)
		cfg.Workers = 3
		cfg.NoiseParam = 0.1
		want := generateToDir(t, cfg, format)

		var buf bytes.Buffer
		st, err := StreamRange(context.Background(), cfg, format, 0, cfg.NumVertices(), &buf, StreamOptions{})
		if err != nil {
			t.Fatalf("%v: %v", format, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("%v: streamed %d bytes differ from %d batch bytes", format, buf.Len(), len(want))
		}
		if st.BytesWritten != int64(buf.Len()) {
			t.Fatalf("%v: BytesWritten %d, wrote %d", format, st.BytesWritten, buf.Len())
		}
		if st.Scopes != cfg.NumVertices() {
			t.Fatalf("%v: scopes %d, want %d", format, st.Scopes, cfg.NumVertices())
		}
		if st.Edges == 0 || st.PeakWorkerBytes == 0 {
			t.Fatalf("%v: empty stats %+v", format, st)
		}
	}
}

func TestStreamRangeSubrangesConcatenate(t *testing.T) {
	cfg := core.DefaultConfig(10)
	nv := cfg.NumVertices()
	var full bytes.Buffer
	if _, err := StreamRange(context.Background(), cfg, gformat.TSV, 0, nv, &full, StreamOptions{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	var pieces bytes.Buffer
	cuts := []int64{0, 17, nv / 3, nv / 2, nv}
	for i := 0; i+1 < len(cuts); i++ {
		// Different worker counts per piece must not change the bytes.
		opt := StreamOptions{Workers: i + 1, Depth: 2}
		if _, err := StreamRange(context.Background(), cfg, gformat.TSV, cuts[i], cuts[i+1], &pieces, opt); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(full.Bytes(), pieces.Bytes()) {
		t.Fatal("concatenated sub-range streams differ from the full stream")
	}
}

func TestStreamRangeValidation(t *testing.T) {
	cfg := core.DefaultConfig(8)
	ctx := context.Background()
	var buf bytes.Buffer
	if _, err := StreamRange(ctx, cfg, gformat.CSR6, 0, 1, &buf, StreamOptions{}); err == nil {
		t.Fatal("CSR6 stream accepted")
	}
	if _, err := StreamRange(ctx, cfg, gformat.TSV, -1, 1, &buf, StreamOptions{}); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := StreamRange(ctx, cfg, gformat.TSV, 0, cfg.NumVertices()+1, &buf, StreamOptions{}); err == nil {
		t.Fatal("hi beyond |V| accepted")
	}
	if _, err := StreamRange(ctx, cfg, gformat.TSV, 5, 2, &buf, StreamOptions{}); err == nil {
		t.Fatal("hi < lo accepted")
	}
	cfg.Scale = 0
	if _, err := StreamRange(ctx, cfg, gformat.TSV, 0, 1, &buf, StreamOptions{}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStreamRangeEmptyRange(t *testing.T) {
	cfg := core.DefaultConfig(8)
	var buf bytes.Buffer
	st, err := StreamRange(context.Background(), cfg, gformat.TSV, 7, 7, &buf, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Scopes != 0 || buf.Len() != 0 {
		t.Fatalf("empty range produced %d scopes, %d bytes", st.Scopes, buf.Len())
	}
}

// countingScoper counts the scopes its producer has drawn.
type countingScoper struct {
	core.Scoper
	drawn *atomic.Int64
}

func (c countingScoper) DrawScope(u int64, src *rng.Source, buf []int64) ([]int64, int64) {
	c.drawn.Add(1)
	return c.Scoper.DrawScope(u, src, buf)
}

// gatedWriter blocks its first WriteScope until gate closes, then
// records the order scopes arrive in.
type gatedWriter struct {
	*gformat.DiscardWriter
	gate <-chan struct{}
	srcs []int64
}

func (g *gatedWriter) WriteScope(src int64, dsts []int64) error {
	if len(g.srcs) == 0 {
		<-g.gate
	}
	g.srcs = append(g.srcs, src)
	return g.DiscardWriter.WriteScope(src, dsts)
}

// TestPipelineRunaheadBounded is the backpressure property of the
// stream's fan-in: with the writer stalled, producers stop after
// filling their bounded channels, so run-ahead never exceeds
// workers·(depth+1) scopes; once released, scopes arrive exactly in
// vertex order even though two producers interleave.
func TestPipelineRunaheadBounded(t *testing.T) {
	cfg := core.DefaultConfig(12)
	const workers, depth = 2, 4
	var drawn atomic.Int64
	run := core.RangeRun(cfg, 0, cfg.NumVertices())
	build := run.NewScoper
	run.NewScoper = func(acct *memacct.Acct) (core.Scoper, error) {
		sc, err := build(acct)
		return countingScoper{Scoper: sc, drawn: &drawn}, err
	}
	gate := make(chan struct{})
	w := &gatedWriter{DiscardWriter: gformat.NewDiscardWriter(gformat.ADJ6), gate: gate}
	done := make(chan error, 1)
	go func() {
		_, err := core.Drive(context.Background(), []core.Run{run}, w, core.DriveOptions{Workers: workers, Depth: depth})
		done <- err
	}()

	// Let the producers run head-free; they must stall at the bound.
	deadline := time.Now().Add(time.Second)
	limit := int64(workers * (depth + 1))
	for time.Now().Before(deadline) {
		if g := drawn.Load(); g > limit {
			t.Fatalf("run-ahead %d exceeds bound %d", g, limit)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if g := drawn.Load(); g < int64(workers*depth) {
		t.Fatalf("producers drew only %d scopes; fan-in not running", g)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if int64(len(w.srcs)) != cfg.NumVertices() {
		t.Fatalf("wrote %d scopes, want %d", len(w.srcs), cfg.NumVertices())
	}
	for u, src := range w.srcs {
		if src != int64(u) {
			t.Fatalf("scope %d arrived when %d was due", src, u)
		}
	}
}

func TestStreamRangeCancel(t *testing.T) {
	cfg := core.DefaultConfig(16)
	ctx, cancel := context.WithCancel(context.Background())
	var n int64
	var buf bytes.Buffer
	opt := StreamOptions{Workers: 2, OnScope: func(int64, int) {
		if n++; n == 100 {
			cancel()
		}
	}}
	_, err := StreamRange(ctx, cfg, gformat.TSV, 0, cfg.NumVertices(), &buf, opt)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n >= cfg.NumVertices() {
		t.Fatal("stream ran to completion despite cancellation")
	}
}

// errWriter fails after accepting n bytes, like a client that vanished.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n -= len(p); e.n < 0 {
		return 0, os.ErrClosed
	}
	return len(p), nil
}

func TestStreamRangeWriterError(t *testing.T) {
	cfg := core.DefaultConfig(14)
	_, err := StreamRange(context.Background(), cfg, gformat.TSV, 0, cfg.NumVertices(),
		&errWriter{n: 1 << 16}, StreamOptions{Workers: 2})
	if err == nil {
		t.Fatal("write error not surfaced")
	}
}
