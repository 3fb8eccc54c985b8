package core

// Failure-injection tests: sink errors must abort cleanly and be
// attributed, and partially-failed runs must not hang or leak workers.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
)

type failingWriter struct {
	after int64
	n     int64
}

var errSinkBoom = errors.New("sink boom")

func (f *failingWriter) WriteScope(src int64, dsts []int64) error {
	f.n += int64(len(dsts))
	if f.n > f.after {
		return errSinkBoom
	}
	return nil
}
func (f *failingWriter) Close() error        { return nil }
func (f *failingWriter) BytesWritten() int64 { return 0 }
func (f *failingWriter) EdgesWritten() int64 { return f.n }

// TestSinkErrorPropagates: a writer error surfaces with the worker
// attribution and does not panic or deadlock the other workers.
func TestSinkErrorPropagates(t *testing.T) {
	cfg := DefaultConfig(10)
	cfg.Workers = 4
	_, err := Generate(cfg, func(worker int, r partition.Range) (gformat.Writer, error) {
		if worker == 2 {
			return &failingWriter{after: 100}, nil
		}
		return gformat.NewDiscardWriter(gformat.ADJ6), nil
	})
	if !errors.Is(err, errSinkBoom) {
		t.Fatalf("err = %v, want sink boom", err)
	}
	if !strings.Contains(err.Error(), "worker 2") {
		t.Fatalf("error lacks worker attribution: %v", err)
	}
}

// TestSinkFactoryErrorAborts: a factory error fails the run; the
// failing worker generates nothing.
func TestSinkFactoryErrorAborts(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 2
	boom := errors.New("factory boom")
	_, err := Generate(cfg, func(worker int, r partition.Range) (gformat.Writer, error) {
		if worker == 1 {
			return nil, boom
		}
		return gformat.NewDiscardWriter(gformat.ADJ6), nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

// TestFileSinksBadDir: unwritable directories error out instead of
// panicking mid-generation.
func TestFileSinksBadDir(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 1
	_, err := Generate(cfg, FileSinks("/nonexistent/trilliong", gformat.ADJ6, cfg.NumVertices()))
	if err == nil {
		t.Fatal("expected error for bad output dir")
	}
}

// TestGenerateRangesEmpty: zero ranges is an error, not a silent no-op.
func TestGenerateRangesEmpty(t *testing.T) {
	cfg := DefaultConfig(9)
	if _, err := GenerateRanges(cfg, nil, DiscardSinks(gformat.ADJ6)); err == nil {
		t.Fatal("expected error for empty ranges")
	}
}

// TestGenerateRangesSubset: generating a strict subset of the vertex
// space yields exactly that subset's scopes.
func TestGenerateRangesSubset(t *testing.T) {
	cfg := DefaultConfig(10)
	ranges := []partition.Range{{Lo: 100, Hi: 200}, {Lo: 300, Hi: 350}}
	seen := make(map[int64]bool)
	_, err := GenerateRanges(cfg, ranges, CallbackSinks(func(src int64, dsts []int64) error {
		seen[src] = true
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	for src := range seen {
		if !(src >= 100 && src < 200 || src >= 300 && src < 350) {
			t.Fatalf("scope %d outside requested ranges", src)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no scopes generated")
	}
}
