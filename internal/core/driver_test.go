package core

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/gformat"
	"repro/internal/memacct"
)

// TestDriveFanInMatchesInline: the fan-in reproduces the inline bytes
// and stats over several runs, including an empty one and an offset
// one, at every worker count, and reports each run's edges once.
func TestDriveFanInMatchesInline(t *testing.T) {
	cfg := DefaultConfig(10)
	shifted := RangeRun(cfg, 40, 90)
	shifted.SrcOff, shifted.DstOff = 1000, 2000
	runs := []Run{RangeRun(cfg, 0, 37), RangeRun(cfg, 37, 37), shifted, RangeRun(cfg, 500, 531)}
	drive := func(workers int) ([]byte, Stats, []int64) {
		done := make([]int64, len(runs))
		rs := append([]Run(nil), runs...)
		for i := range rs {
			rs[i].Done = func(edges int64) { done[i] += edges }
		}
		var buf bytes.Buffer
		st, err := Drive(context.Background(), rs, gformat.NewTSVWriter(&buf), DriveOptions{Workers: workers, Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		return buf.Bytes(), st, done
	}
	want, wantSt, wantDone := drive(1)
	if wantSt.Scopes != 37+50+31 || wantSt.PeakWorkerBytes == 0 || wantDone[1] != 0 {
		t.Fatalf("inline stats %+v, per-run edges %v", wantSt, wantDone)
	}
	var sum int64
	for _, e := range wantDone {
		sum += e
	}
	if sum != wantSt.Edges {
		t.Fatalf("per-run edges %v sum to %d, stats say %d", wantDone, sum, wantSt.Edges)
	}
	for _, workers := range []int{2, 3, 7} {
		got, st, done := drive(workers)
		same := st.Scopes == wantSt.Scopes && st.Edges == wantSt.Edges && st.Attempts == wantSt.Attempts &&
			st.MaxDegree == wantSt.MaxDegree && st.BytesWritten == wantSt.BytesWritten && st.PeakWorkerBytes == wantSt.PeakWorkerBytes
		if !bytes.Equal(got, want) || !same || !slices.Equal(done, wantDone) {
			t.Fatalf("workers %d: %d bytes %+v differ from inline %d bytes %+v", workers, len(got), st, len(want), wantSt)
		}
	}
	if !bytes.Contains(want, []byte("1040\t")) {
		t.Fatal("offset run's sources not shifted by SrcOff")
	}
}

// TestDriveScoperErrorLeavesWriterOpen: a scoper that cannot be built
// fails the drive in both schedules, and the writer is not closed.
func TestDriveScoperErrorLeavesWriterOpen(t *testing.T) {
	boom := errors.New("no generator")
	run := RangeRun(DefaultConfig(8), 0, 64)
	run.NewScoper = func(*memacct.Acct) (Scoper, error) { return nil, boom }
	for _, workers := range []int{1, 4} {
		w := &closeTracker{DiscardWriter: gformat.NewDiscardWriter(gformat.TSV)}
		if _, err := Drive(context.Background(), []Run{run}, w, DriveOptions{Workers: workers}); !errors.Is(err, boom) {
			t.Fatalf("workers %d: err = %v, want %v", workers, err, boom)
		}
		if w.closed {
			t.Fatalf("workers %d: failed drive closed its writer", workers)
		}
	}
}

type closeTracker struct {
	*gformat.DiscardWriter
	closed bool
}

func (c *closeTracker) Close() error {
	c.closed = true
	return c.DiscardWriter.Close()
}
