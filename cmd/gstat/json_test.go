package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/gformat"
	"repro/internal/skg"
	"repro/internal/stats"
)

var update = flag.Bool("update", false, "rewrite golden files")

// genFixture writes the scale-10 reference graph (Graph500 seed,
// master seed 1, the paper's RecVec sampler, which the golden files
// were recorded with) as one ADJ6 part and returns its path. The graph is a
// pure function of the config, so the bytes — and therefore the stats
// — are identical on every run and platform.
func genFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cfg := core.DefaultConfig(10)
	cfg.Workers = 1
	cfg.Sampler = core.SamplerRecVec
	if _, err := core.Generate(cfg, core.FileSinks(dir, gformat.ADJ6, cfg.NumVertices())); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "part-00000.adj6")
}

// TestJSONReportGolden pins the -json output for the reference graph.
// Refresh with: go test ./cmd/gstat -run Golden -update
func TestJSONReportGolden(t *testing.T) {
	counter := stats.NewDegreeCounter()
	edges, err := ingest(genFixture(t), gformat.ADJ6, counter)
	if err != nil {
		t.Fatal(err)
	}
	r := buildReport(edges, counter.OutHist(), counter.InHist(), counter.OutDegrees())
	got, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')

	golden := filepath.Join("testdata", "report_scale10.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("-json report drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpectReportGolden pins the -expect-scale validation section for
// the reference graph — the same validate.Report trilliong-validate
// emits, embedded in gstat's JSON. Refresh with:
// go test ./cmd/gstat -run Golden -update
func TestExpectReportGolden(t *testing.T) {
	cfg := core.DefaultConfig(10)
	rep, err := buildExpectReport([]string{genFixture(t)}, gformat.ADJ6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "validate_scale10.golden")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("-expect validation report drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestExpectReportShape: the embedded section matches the graph it
// measured and records the full parameter set.
func TestExpectReportShape(t *testing.T) {
	path := genFixture(t)
	cfg := core.DefaultConfig(10)
	rep, err := buildExpectReport([]string{path}, gformat.ADJ6, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict == "fail" {
		t.Errorf("reference graph fails its own expectations:\n%s", rep.Summary())
	}
	if rep.Params.Scale != 10 || rep.Params.Model != "skg" || rep.Params.MasterSeed != 1 {
		t.Errorf("params not recorded: %+v", rep.Params)
	}
	counter := stats.NewDegreeCounter()
	edges, err := ingest(path, gformat.ADJ6, counter)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Observed.Edges != edges {
		t.Errorf("validation saw %d edges, gstat counted %d", rep.Observed.Edges, edges)
	}
	// A wrong expectation must be flagged, not absorbed. (A wrong master
	// seed alone would rightly pass for plain SKG — same distribution,
	// different sample — so the mismatch here is the seed matrix.)
	wrong := cfg
	wrong.Seed = skg.Seed{A: 0.25, B: 0.25, C: 0.25, D: 0.25}
	rep, err = buildExpectReport([]string{path}, gformat.ADJ6, wrong)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Failed() {
		t.Errorf("uniform-seed expectations on a skewed graph got verdict %s, want fail", rep.Verdict)
	}
}

// TestJSONReportShape: field-level sanity independent of the golden
// bytes, so a legitimate regeneration of the golden file still has to
// look like a scale-10 power-law graph.
func TestJSONReportShape(t *testing.T) {
	counter := stats.NewDegreeCounter()
	edges, err := ingest(genFixture(t), gformat.ADJ6, counter)
	if err != nil {
		t.Fatal(err)
	}
	r := buildReport(edges, counter.OutHist(), counter.InHist(), counter.OutDegrees())
	if r.Edges != edges || r.Edges == 0 {
		t.Fatalf("edges %d vs ingested %d", r.Edges, edges)
	}
	if r.OutVertices == 0 || r.InVertices == 0 || r.MaxOutDegree == 0 {
		t.Fatalf("degenerate report %+v", r)
	}
	if r.OutPowerLaw == nil || r.OutPowerLaw.Slope >= 0 {
		t.Fatalf("out power-law fit %+v; want a negative slope", r.OutPowerLaw)
	}
	var back jsonReport
	b, _ := json.Marshal(r)
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != r {
		// Pointer fields compare by address; compare the values.
		if back.Edges != r.Edges || *back.OutPowerLaw != *r.OutPowerLaw {
			t.Fatalf("round trip changed the report: %+v vs %+v", back, r)
		}
	}
}

// TestFitDropsNaN: an undefined fit is omitted, not emitted as NaN
// (which encoding/json cannot marshal).
func TestFitDropsNaN(t *testing.T) {
	// A single-degree histogram has no slope to fit.
	h := stats.Hist{1: 3}
	r := buildReport(3, h, h, []int64{1, 1, 1})
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("report with undefined fits failed to marshal: %v", err)
	}
}
