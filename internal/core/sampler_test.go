package core

import (
	"strings"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/recvec"
)

// scopeDegrees generates cfg on one worker and returns every scope's
// destination count in source order, with the run's Stats.
func scopeDegrees(t *testing.T, cfg Config) ([]int, Stats) {
	t.Helper()
	cfg.Workers = 1
	var degs []int
	st, err := Generate(cfg, CallbackSinks(func(_ int64, dsts []int64) error {
		degs = append(degs, len(dsts))
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	return degs, st
}

// TestSamplerCrossSameDegrees: scope sizes are drawn from each scope's
// stream before any destination, so for the same seed the RecVec and
// chunk samplers give every scope the same degree — and the run the same
// Stats.Edges and MaxDegree — while drawing different destinations.
func TestSamplerCrossSameDegrees(t *testing.T) {
	skg := DefaultConfig(16)
	nskg := DefaultConfig(13)
	nskg.NoiseParam = 0.1
	avsi := DefaultConfig(12)
	avsi.Orientation = AVSI
	for _, cfg := range []Config{skg, nskg, avsi} {
		cfg.Sampler = SamplerRecVec
		rv, rst := scopeDegrees(t, cfg)
		cfg.Sampler = SamplerChunk
		ch, cst := scopeDegrees(t, cfg)
		if len(rv) != len(ch) {
			t.Fatalf("scale %d: %d vs %d scopes", cfg.Scale, len(rv), len(ch))
		}
		for u := range rv {
			if rv[u] != ch[u] {
				t.Fatalf("scale %d noise %v %v: scope %d degree recvec %d, chunk %d",
					cfg.Scale, cfg.NoiseParam, cfg.Orientation, u, rv[u], ch[u])
			}
		}
		if rst.Edges != cst.Edges || rst.MaxDegree != cst.MaxDegree {
			t.Fatalf("scale %d: edges/maxdeg recvec %d/%d, chunk %d/%d",
				cfg.Scale, rst.Edges, rst.MaxDegree, cst.Edges, cst.MaxDegree)
		}
		t.Logf("scale %d: %d edges, max degree %d", cfg.Scale, cst.Edges, cst.MaxDegree)
	}
}

// TestSamplerKeysDistinct: the samplers write different bytes, so the
// sampler is part of the fingerprint and every store key.
func TestSamplerKeysDistinct(t *testing.T) {
	chunk := DefaultConfig(12)
	rv := chunk
	rv.Sampler = SamplerRecVec
	if !strings.Contains(CacheFingerprint(chunk), "Sampler:chunk") {
		t.Fatalf("fingerprint %q does not name the sampler", CacheFingerprint(chunk))
	}
	r := partition.Range{Lo: 0, Hi: 1 << 12}
	for _, f := range []gformat.Format{gformat.TSV, gformat.ADJ6, gformat.CSR6} {
		if PartKey(chunk, f, r) == PartKey(rv, f, r) {
			t.Errorf("%v: recvec and chunk share a part key", f)
		}
	}
}

// TestSamplerValidate: DefaultConfig selects the chunk sampler, the zero
// value is RecVec, and the RecVec variants (high precision, ablations)
// are rejected with the chunk sampler.
func TestSamplerValidate(t *testing.T) {
	if got := DefaultConfig(10).Sampler; got != SamplerChunk {
		t.Fatalf("DefaultConfig sampler %v, want chunk", got)
	}
	if got := (Config{}).Sampler; got != SamplerRecVec {
		t.Fatalf("zero sampler %v, want recvec", got)
	}
	hp := DefaultConfig(10)
	hp.HighPrecision = true
	abl := DefaultConfig(10)
	abl.Opts = recvec.Options{}
	bad := DefaultConfig(10)
	bad.Sampler = 9
	for name, cfg := range map[string]Config{"highprecision": hp, "ablation": abl, "unknown": bad} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: accepted with sampler %v", name, cfg.Sampler)
		}
	}
	hp.Sampler = SamplerRecVec
	abl.Sampler = SamplerRecVec
	for _, cfg := range []Config{hp, abl} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("recvec variant rejected: %v", err)
		}
	}
}

// TestSamplerResumeManifest: a directory generated with one sampler is
// not resumed with the other — the manifest fingerprint differs.
func TestSamplerResumeManifest(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.Workers = 2
	dir := t.TempDir()
	cfg.Sampler = SamplerRecVec
	if _, err := ResumeToDir(cfg, dir, gformat.ADJ6); err != nil {
		t.Fatal(err)
	}
	cfg.Sampler = SamplerChunk
	if _, err := ResumeToDir(cfg, dir, gformat.ADJ6); err == nil {
		t.Fatal("chunk resume accepted a recvec directory")
	}
}
