package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/gformat"
	"repro/internal/partition"
	"repro/internal/recvec"
)

// goldenCase pins the absolute output of one configuration: the SHA-256
// of the part files concatenated in part order, and the run's Stats
// counters. Cross-mode equivalence tests compare modes with each other,
// so a hot-path rewrite that changed bytes consistently everywhere would
// pass them; these digests catch it.
type goldenCase struct {
	name                               string
	cfg                                Config
	format                             gformat.Format
	digest                             string
	edges, attempts, maxDeg, peakBytes int64
}

func goldenCases() []goldenCase {
	skg := DefaultConfig(14)
	skg.MasterSeed = 8

	nskg := DefaultConfig(13)
	nskg.MasterSeed = 8
	nskg.NoiseParam = 0.1

	avsi := DefaultConfig(12)
	avsi.MasterSeed = 8
	avsi.Orientation = AVSI

	dups := DefaultConfig(12)
	dups.MasterSeed = 8
	dups.AllowDuplicates = true

	ablation := DefaultConfig(11)
	ablation.MasterSeed = 8
	ablation.Opts = recvec.Options{}

	return []goldenCase{
		{"skg-s14-adj6", skg, gformat.ADJ6,
			"bda5f4b2bac6a69ad502fcd41396a9215d3d65b5df7ddddf241e4ad9fa48cdd3",
			262535, 337240, 5535, 44520},
		{"nskg-s13-tsv", nskg, gformat.TSV,
			"6a9fcbd18937ef8e675a4270b28c242ae31491af795179980576951b2da0e610",
			131086, 380494, 4868, 39168},
		{"avsi-s12-adj6", avsi, gformat.ADJ6,
			"603899b80921d08a0a9ab381836514fb5449deeac16cc424f73bbcdfceb410e9",
			65576, 107549, 2376, 19216},
		{"dups-s12-tsv", dups, gformat.TSV,
			"8a7a912093d5cce9b6f912090762c38dee96b47931e344564ac0ffbaa70e5654",
			65576, 65576, 2376, 208},
		{"ablation-s11-adj6", ablation, gformat.ADJ6,
			"492bc1a012333072af125333d709f3119a42eaf443f4f29dd77363a84658d659",
			32882, 73917, 1555, 12632},
	}
}

// TestGoldenBytes pins core.Generate's output bytes and Stats counters
// for SKG, NSKG, AVS-I, AllowDuplicates and the Figure 13 all-off
// ablation. A change to any digest changes the generated graphs and
// must be deliberate.
func TestGoldenBytes(t *testing.T) {
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 3} {
				cfg := tc.cfg
				cfg.Workers = workers
				bufs := make([]*bytes.Buffer, workers)
				st, err := Generate(cfg, func(i int, _ partition.Range) (gformat.Writer, error) {
					bufs[i] = new(bytes.Buffer)
					if tc.format == gformat.TSV {
						return gformat.NewTSVWriter(bufs[i]), nil
					}
					return gformat.NewADJ6Writer(bufs[i]), nil
				})
				if err != nil {
					t.Fatal(err)
				}
				h := sha256.New()
				for _, b := range bufs {
					h.Write(b.Bytes())
				}
				got := hex.EncodeToString(h.Sum(nil))
				if got != tc.digest {
					t.Errorf("workers=%d: digest %s, want %s", workers, got, tc.digest)
				}
				if st.Edges != tc.edges || st.Attempts != tc.attempts || st.MaxDegree != tc.maxDeg {
					t.Errorf("workers=%d: edges/attempts/maxdeg %d/%d/%d, want %d/%d/%d",
						workers, st.Edges, st.Attempts, st.MaxDegree, tc.edges, tc.attempts, tc.maxDeg)
				}
				if workers == 1 && st.PeakWorkerBytes != tc.peakBytes {
					t.Errorf("peak worker bytes %d, want %d", st.PeakWorkerBytes, tc.peakBytes)
				}
			}
		})
	}
}

// TestGoldenPlan pins the Figure 6 partition for several (scale, parts,
// binsPerWorker, noise) tuples, covering vertex spaces both smaller and
// larger than the planner's size-draw block.
func TestGoldenPlan(t *testing.T) {
	cases := []struct {
		scale, parts, bins int
		noise              float64
		digest             string
	}{
		{10, 1, 0, 0, "9a6828d75f85ca62627d672c1345e91d94c2d73cbbb5bfebcbcf757c58e6fcdc"},
		{12, 7, 1, 0, "2f91f7a93313e0b6b5e9cde570e119dfaf586ffc717e0f44e3687bbef88d4baa"},
		{13, 60, 4, 0.1, "dc98ea57d4e636fa08be1fb222bb8c772712bbae013387c1aee8bd9bf9a584a8"},
		{16, 2, 8, 0, "257ca04e23af52686a7e8173d055e8aeb572fb68e14dd2e485d8562959ca5831"},
		{17, 5, 3, 0.05, "ba92368a1a83cc9f9153b9178b9a1c824d1b04340e9a1dfa71f43b5125843867"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig(tc.scale)
		cfg.MasterSeed = 8
		cfg.NoiseParam = tc.noise
		cfg.BinsPerWorker = tc.bins
		ranges, err := Plan(cfg, tc.parts)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprint(ranges))))
		if got != tc.digest {
			t.Errorf("scale=%d parts=%d bins=%d noise=%v: ranges digest %s, want %s",
				tc.scale, tc.parts, tc.bins, tc.noise, got, tc.digest)
		}
	}
}
