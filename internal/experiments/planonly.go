package experiments

import (
	"repro/internal/avs"
	"repro/internal/core"
	"repro/internal/partition"
	"repro/internal/rng"
	"repro/internal/skg"
)

// planOnly builds the AVS generator (with NSKG noise when configured)
// and the Figure 6 partition for a core configuration without
// generating anything — the simulated-cluster experiments drive the
// scopes themselves to time them per worker.
func planOnly(cfg core.Config) ([]*avs.Generator, []partition.Range, error) {
	var noise *skg.Noise
	if cfg.NoiseParam > 0 {
		var err error
		noise, err = skg.NewNoise(cfg.Seed, cfg.Scale, cfg.NoiseParam,
			rng.New(rng.Mix64(cfg.MasterSeed, 0xBE5)))
		if err != nil {
			return nil, nil, err
		}
	}
	g, err := avs.New(avs.Config{
		Seed:          cfg.Seed,
		Levels:        cfg.Scale,
		NumEdges:      cfg.NumEdges(),
		Noise:         noise,
		Sampler:       cfg.Sampler,
		Opts:          cfg.Opts,
		HighPrecision: cfg.HighPrecision,
	}, nil)
	if err != nil {
		return nil, nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	ranges, err := partition.Plan(g, cfg.MasterSeed, workers, cfg.BinsPerWorker)
	if err != nil {
		return nil, nil, err
	}
	return []*avs.Generator{g}, ranges, nil
}
