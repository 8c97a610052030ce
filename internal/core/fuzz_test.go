package core

import (
	"errors"
	"testing"
	"time"

	"pgti/internal/cluster"
	"pgti/internal/dataset"
	"pgti/internal/ddp"
	"pgti/internal/fault"
	"pgti/internal/shard"
)

// FuzzConfigValidate builds a Config from fuzzed scalars on the smallest
// dataset and holds Validate to its contract: it never panics, and a config it
// accepts gets through Open and Build without a panic and without an
// *InvalidConfigError — whatever the table lets through, the stages behind it
// must not have a second opinion about. (Other stage errors — an unreadable
// checkpoint, a shard count above the node count — are legitimate.)
func FuzzConfigValidate(f *testing.F) {
	const (
		flagFP16 = 1 << iota
		flagAutoTune
		flagPrefetch
		flagNodeWeights
		flagRepartition
		flagStaticPartition
		flagFaults
		flagSamplerSet
		flagWarmStart
		flagResume
		flagWarmParams
	)
	// strategy, model, workers, shards, staleness, scale, missing, topology
	// nodes x gpus, grad algo, flags.
	f.Add(int(Index), 0, 1, 0, 0, 0.0, 0.0, 0, 0, 0, 0)
	f.Add(int(Baseline), int(ModelA3TGCN), 0, 0, 0, 1.0, 0.2, 0, 0, 0, 0)
	f.Add(int(GPUIndex), int(ModelSTLLM), 1, 1, 0, 0.5, 0.0, 0, 0, 0, flagPrefetch|flagWarmStart)
	f.Add(int(DistIndex), 0, 2, 2, 1, 0.0, 0.0, 0, 0, 0, flagFP16|flagAutoTune|flagNodeWeights|flagRepartition)
	f.Add(int(DistIndex), int(ModelDCRNN), 4, 0, 0, 0.0, 0.0, 2, 2, int(ddp.GradAlgoHierarchical), flagFaults)
	f.Add(int(GenDistIndex), 0, 2, 0, 0, 0.0, 0.0, 0, 0, int(ddp.GradAlgoFlat), flagSamplerSet|flagPrefetch)
	f.Add(int(BaselineDDP), 0, 3, 0, 0, 0.0, 0.0, 0, 0, 0, flagResume)
	// Rows the table rejects, one per rule family.
	f.Add(99, 0, 1, 0, 0, 0.0, 0.0, 0, 0, 0, 0)
	f.Add(int(Index), 0, 4, 0, 0, 0.0, 0.0, 0, 0, 0, 0)
	f.Add(int(DistIndex), 0, 2, 0, 2, 0.0, 0.0, 0, 0, 0, 0)
	f.Add(int(DistIndex), 0, 2, 0, 0, 0.0, 0.3, 0, 0, 0, 0)
	f.Add(int(GenDistIndex), int(ModelSTLLM), 2, 3, -1, 1.5, -0.1, 4, 4, int(ddp.GradAlgoFlat), flagAutoTune|flagWarmStart|flagResume)
	f.Add(int(DistIndex), 0, 2, 2, 0, 0.0, 0.0, 0, 0, 0, flagWarmParams|flagWarmStart|flagStaticPartition)

	f.Fuzz(func(t *testing.T, strategy, model, workers, shards, staleness int,
		scale, missing float64, topoNodes, topoGPUs, gradAlgo, flags int) {
		// Sizes stay small so an accepted config builds in milliseconds;
		// signs and out-of-range enum values are kept.
		small := func(v, bound int) int { return v % bound }
		cfg := Config{
			Meta:      dataset.ChickenpoxHungary,
			Scale:     scale,
			Model:     ModelKind(small(model, 6)),
			Strategy:  Strategy(small(strategy, 8)),
			Workers:   small(workers, 7),
			BatchSize: 2,
			Hidden:    4,
			K:         1,
			Seed:      7,

			Spatial:     shard.Spatial{Shards: small(shards, 6)},
			Staleness:   small(staleness, 4),
			MissingFrac: missing,
			Topology:    cluster.Topology{Nodes: small(topoNodes, 5), GPUsPerNode: small(topoGPUs, 5)},
			GradAlgo:    ddp.GradAlgo(small(gradAlgo, 4)),

			GradFP16:        flags&flagFP16 != 0,
			GradAutoTune:    flags&flagAutoTune != 0,
			Prefetch:        flags&flagPrefetch != 0,
			StaticPartition: flags&flagStaticPartition != 0,
			SamplerSet:      flags&flagSamplerSet != 0,
		}
		if flags&flagNodeWeights != 0 {
			// The right length for the scaled graph: the length rule is the
			// one buildGrid keeps, because only it knows the graph.
			cfg.NodeWeights = make([]float64, cfg.Meta.Scaled(scale).Nodes)
			for i := range cfg.NodeWeights {
				cfg.NodeWeights[i] = float64(1 + i%3)
			}
		}
		if flags&flagRepartition != 0 {
			cfg.Repartition = shard.Repartition{ChunkSize: small(staleness, 3) + 1, Threshold: 1 + scale}
		}
		if flags&flagFaults != 0 {
			cfg.Faults = fault.New(3, fault.Crash(small(workers, 4), time.Second))
		}
		if flags&flagWarmStart != 0 {
			cfg.LoadCheckpoint = "absent.pgtc"
		}
		if flags&flagResume != 0 {
			cfg.ResumeCheckpoint = "absent.pgts"
		}
		if flags&flagWarmParams != 0 {
			cfg.WarmParams = [][]float64{{1}}
		}

		if err := cfg.Validate(); err != nil {
			var ice *InvalidConfigError
			if !errors.As(err, &ice) || ice.Field == "" || ice.Reason == "" {
				t.Fatalf("Validate returned %v, want a complete *InvalidConfigError", err)
			}
			return
		}
		e := NewEngine(cfg)
		err := e.Open()
		if err == nil {
			err = e.Build()
		}
		var ice *InvalidConfigError
		if errors.As(err, &ice) {
			t.Fatalf("Validate accepted %+v but a stage rejected it: %v", cfg, err)
		}
	})
}
