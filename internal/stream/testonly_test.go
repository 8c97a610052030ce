package stream

import (
	"pgti/internal/dataset"
	"pgti/internal/graph"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Graph returns the sensor graph shared by every window of the stream.
func (s *Source) Graph() *graph.Graph { return s.gen.Graph }

// Meta returns the stream's dataset metadata (the offline shape).
func (s *Source) Meta() dataset.Meta { return s.meta }
