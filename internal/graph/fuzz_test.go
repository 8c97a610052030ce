package graph

import (
	"math"
	"testing"
)

// fuzzWeight decodes one corpus byte into a node weight. The low nibble
// picks the edge cases a weight vector can carry — NaN, ±Inf, zero, a
// negative value, the largest finite float (whose sum overflows) and the
// smallest subnormal — and everything else is an ordinary positive weight.
func fuzzWeight(b byte) float64 {
	switch b % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		return math.Inf(-1)
	case 3:
		return 0
	case 4:
		return -float64(b)
	case 5:
		return math.MaxFloat64
	case 6:
		return math.SmallestNonzeroFloat64
	}
	return float64(b) / 16
}

// FuzzPartitionWeighted holds PartitionWeighted to its contract on small road
// networks: it either returns an error, or an owner vector that puts every
// node in [0, parts) and leaves no part empty. A weight vector holding any
// weight that is not finite and positive must be rejected.
func FuzzPartitionWeighted(f *testing.F) {
	// seed, nodes, parts, node 0's weight, the other nodes' weight bytes.
	f.Add(uint64(11), 12, 3, 1.0, []byte{24, 40, 57, 90})
	f.Add(uint64(11), 12, 3, math.NaN(), []byte{})
	f.Add(uint64(11), 12, 3, math.Inf(1), []byte{})
	f.Add(uint64(11), 12, 3, math.Inf(-1), []byte{})
	f.Add(uint64(11), 12, 3, 0.0, []byte{})
	f.Add(uint64(11), 12, 3, -1.0, []byte{})
	f.Add(uint64(3), 20, 4, 2.5, []byte{0, 17, 34})         // NaN, +Inf, -Inf among the rest
	f.Add(uint64(3), 20, 4, 2.5, []byte{3, 20})             // zero, negative
	f.Add(uint64(5), 9, 2, math.MaxFloat64, []byte{5, 5})   // the total overflows to +Inf
	f.Add(uint64(5), 9, 9, 1.0, []byte{6, 6, 6})            // one node per part, subnormal weights
	f.Add(uint64(7), 30, 1, 1.0, []byte{200, 9, 120, 77})   // one part
	f.Add(uint64(7), 8, 0, 1.0, []byte{})                   // no parts
	f.Add(uint64(7), 8, 12, 1.0, []byte{})                  // more parts than nodes
	f.Add(uint64(9), 25, -3, 1.0, []byte{255, 254, 253, 7}) // negative part count
	f.Fuzz(func(t *testing.T, seed uint64, nodes, parts int, w0 float64, raw []byte) {
		n := 2 + int(uint(nodes)%32)
		parts %= n + 3
		g, err := RoadNetwork(seed, n, 4)
		if err != nil {
			t.Fatalf("fixture: %v", err)
		}
		weights := make([]float64, n)
		legal := true
		for i := range weights {
			switch {
			case i == 0:
				weights[i] = w0
			case i-1 < len(raw):
				weights[i] = fuzzWeight(raw[i-1])
			default:
				weights[i] = 1
			}
			if w := weights[i]; !(w > 0) || math.IsInf(w, 1) {
				legal = false
			}
		}
		owner, err := PartitionWeighted(g, parts, weights)
		if err != nil {
			return
		}
		if !legal {
			t.Fatalf("accepted weights %v", weights)
		}
		if len(owner) != n {
			t.Fatalf("owner has %d entries for %d nodes", len(owner), n)
		}
		sizes := make([]int, parts)
		for u, p := range owner {
			if p < 0 || p >= parts {
				t.Fatalf("node %d in part %d, outside [0, %d)", u, p, parts)
			}
			sizes[p]++
		}
		for p, s := range sizes {
			if s == 0 {
				t.Fatalf("part %d of %d is empty (owner %v)", p, parts, owner)
			}
		}
	})
}
