package cluster

import (
	"testing"
	"time"

	"pgti/internal/fault"
)

// TestGroupRingAllReduceSumAndMean: disjoint groups reduce concurrently and
// independently, sum and mean variants agree with the direct computation,
// and members end bitwise identical.
func TestGroupRingAllReduceSumAndMean(t *testing.T) {
	const world = 6
	clu, err := New(Config{Workers: world})
	if err != nil {
		t.Fatal(err)
	}
	groups := [][]int{{0, 1, 2}, {3, 4, 5}}
	results := make([][]float64, world)
	err = clu.Run(func(w *Worker) error {
		group := groups[w.Rank()/3]
		vec := []float64{float64(w.Rank()), float64(w.Rank() * 2), 1}
		w.GroupRingAllReduceSized(vec, group, int64(len(vec))*8, false, Topology{}) // sum
		w.GroupRingAllReduceSized(vec, group, int64(len(vec))*8, true, Topology{})  // mean of the sums
		results[w.Rank()] = vec
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Group {0,1,2}: sums = {3, 6, 3}; mean over 3 members of identical
	// sums leaves them unchanged.
	want := map[int][]float64{0: {3, 6, 3}, 3: {12, 24, 3}}
	for _, g := range groups {
		base := results[g[0]]
		for _, r := range g {
			for i := range base {
				if results[r][i] != base[i] {
					t.Fatalf("rank %d diverged from its group: %v vs %v", r, results[r], base)
				}
			}
		}
		for i, v := range want[g[0]] {
			if base[i] != v {
				t.Fatalf("group %v: got %v want %v", g, base, want[g[0]])
			}
		}
	}
}

// TestGroupBarrierSyncsOnlyTheGroup: clocks align to the group max plus
// cost; workers outside the group are untouched.
func TestGroupBarrierSyncsOnlyTheGroup(t *testing.T) {
	clu, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	vts := make([]time.Duration, 3)
	err = clu.Run(func(w *Worker) error {
		w.AdvanceTime(time.Duration(w.Rank()+1) * time.Millisecond)
		if w.Rank() < 2 {
			w.GroupBarrier([]int{0, 1}, time.Millisecond)
		}
		vts[w.Rank()] = w.VirtualTime()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if vts[0] != 3*time.Millisecond || vts[1] != 3*time.Millisecond {
		t.Fatalf("group clocks: %v, want both 3ms", vts[:2])
	}
	if vts[2] != 3*time.Millisecond {
		t.Fatalf("outsider clock %v, want its own 3ms", vts[2])
	}
}

// TestGroupBarrierChargesMaxCostWhoeverLeads: a link-degrade window that
// covers one member's clock but not the leader's scales that member's cost
// alone. The group charges max(vt) + max(cost), as the world Barrier does,
// so every member lands on the same clock and returns the same charged
// cost whichever rank leads.
func TestGroupBarrierChargesMaxCostWhoeverLeads(t *testing.T) {
	const wire = 8192 * 8
	for _, group := range [][]int{{0, 1}, {1, 0}} {
		clu, err := New(Config{Workers: 2, Faults: fault.New(1, fault.Degrade(3, 4*time.Millisecond, 10*time.Millisecond))})
		if err != nil {
			t.Fatal(err)
		}
		vts := make([]time.Duration, 2)
		costs := make([]time.Duration, 2)
		err = clu.Run(func(w *Worker) error {
			w.AdvanceTime(time.Duration(w.Rank()) * 5 * time.Millisecond) // 0 (outside), 5ms (inside)
			costs[w.Rank()] = w.GroupRingAllReduceSized(make([]float64, 8192), group, wire, true, Topology{})
			vts[w.Rank()] = w.VirtualTime()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := time.Duration(float64(clu.Net().RingAllReduceTime(wire, 2)) * 3)
		for r := range vts {
			if costs[r] != want || vts[r] != 5*time.Millisecond+want {
				t.Fatalf("leader %d, rank %d: charged %v, clock %v; want %v, %v", group[0], r, costs[r], vts[r], want, 5*time.Millisecond+want)
			}
		}
	}
}

// TestNeighborAllToAllV: sparse exchange delivers the right payloads to the
// right peers and prices each direction on the topology's links.
func TestNeighborAllToAllV(t *testing.T) {
	clu, err := New(Config{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]map[int][]float64, 3)
	costs := make([]time.Duration, 3)
	err = clu.Run(func(w *Worker) error {
		// Ring of payloads: r sends [r, r] to (r+1)%3 and expects from
		// (r-1+3)%3.
		r := w.Rank()
		to := (r + 1) % 3
		from := (r + 2) % 3
		recvs, cost := w.AsyncNeighborAllToAllV(
			[]NeighborSend{{To: to, Payload: []float64{float64(r), float64(r)}}},
			[]int{from}, []int{2}, Topology{})
		got[r] = recvs
		costs[r] = cost
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		from := (r + 2) % 3
		payload := got[r][from]
		if len(payload) != 2 || payload[0] != float64(from) {
			t.Fatalf("rank %d: got %v from %d", r, payload, from)
		}
		if costs[r] <= 0 {
			t.Fatalf("rank %d: non-positive modeled cost %v", r, costs[r])
		}
	}
}

// TestGroupRingTopologyPricing: a group confined to one simulated node
// rides the NVLink-class intra link; a cross-node group pays the fabric.
func TestGroupRingTopologyPricing(t *testing.T) {
	run := func(topo Topology) time.Duration {
		clu, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var cost time.Duration
		err = clu.Run(func(w *Worker) error {
			vec := make([]float64, 8192)
			c := w.GroupRingAllReduceSized(vec, []int{0, 1}, 8192*8, true, topo)
			if w.Rank() == 0 {
				cost = c
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	flat := run(Topology{})
	shared := run(Topology{Nodes: 1, GPUsPerNode: 2})
	if shared >= flat {
		t.Fatalf("intra-node group ring %v not cheaper than fabric %v", shared, flat)
	}
}

// TestNeighborExchangeTopologyPricing: intra-node halo hops ride the faster
// NVLink-class link, so the modeled cost drops when the peers share a node.
func TestNeighborExchangeTopologyPricing(t *testing.T) {
	run := func(topo Topology) time.Duration {
		clu, err := New(Config{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var cost time.Duration
		err = clu.Run(func(w *Worker) error {
			peer := 1 - w.Rank()
			payload := make([]float64, 4096)
			_, c := w.AsyncNeighborAllToAllV(
				[]NeighborSend{{To: peer, Payload: payload}},
				[]int{peer}, []int{4096}, topo)
			if w.Rank() == 0 {
				cost = c
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	flat := run(Topology{})                           // both hops on the fabric
	shared := run(Topology{Nodes: 1, GPUsPerNode: 2}) // same node: NVLink
	if shared >= flat {
		t.Fatalf("intra-node exchange %v not cheaper than fabric %v", shared, flat)
	}
}

// TestAsyncTwoStageAllReduce: on a Shards x Replicas grid the chunked
// two-stage collective (replica-group reduce-scatter, shard-group chunk
// allreduce-mean, replica-group allgather) must leave every worker with the
// bitwise-identical vector (sum over the replica group, mean over the shard
// group), at a modeled cost cheaper than the blocking two-ring schedule, and
// without touching any virtual clock.
func TestAsyncTwoStageAllReduce(t *testing.T) {
	grids := []struct{ shards, replicas int }{{2, 2}, {3, 2}, {2, 4}, {4, 1}, {1, 3}, {1, 1}}
	for _, grid := range grids {
		world := grid.shards * grid.replicas
		clu, err := New(Config{Workers: world})
		if err != nil {
			t.Fatal(err)
		}
		const n = 13 // deliberately not divisible by the group sizes
		results := make([][]float64, world)
		costs := make([]time.Duration, world)
		vts := make([]time.Duration, world)
		err = clu.Run(func(w *Worker) error {
			rank := w.Rank()
			rep, sh := rank/grid.shards, rank%grid.shards
			replicaGroup := make([]int, grid.shards)
			for i := range replicaGroup {
				replicaGroup[i] = rep*grid.shards + i
			}
			shardGroup := make([]int, grid.replicas)
			for i := range shardGroup {
				shardGroup[i] = i*grid.shards + sh
			}
			vec := make([]float64, n)
			for i := range vec {
				vec[i] = float64((rank + 1) * (i + 1)) // integer-exact contributions
			}
			costs[rank] = w.AsyncTwoStageAllReduce(vec, replicaGroup, shardGroup, int64(n)*8, Topology{})
			results[rank] = vec
			vts[rank] = w.VirtualTime()
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		// Expected: (sum over all ranks of a replica group, summed over
		// replica groups) / replicas — i.e. sum over shards of the per-rank
		// contributions averaged over replicas. All contributions are small
		// integers scaled by (i+1), so the float math is exact whenever the
		// replica count is a power of two; compare against rank 0 bitwise
		// and against the direct computation at 1e-12.
		for i := 0; i < n; i++ {
			var total float64
			for r := 0; r < world; r++ {
				total += float64((r + 1) * (i + 1))
			}
			want := total / float64(grid.replicas)
			got := results[0][i]
			if d := got - want; d > 1e-9 || d < -1e-9 {
				t.Fatalf("%dx%d: element %d = %v, want %v", grid.shards, grid.replicas, i, got, want)
			}
		}
		for r := 1; r < world; r++ {
			for i := range results[r] {
				if results[r][i] != results[0][i] {
					t.Fatalf("%dx%d: rank %d diverged at %d: %v vs %v", grid.shards, grid.replicas, r, i, results[r][i], results[0][i])
				}
			}
			if vts[r] != 0 {
				t.Fatalf("%dx%d: rank %d clock advanced to %v by an async collective", grid.shards, grid.replicas, r, vts[r])
			}
		}
		// Cost model: cheaper than (or equal to, for degenerate groups) the
		// blocking two-ring schedule's stage costs.
		net := clu.Net()
		wire := int64(n) * 8
		blocking := net.RingAllReduceTime(wire, grid.shards) + net.RingAllReduceTime(wire, grid.replicas)
		if world > 1 {
			if costs[0] <= 0 {
				t.Fatalf("%dx%d: zero modeled cost", grid.shards, grid.replicas)
			}
			if costs[0] > blocking {
				t.Fatalf("%dx%d: two-stage cost %v exceeds blocking two-ring %v", grid.shards, grid.replicas, costs[0], blocking)
			}
		} else if costs[0] != 0 {
			t.Fatalf("1x1: nonzero cost %v", costs[0])
		}
	}
}

// TestNeighborStartFinishMatchesCombined: the split-phase exchange delivers
// the same payloads and models the same cost as the one-shot
// AsyncNeighborAllToAllV.
func TestNeighborStartFinishMatchesCombined(t *testing.T) {
	run := func(split bool) ([]map[int][]float64, []time.Duration) {
		clu, err := New(Config{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		got := make([]map[int][]float64, 3)
		costs := make([]time.Duration, 3)
		err = clu.Run(func(w *Worker) error {
			r := w.Rank()
			to := (r + 1) % 3
			from := (r + 2) % 3
			sends := []NeighborSend{{To: to, Payload: []float64{float64(r), float64(r * 10)}}}
			if split {
				h := w.NeighborAllToAllVStart(sends, []int{from}, []int{2}, Topology{})
				got[r], costs[r] = h.Finish()
			} else {
				got[r], costs[r] = w.AsyncNeighborAllToAllV(sends, []int{from}, []int{2}, Topology{})
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return got, costs
	}
	combined, ccosts := run(false)
	phased, pcosts := run(true)
	for r := 0; r < 3; r++ {
		if pcosts[r] != ccosts[r] {
			t.Fatalf("rank %d: split cost %v != combined %v", r, pcosts[r], ccosts[r])
		}
		for from, payload := range combined[r] {
			pp := phased[r][from]
			if len(pp) != len(payload) {
				t.Fatalf("rank %d: payload length %d vs %d", r, len(pp), len(payload))
			}
			for i := range payload {
				if pp[i] != payload[i] {
					t.Fatalf("rank %d: payload mismatch at %d", r, i)
				}
			}
		}
	}
}
