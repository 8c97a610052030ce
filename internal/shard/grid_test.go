package shard

import (
	"reflect"
	"testing"
)

// TestSurvivingGrid pins the inverse of the rank layout: which grid, rank
// map and owner vector survive the loss of one rank.
func TestSurvivingGrid(t *testing.T) {
	owner := []int{0, 1, 2, 1, 0, 1, 2}
	cases := []struct {
		name             string
		shards, replicas int
		lost             int
		want             Survivors
	}{
		{
			// Rank 3 is replica 1, shard 1: replica group {2, 3} drops and
			// replica 2 renumbers to 1; the partition is untouched.
			name: "replica loss", shards: 2, replicas: 3, lost: 3,
			want: Survivors{Shards: 2, Replicas: 2, Ranks: map[int]int{0: 0, 1: 1, 4: 2, 5: 3}, Owner: owner},
		},
		{
			name: "replica loss on the flat world", shards: 1, replicas: 3, lost: 0,
			want: Survivors{Shards: 1, Replicas: 2, Ranks: map[int]int{1: 0, 2: 1}, Owner: owner},
		},
		{
			// Shard 1's nodes 1, 3, 5 re-split round-robin over the two
			// survivors; shard 2 renumbers to 1.
			name: "shard loss", shards: 3, replicas: 1, lost: 1,
			want: Survivors{Shards: 2, Replicas: 1, Ranks: map[int]int{0: 0, 2: 1}, Owner: []int{0, 0, 1, 1, 0, 0, 1}, Moved: 3},
		},
		{
			name: "last shard lost", shards: 3, replicas: 1, lost: 2,
			want: Survivors{Shards: 2, Replicas: 1, Ranks: map[int]int{0: 0, 1: 1}, Owner: []int{0, 1, 0, 1, 0, 1, 1}, Moved: 2},
		},
		{
			name: "last worker loss", shards: 1, replicas: 1, lost: 0,
			want: Survivors{Shards: 1, Replicas: 0, Ranks: map[int]int{}, Owner: owner},
		},
	}
	for _, tc := range cases {
		before := append([]int(nil), owner...)
		got := SurvivingGrid(tc.shards, tc.replicas, tc.lost, owner)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(owner, before) {
			t.Fatalf("%s: SurvivingGrid modified the owner vector", tc.name)
		}
		// Every survivor keeps its coordinate on the axis that did not
		// shrink.
		for old, nw := range got.Ranks {
			oldRep, oldSh, _, _ := groups(old, tc.shards, tc.replicas)
			newRep, newSh, _, _ := groups(nw, got.Shards, got.Replicas)
			if got.Shards == tc.shards && oldSh != newSh || got.Replicas == tc.replicas && oldRep != newRep {
				t.Errorf("%s: rank %d (replica %d, shard %d) -> %d (replica %d, shard %d)", tc.name, old, oldRep, oldSh, nw, newRep, newSh)
			}
		}
	}
}

// TestGroupsLayout: replica groups are contiguous rank blocks and shard
// groups stride-Shards combs, and the two intersect in the rank itself.
func TestGroupsLayout(t *testing.T) {
	rep, sh, replicaGroup, shardGroup := groups(5, 2, 3)
	if rep != 2 || sh != 1 {
		t.Fatalf("rank 5 of 2x3 at replica %d shard %d, want 2, 1", rep, sh)
	}
	if !reflect.DeepEqual(replicaGroup, []int{4, 5}) || !reflect.DeepEqual(shardGroup, []int{1, 3, 5}) {
		t.Fatalf("groups %v / %v", replicaGroup, shardGroup)
	}
}
