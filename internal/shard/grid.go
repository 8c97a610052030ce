package shard

// groups lays out rank on a shards x replicas grid: rank = replica*shards +
// shard, so each replica group (the shards cooperating on one batch,
// indexed by shard) is a contiguous rank block — halo neighbours land on
// one simulated node under a matching Topology — and each shard group (its
// replicas, indexed by replica) a stride-shards comb. SurvivingGrid inverts
// the layout when a rank is lost.
func groups(rank, shards, replicas int) (rep, sh int, replicaGroup, shardGroup []int) {
	rep, sh = rank/shards, rank%shards
	replicaGroup = make([]int, shards)
	for i := range replicaGroup {
		replicaGroup[i] = rep*shards + i
	}
	shardGroup = make([]int, replicas)
	for i := range shardGroup {
		shardGroup[i] = i*shards + sh
	}
	return rep, sh, replicaGroup, shardGroup
}

// Survivors is the grid left after one rank is lost: its shape (Replicas
// 0 when the only worker died), each surviving rank's new rank, the
// node->shard assignment it trains on, and how many nodes moved off a lost
// shard (their feature history re-fills over the fabric).
type Survivors struct {
	Shards, Replicas int
	Ranks            map[int]int
	Owner            []int
	Moved            int
}

// SurvivingGrid derives the grid that survives rank lost, given the owner
// vector in force (not modified). With spare replicas the lost rank's whole
// replica group drops — its shards cannot finish a batch without it — and
// the partition stands; on a single-replica grid the lost shard's nodes
// re-split round-robin over the surviving shards. Either way the ranks above
// the loss renumber down.
func SurvivingGrid(shards, replicas, lost int, owner []int) Survivors {
	repDead, shDead := lost/shards, lost%shards
	sv := Survivors{Shards: shards, Replicas: replicas, Ranks: make(map[int]int), Owner: owner}
	switch {
	case replicas > 1:
		sv.Replicas--
		for q := 0; q < replicas; q++ {
			for s := 0; q != repDead && s < shards; s++ {
				sv.Ranks[q*shards+s] = down(q, repDead)*shards + s
			}
		}
	case shards > 1:
		sv.Shards--
		sv.Owner = make([]int, len(owner))
		for node, o := range owner {
			sv.Owner[node] = down(o, shDead)
			if o == shDead {
				sv.Owner[node] = sv.Moved % sv.Shards
				sv.Moved++
			}
		}
		for s := 0; s < shards; s++ {
			if s != shDead {
				sv.Ranks[s] = down(s, shDead)
			}
		}
	default:
		sv.Replicas = 0
	}
	return sv
}

// down renumbers index i of a list from which index dead was removed.
func down(i, dead int) int {
	if i > dead {
		return i - 1
	}
	return i
}
