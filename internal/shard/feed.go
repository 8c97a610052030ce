package shard

import (
	"fmt"
	"time"

	"pgti/internal/batching"
	"pgti/internal/cluster"
	"pgti/internal/device"
	"pgti/internal/tensor"
	"pgti/internal/trace"
)

// Feed is how a worker's batches reach its device and what each one costs on
// the virtual clock: at most one transfer, charged inline and fully exposed
// ahead of the step. It is one of RemoteFetch, PartitionedStore or
// HostToDevice, each on Shards == 1 only; nil assembles locally for free.
type Feed interface {
	// fetch moves the step's batch onto wk's device and charges it; a
	// PartitionedStore also delivers it assembled (st.x, st.y).
	fetch(wk *worker, st *stepState) error
	// release frees the step's batch once the step is over.
	release(st *stepState)
}

// RemoteFetch fetches every batch over the fabric (baseline DDP).
type RemoteFetch struct{}

// PartitionedStore partitions the data rows across the replicas (§5.4): only
// rows outside a replica's partition travel as remote traffic. Train builds
// the store over its Source, which must be a *batching.IndexDataset, with
// one partition per replica. The store delivers its batches assembled, so
// Prefetch and AssembleCost do not apply.
type PartitionedStore struct{ store *batching.PartitionStore }

// HostToDevice models a host-resident dataset: every batch takes a pageable
// host-to-device copy onto Device and sits on its tracker (label
// "batch.transient") for the step — the cost GPU-index-batching removes.
type HostToDevice struct{ Device *device.Device }

// localFeed is the nil Feed: the batch is already where it is needed.
type localFeed struct{}

// bindFeed resolves a run's feed: nil becomes localFeed and a
// PartitionedStore gets its store over data, one partition per replica.
func bindFeed(feed Feed, data batching.Source, replicas int) (Feed, error) {
	switch feed.(type) {
	case nil:
		return localFeed{}, nil
	case PartitionedStore:
		ds, ok := data.(*batching.IndexDataset)
		if !ok {
			return nil, fmt.Errorf("shard: PartitionedStore needs a *batching.IndexDataset source, got %T", data)
		}
		store, err := batching.NewPartitionStore(ds, replicas)
		return PartitionedStore{store}, err
	}
	return feed, nil
}

func (localFeed) fetch(*worker, *stepState) error { return nil }
func (localFeed) release(*stepState)              {}
func (RemoteFetch) release(*stepState)            {}
func (PartitionedStore) release(*stepState)       {}

func (RemoteFetch) fetch(wk *worker, st *stepState) error {
	st.fetchBytes = int64(len(st.idx)) * wk.pairBytes
	wk.fabricFetch("fetch.batch")
	return nil
}

func (f PartitionedStore) fetch(wk *worker, st *stepState) error {
	st.x, st.y, _, st.fetchBytes = f.store.FetchBatch(wk.rep, st.idx, &wk.buf)
	wk.fabricFetch("fetch.boundary")
	return nil
}

func (f HostToDevice) fetch(wk *worker, st *stepState) error {
	st.fetchBytes = int64(len(st.idx)) * wk.pairBytes
	cost, err := f.Device.Transfer("batch.transient", st.fetchBytes)
	if err != nil {
		return err
	}
	wk.exposeFetch("fetch.h2d", cluster.ChannelIntra, cost)
	wk.w.AdvanceTime(cost) // off the fabric: no link-degrade scaling
	return nil
}

func (f HostToDevice) release(st *stepState) { f.Device.Mem.Free("batch.transient", st.fetchBytes) }

// fabricFetch charges the step's fetched bytes, if any, as a remote fetch.
func (wk *worker) fabricFetch(name string) {
	if bytes := wk.st.fetchBytes; bytes > 0 {
		wk.exposeFetch(name, cluster.ChannelInter, wk.net.FetchTime(bytes))
		wk.w.FetchRemote(bytes)
	}
}

// exposeFetch books a batch transfer of cost on channel ch as exposed ahead
// of the step; the caller advances the clock.
func (wk *worker) exposeFetch(name string, ch cluster.Channel, cost time.Duration) {
	at := wk.w.VirtualTime()
	wk.tw.Span(trace.KindFetch, name, commStream(ch), at, cost, wk.st.fetchBytes)
	wk.tw.Span(trace.KindExposed, name, trace.StreamExposed, at, cost, 0)
	wk.expose(ch, cost)
}

// assembly is how a worker collates its batches, resolved once in newWorker:
// serially inside the step, one batch ahead of it (prefetched), or not at
// all when the feed delivers them (fetched).
type assembly interface {
	begin(batches [][]int)     // an epoch's step batches
	ready(st *stepState) error // before the step's timed span
	collate(st *stepState)     // inside it
	// price is the step's modeled collation: fill is exposed before the
	// step, lead ahead of its body, and next assembles under it.
	price(st *stepState) (fill, lead, next time.Duration)
	evalBatch(i int) (x, y *tensor.Tensor) // validation batch i
	close()                                // stops the collators
}

// serial collates each batch inside its step, its cost exposed ahead of the
// step body.
type serial struct{ wk *worker }

func (serial) begin([][]int)          {}
func (serial) ready(*stepState) error { return nil }
func (serial) close()                 {}

func (a serial) collate(st *stepState) { st.x, st.y = a.wk.data.AssembleBatch(st.idx, &a.wk.buf) }

func (a serial) price(st *stepState) (fill, lead, next time.Duration) {
	return 0, a.wk.cfg.AssembleCost(len(st.idx)), 0
}

func (a serial) evalBatch(i int) (x, y *tensor.Tensor) {
	return a.wk.data.AssembleBatch(a.wk.evalBatches[i], &a.wk.evalBuf)
}

// fetched trains on the feed's assembled batches, free of collation cost.
type fetched struct{ serial }

func (fetched) collate(*stepState)                                {}
func (fetched) price(*stepState) (fill, lead, next time.Duration) { return }

// prefetched pipelines collation one batch deep against the step, bitwise
// identical to serial: only the epoch's leading assembly is exposed. The
// validation batches queue behind the step batches, so the first one
// assembles under the epoch's last step.
type prefetched struct {
	serial
	pf *batching.Prefetcher
}

func (a *prefetched) begin(batches [][]int) {
	n := len(batches) // capped, so the append copies instead of writing into the sampler's slice
	a.pf = batching.NewPrefetcher(a.wk.data, append(batches[:n:n], a.wk.evalBatches...))
}

func (*prefetched) collate(*stepState) {}

func (a *prefetched) ready(st *stepState) error {
	var ok bool
	if st.x, st.y, ok = a.pf.Next(); !ok {
		return fmt.Errorf("shard: rank %d: prefetcher exhausted at step %d of %d", a.wk.rank, st.s, st.steps)
	}
	return nil
}

func (a *prefetched) price(st *stepState) (fill, lead, next time.Duration) {
	next = a.wk.cfg.AssembleCost(len(st.idx))
	if st.s == 0 {
		fill = next
	}
	if st.s+1 == st.steps { // the first validation batch is next
		next = 0
		if len(a.wk.evalBatches) > 0 {
			next = a.wk.cfg.AssembleCost(len(a.wk.evalBatches[0]))
		}
	}
	return fill, 0, next
}

func (a *prefetched) evalBatch(int) (x, y *tensor.Tensor) {
	x, y, _ = a.pf.Next()
	return x, y
}

func (a *prefetched) close() {
	if a.pf != nil {
		a.pf.Close() // idempotent; drains a schedule left mid-stream
	}
}
