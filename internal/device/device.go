// Package device models the compute devices of a Polaris node: the host CPU
// (512 GB DDR4) and NVIDIA A100 accelerators (40 GB HBM) connected over
// PCIe. GPUs are simulated — there is no CUDA here — but the two properties
// the paper's GPU results rest on are reproduced faithfully:
//
//  1. capacity-tracked device memory (GPU-index-batching trades CPU bytes
//     for GPU bytes and must fit in 40 GB), and
//  2. host-device transfer cost (GPU-index-batching wins by consolidating
//     per-batch H2D transfers into one bulk copy).
package device

import (
	"time"

	"pgti/internal/memsim"
)

// Kind distinguishes host and accelerator devices.
type Kind int

const (
	// CPU is the host processor with system DRAM.
	CPU Kind = iota
	// GPU is a simulated accelerator with its own memory pool.
	GPU
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k == GPU {
		return "gpu"
	}
	return "cpu"
}

// Polaris PCIe gen4 x16: effective ~25 GB/s with ~10 us launch latency.
const (
	PCIeBandwidth = 25.0 * float64(memsim.GiB) // bytes/second
	PCIeLatency   = 10 * time.Microsecond
)

// Device is a memory pool plus a transfer-cost model.
type Device struct {
	Kind      Kind
	Name      string
	Mem       *memsim.Tracker
	bandwidth float64 // H2D/D2H bytes per second
	latency   time.Duration
}

// NewGPU returns a simulated accelerator with the given memory capacity and
// the Polaris PCIe transfer model.
func NewGPU(name string, capacity int64) *Device {
	return &Device{
		Kind:      GPU,
		Name:      name,
		Mem:       memsim.NewTracker(name, capacity),
		bandwidth: PCIeBandwidth,
		latency:   PCIeLatency,
	}
}

// TransferTime returns the modeled time to move bytes between the host and
// this device (zero for CPU targets: host-to-host is a no-op here).
func (d *Device) TransferTime(bytes int64) time.Duration {
	if d.Kind == CPU || bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / d.bandwidth
	return d.latency + time.Duration(sec*float64(time.Second))
}

// Transfer accounts an H2D copy: allocates bytes on the device under label
// and returns the modeled transfer time. The source allocation on the host
// is the caller's to manage (the paper's workflows keep the host copy alive
// during staging, then free it).
func (d *Device) Transfer(label string, bytes int64) (time.Duration, error) {
	if err := d.Mem.Alloc(label, bytes); err != nil {
		return 0, err
	}
	return d.TransferTime(bytes), nil
}
