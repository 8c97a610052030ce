package device

import (
	"fmt"

	"pgti/internal/memsim"
)

// Test-only API: the declarations in this file are used by this package's
// tests but reached from no entry point, so they stay out of the shipped
// package (TestReachability in the module root keeps it that way).

// Polaris memory per node: 512 GB DDR4, 4x A100 40 GB.
const (
	PolarisSystemMemory = 512 * memsim.GiB
	A100Memory          = 40 * memsim.GiB
)

// NewCPU returns a host device with the given memory capacity
// (0 = unlimited).
func NewCPU(name string, capacity int64) *Device {
	return &Device{Kind: CPU, Name: name, Mem: memsim.NewTracker(name, capacity)}
}

// NewPolarisNode returns the paper's test platform: one 512 GB host and four
// 40 GB A100s.
func NewPolarisNode() (*Device, []*Device) {
	host := NewCPU("host", PolarisSystemMemory)
	gpus := make([]*Device, 4)
	for i := range gpus {
		gpus[i] = NewGPU(fmt.Sprintf("gpu%d", i), A100Memory)
	}
	return host, gpus
}
