package perfmodel

// DCGRUDims describes a DCGRU-based sequence model for FLOP estimation.
type DCGRUDims struct {
	Nodes    int // graph nodes N
	NNZ      int // non-zeros per support matrix
	In       int // input features per node
	Hidden   int // hidden units
	K        int // diffusion hops per support
	Supports int // number of support matrices (2 for bidirectional)
	Steps    int // recurrent steps per window
	Layers   int // stacked cells (1 for PGT-DCRNN, 2 for DCRNN)
	// EncoderDecoder doubles the recurrence (DCRNN decodes as many steps as
	// it encodes).
	EncoderDecoder bool
}

// PGTDCRNNDims returns the dimensions of the paper's PGT-DCRNN on a graph
// with n nodes and nnz support non-zeros (hidden 64, K=2, horizon 12,
// speed + time-of-day inputs).
func PGTDCRNNDims(n, nnz int) DCGRUDims {
	return DCGRUDims{Nodes: n, NNZ: nnz, In: 2, Hidden: 64, K: 2, Supports: 2, Steps: 12, Layers: 1}
}

// cellFLOPs returns the forward FLOPs of one DCGRU cell step at batch b
// with cin input channels.
func (d DCGRUDims) cellFLOPs(b, cin int) float64 {
	mats := 1 + d.K*d.Supports
	conv := func(cout int) float64 {
		spmm := float64(d.Supports*d.K) * 2 * float64(d.NNZ) * float64(b) * float64(cin)
		proj := 2 * float64(b) * float64(d.Nodes) * float64(mats*cin) * float64(cout)
		return spmm + proj
	}
	// Gate conv (2H out) + candidate conv (H out) + elementwise gating.
	return conv(2*d.Hidden) + conv(d.Hidden) + 6*float64(b)*float64(d.Nodes)*float64(d.Hidden)
}

// ForwardFLOPs returns the forward-pass FLOPs for one batch of b windows.
func (d DCGRUDims) ForwardFLOPs(b int) float64 {
	var total float64
	steps := d.Steps
	if d.EncoderDecoder {
		steps *= 2 // encoder + decoder recurrences
	}
	for l := 0; l < maxInt(1, d.Layers); l++ {
		cin := d.In + d.Hidden
		if l > 0 {
			cin = 2 * d.Hidden
		}
		total += float64(steps) * d.cellFLOPs(b, cin)
	}
	// Output projection per emitted step.
	total += float64(d.Steps) * 2 * float64(b) * float64(d.Nodes) * float64(d.Hidden)
	return total
}

// StepFLOPs returns forward+backward FLOPs per optimizer step (backward
// ~2x forward, the standard estimate).
func (d DCGRUDims) StepFLOPs(b int) float64 {
	return 3 * d.ForwardFLOPs(b)
}

// ParamCount estimates the trainable parameter count (gradient volume for
// AllReduce).
func (d DCGRUDims) ParamCount() int {
	mats := 1 + d.K*d.Supports
	total := 0
	layers := maxInt(1, d.Layers)
	stacks := 1
	if d.EncoderDecoder {
		stacks = 2
	}
	for s := 0; s < stacks; s++ {
		for l := 0; l < layers; l++ {
			cin := d.In + d.Hidden
			if l > 0 {
				cin = 2 * d.Hidden
			}
			gates := mats*cin*2*d.Hidden + 2*d.Hidden
			cand := mats*cin*d.Hidden + d.Hidden
			total += gates + cand
		}
	}
	total += d.Hidden + 1 // output projection
	return total
}

// GradBytes returns the AllReduce payload per step.
func (d DCGRUDims) GradBytes() int64 { return int64(d.ParamCount()) * 8 }

// BatchBytes returns the bytes of one collated training batch (x and y
// windows) for a graph with n nodes and f features at horizon h.
func BatchBytes(batch, horizon, nodes, features int) int64 {
	return int64(batch) * int64(2*horizon) * int64(nodes) * int64(features) * 8
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
