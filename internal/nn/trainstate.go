package nn

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"pgti/internal/atomicfile"
)

// Train-state checkpoints extend the parameter checkpoint with everything a
// deterministic resume needs: the Adam moment estimates, the optimizer step
// count, and the index of the next epoch to run. The file layout is a plain
// parameter checkpoint (SaveCheckpoint's "PGTC" section) followed by a
// "PGTS" optimizer trailer, so LoadCheckpoint reads a train-state file as a
// params-only warm start, and LoadTrainState reads a params-only file as a
// train state with no optimizer section.

const trainStateMagic = uint32(0x50475453) // "PGTS" (optimizer trailer)

// TrainState is the resumable remainder of a training run beyond the model
// parameters: per-parameter Adam moments, the optimizer step count, and the
// next epoch index.
type TrainState struct {
	// NextEpoch is the absolute index of the first epoch a resumed run
	// should execute (== epochs already completed).
	NextEpoch int
	// Step is Adam's bias-correction time index t.
	Step int
	// M and V are the first/second moment vectors, in parameter order.
	M, V [][]float64
}

// CaptureTrainState snapshots the optimizer's state (deep copies) so it can
// be serialized or re-applied to an identically-shaped model.
func CaptureTrainState(opt *Adam, nextEpoch int) *TrainState {
	m, v := opt.Moments()
	st := &TrainState{NextEpoch: nextEpoch, Step: opt.StepCount()}
	for i := range m {
		st.M = append(st.M, append([]float64(nil), m[i].Data()...))
		st.V = append(st.V, append([]float64(nil), v[i].Data()...))
	}
	return st
}

// SaveTrainState writes the module's parameters followed by the optimizer
// trailer. The result is a superset of SaveCheckpoint's format: LoadCheckpoint
// reads the same file as a params-only warm start.
func SaveTrainState(w io.Writer, mod Module, opt *Adam, nextEpoch int) error {
	if err := SaveCheckpoint(w, mod); err != nil {
		return err
	}
	st := CaptureTrainState(opt, nextEpoch)
	bw := bufio.NewWriter(w)
	if err := binary.Write(bw, binary.LittleEndian, trainStateMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(st.NextEpoch)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(st.Step)); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(st.M))); err != nil {
		return err
	}
	for i := range st.M {
		for _, vec := range [][]float64{st.M[i], st.V[i]} {
			for _, x := range vec {
				if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(x)); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}

// LoadTrainState reads a checkpoint into the module and, when the optimizer
// trailer is present, returns the deserialized TrainState. A params-only
// checkpoint yields a nil TrainState and no error, so warm starts and full
// resumes share one loader. The load is all-or-nothing: the parameters are
// installed only after the whole file decoded, so an error anywhere — the
// payload or the trailer — leaves the module untouched.
func LoadTrainState(r io.Reader, mod Module) (*TrainState, error) {
	br := bufio.NewReader(r)
	snap, err := readParams(br, mod)
	if err != nil {
		return nil, err
	}
	var magic uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, RestoreParams(mod, snap) // params-only checkpoint
		}
		return nil, fmt.Errorf("nn: reading optimizer trailer: %w", err)
	}
	if magic != trainStateMagic {
		return nil, fmt.Errorf("nn: bad optimizer-trailer magic %#x", magic)
	}
	var nextEpoch, step, count uint32
	if err := binary.Read(br, binary.LittleEndian, &nextEpoch); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &step); err != nil {
		return nil, err
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	params := mod.Parameters()
	if int(count) != len(params) {
		return nil, fmt.Errorf("nn: optimizer trailer has %d moment pairs, module has %d parameters", count, len(params))
	}
	st := &TrainState{NextEpoch: int(nextEpoch), Step: int(step)}
	for _, p := range params {
		n := p.Tensor().NumElements()
		pair := make([][]float64, 2)
		for j := range pair {
			vec := make([]float64, n)
			var bits uint64
			for i := 0; i < n; i++ {
				if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
					return nil, fmt.Errorf("nn: truncated optimizer state for %q: %w", p.Name, err)
				}
				vec[i] = math.Float64frombits(bits)
			}
			pair[j] = vec
		}
		st.M = append(st.M, pair[0])
		st.V = append(st.V, pair[1])
	}
	return st, RestoreParams(mod, snap)
}

// SaveTrainStateFile writes a resumable checkpoint to path, atomically: an
// interrupted save leaves the previous checkpoint intact.
func SaveTrainStateFile(path string, mod Module, opt *Adam, nextEpoch int) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		return SaveTrainState(w, mod, opt, nextEpoch)
	})
}

// LoadTrainStateFile reads a checkpoint (with or without the optimizer
// trailer) from path into the module.
func LoadTrainStateFile(path string, mod Module) (*TrainState, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTrainState(f, mod)
}
