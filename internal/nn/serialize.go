package nn

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"pgti/internal/atomicfile"
)

// Checkpoint serialization: a minimal, dependency-free binary format for
// model parameters, so long training runs (the paper's 100-epoch Table 3
// runs) can be resumed and trained models shipped. Format: magic, parameter
// count, then per parameter a length-prefixed name, a rank + dims header,
// and the float64 payload (little endian).

const checkpointMagic = uint32(0x50475443) // "PGTC"

// SaveCheckpoint writes the module's parameters to w.
func SaveCheckpoint(w io.Writer, m Module) error {
	bw := bufio.NewWriter(w)
	params := m.Parameters()
	if err := binary.Write(bw, binary.LittleEndian, checkpointMagic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(params))); err != nil {
		return err
	}
	for _, p := range params {
		name := []byte(p.Name)
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(name))); err != nil {
			return err
		}
		if _, err := bw.Write(name); err != nil {
			return err
		}
		shape := p.Tensor().Shape()
		if err := binary.Write(bw, binary.LittleEndian, uint32(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(bw, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		for _, v := range p.Tensor().Contiguous().Data() {
			if err := binary.Write(bw, binary.LittleEndian, math.Float64bits(v)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadCheckpoint reads parameters from r into the module. The module must
// have the same architecture (parameter names, order, and shapes) as the
// one that was saved.
func LoadCheckpoint(r io.Reader, m Module) error {
	return loadCheckpointReader(bufio.NewReader(r), m)
}

// loadCheckpointReader reads the parameter section from an existing buffered
// reader, leaving it positioned after the section (so a trailing optimizer
// state can be read from the same buffer — see LoadTrainState).
func loadCheckpointReader(br *bufio.Reader, m Module) error {
	var magic, count uint32
	if err := binary.Read(br, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("nn: reading checkpoint header: %w", err)
	}
	if magic != checkpointMagic {
		return fmt.Errorf("nn: not a PGT-I checkpoint (magic %#x)", magic)
	}
	if err := binary.Read(br, binary.LittleEndian, &count); err != nil {
		return err
	}
	params := m.Parameters()
	if int(count) != len(params) {
		return fmt.Errorf("nn: checkpoint has %d parameters, module has %d", count, len(params))
	}
	for _, p := range params {
		var nameLen uint32
		if err := binary.Read(br, binary.LittleEndian, &nameLen); err != nil {
			return err
		}
		if nameLen > 4096 {
			return fmt.Errorf("nn: implausible parameter-name length %d", nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(br, name); err != nil {
			return err
		}
		if string(name) != p.Name {
			return fmt.Errorf("nn: checkpoint parameter %q does not match module parameter %q", name, p.Name)
		}
		var rank uint32
		if err := binary.Read(br, binary.LittleEndian, &rank); err != nil {
			return err
		}
		want := p.Tensor().Shape()
		if int(rank) != len(want) {
			return fmt.Errorf("nn: parameter %q rank %d != module rank %d", p.Name, rank, len(want))
		}
		n := 1
		for d := 0; d < int(rank); d++ {
			var dim uint32
			if err := binary.Read(br, binary.LittleEndian, &dim); err != nil {
				return err
			}
			if int(dim) != want[d] {
				return fmt.Errorf("nn: parameter %q dim %d is %d, module has %d", p.Name, d, dim, want[d])
			}
			n *= int(dim)
		}
		dst := p.Tensor().Data()
		var bits uint64
		for i := 0; i < n; i++ {
			if err := binary.Read(br, binary.LittleEndian, &bits); err != nil {
				return fmt.Errorf("nn: truncated payload for %q: %w", p.Name, err)
			}
			dst[i] = math.Float64frombits(bits)
		}
	}
	return nil
}

// SaveCheckpointFile writes a checkpoint to path, atomically: an interrupted
// save leaves the previous checkpoint intact.
func SaveCheckpointFile(path string, m Module) error {
	return atomicfile.Write(path, func(w io.Writer) error {
		return SaveCheckpoint(w, m)
	})
}

// LoadCheckpointFile reads a checkpoint from path.
func LoadCheckpointFile(path string, m Module) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return LoadCheckpoint(f, m)
}
