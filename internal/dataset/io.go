package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"pgti/internal/atomicfile"
	"pgti/internal/tensor"
)

// signalMagic identifies the binary signal file format.
const signalMagic = uint32(0x50475449) // "PGTI"

// SaveSignal writes a rank-3 signal tensor [entries, nodes, features] to a
// simple little-endian binary format (magic, dims, float64 payload). The file
// is replaced atomically: an interrupted save leaves the previous one intact.
func SaveSignal(path string, data *tensor.Tensor) error {
	if data.Rank() != 3 {
		return fmt.Errorf("dataset: SaveSignal expects rank 3, got %v", data.Shape())
	}
	return atomicfile.Write(path, func(f io.Writer) error {
		w := bufio.NewWriter(f)
		header := []uint64{uint64(signalMagic), uint64(data.Dim(0)), uint64(data.Dim(1)), uint64(data.Dim(2))}
		for _, h := range header {
			if err := binary.Write(w, binary.LittleEndian, h); err != nil {
				return err
			}
		}
		buf := make([]byte, 8)
		for _, v := range data.Contiguous().Data() {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return w.Flush()
	})
}

// LoadSignal reads a tensor written by SaveSignal.
func LoadSignal(path string) (*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r := bufio.NewReader(f)
	var header [4]uint64
	for i := range header {
		if err := binary.Read(r, binary.LittleEndian, &header[i]); err != nil {
			return nil, fmt.Errorf("dataset: reading header: %w", err)
		}
	}
	if uint32(header[0]) != signalMagic {
		return nil, fmt.Errorf("dataset: %s is not a PGTI signal file", path)
	}
	e, n, feats := int(header[1]), int(header[2]), int(header[3])
	if e < 0 || n < 0 || feats < 0 || int64(e)*int64(n)*int64(feats) > MaxGenerateElements*4 {
		return nil, fmt.Errorf("dataset: implausible dims %dx%dx%d in %s", e, n, feats, path)
	}
	total := e * n * feats
	vals := make([]float64, total)
	buf := make([]byte, 8)
	for i := 0; i < total; i++ {
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("dataset: truncated payload at element %d: %w", i, err)
		}
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf))
	}
	return tensor.FromSlice(vals, e, n, feats), nil
}
