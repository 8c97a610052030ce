// Package atomicfile writes files so that a reader — or a crash — sees either
// the previous complete file or the new complete file, never a torn one.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces path with whatever write produces: the bytes go to a
// temporary file in path's directory (same filesystem, so the final rename is
// atomic), are synced to disk, and only then renamed over path. On any error —
// from write, Sync, Close or Rename — path keeps its previous contents and the
// temporary file is removed.
func Write(path string, write func(io.Writer) error) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // error path: the write already failed, this only frees the descriptor
			os.Remove(f.Name())
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	// CreateTemp makes the file 0600; give it the mode os.Create would have.
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
