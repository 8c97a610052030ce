package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.bin")
	for _, content := range []string{"first", "second, longer"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != content {
			t.Fatalf("read back %q (%v), want %q", got, err, content)
		}
	}
}

// TestTornWriteKeepsPreviousFile: a writer that fails half-way leaves the
// previous file's bytes unchanged and no temporary file behind.
func TestTornWriteKeepsPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint.pgtc")
	if err := os.WriteFile(path, []byte("previous checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	torn := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return torn
	})
	if !errors.Is(err, torn) {
		t.Fatalf("Write returned %v, want the writer's error", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "previous checkpoint" {
		t.Fatalf("previous file now reads %q (%v)", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "checkpoint.pgtc" {
		t.Fatalf("directory holds %v, want only the checkpoint", entries)
	}
}

func TestWriteIntoMissingDirectoryFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "absent", "x")
	if err := Write(path, func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
