package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// requireNoTemp fails when dir holds a leftover install temp file.
func requireNoTemp(t *testing.T, dir string) {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(tmps) != 0 {
		t.Fatalf("temp files left in %s: %v (%v)", dir, tmps, err)
	}
}

// InstallFile creates the dir, replaces an installed file whole, and leaves
// no temp file; WriteCheckpoint, its caller here, round-trips through
// ReadCheckpoint. (The directory fsync after the rename cannot be observed
// without a fault seam in the file system; it is not tested.)
func TestInstallFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "sub")
	for _, parts := range [][][]byte{{[]byte("first"), []byte(" install")}, {[]byte("second")}} {
		if err := InstallFile(dir, "f", parts...); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "f"))
		if want := bytes.Join(parts, nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("installed %q (%v), want %q", got, err, want)
		}
		requireNoTemp(t, dir)
	}
	if err := InstallFile(filepath.Join(dir, "f"), "g", []byte("x")); err == nil {
		t.Fatal("install under a file succeeded")
	}

	payload := []byte("checkpoint payload")
	if err := WriteCheckpoint(dir, 7, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := ReadCheckpoint(dir, 7); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("ReadCheckpoint = %q, %v; want %q", got, err, payload)
	}
	requireNoTemp(t, dir)
}
