package service

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileDurable: after a successful write, a failing pre-rename
// hook leaves the previous file byte-identical with no temp file behind.
func TestWriteFileDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.bin")
	old := []byte("previous durable state")
	if err := writeFileDurable(path, old, nil); err != nil {
		t.Fatal(err)
	}
	errHook := errors.New("injected hook failure")
	err := writeFileDurable(path, []byte("torn"), func() error { return errHook })
	if !errors.Is(err, errHook) {
		t.Fatalf("writeFileDurable with failing hook: err = %v, want %v", err, errHook)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Errorf("file after failed write = %q, want the previous %q", got, old)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("temp files left behind: %v", tmps)
	}
}
