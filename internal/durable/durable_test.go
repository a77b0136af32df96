package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func writeString(s string) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := io.WriteString(w, s)
		return err
	}
}

// noTemp fails the test if the directory holds any leftover temp file.
func noTemp(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil || len(left) != 0 {
		t.Fatalf("temp files left behind: %v (err %v)", left, err)
	}
}

func TestWriteFileIsVisibleAndComplete(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	for _, want := range []string{"first version", "second, longer version", "3"} {
		if err := WriteFile(path, writeString(want)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("read back %q (err %v), want %q", got, err, want)
		}
		noTemp(t, dir)
	}
}

// TestFailedWriteLeavesPreviousFile pins the atomicity half of the
// contract: a writer that fails after emitting part of its output leaves
// the previous file byte-identical and no temp file behind.
func TestFailedWriteLeavesPreviousFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	if err := WriteFile(path, writeString(`{"id":"ad-1"}`)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, `{"id":"ad-2","par`); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile returned %v, want the writer's error", err)
	}
	got, rerr := os.ReadFile(path)
	if rerr != nil || string(got) != `{"id":"ad-1"}` {
		t.Fatalf("previous file now reads %q (err %v): a failed write must not touch it", got, rerr)
	}
	noTemp(t, dir)
}

func TestFailedFirstWriteLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flight.json")
	if err := WriteFile(path, func(io.Writer) error { return errors.New("nope") }); err == nil {
		t.Fatal("writer error swallowed")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a failed first write created the target (stat err %v)", err)
	}
	noTemp(t, dir)
	// A missing parent directory fails up front, before the writer runs.
	ran := false
	err := WriteFile(filepath.Join(dir, "missing", "x"), func(io.Writer) error { ran = true; return nil })
	if err == nil || ran {
		t.Fatalf("write into a missing directory: err %v, writer ran %v", err, ran)
	}
}
