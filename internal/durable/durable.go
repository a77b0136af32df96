// Package durable is the repository's one crash-safe file write.
// Checkpoints, registry artifacts and flight-recorder dumps all go through
// WriteFile, so "a reader never sees a torn file, and a completed write
// survives power loss" is decided in exactly one place.
package durable

import (
	"io"
	"os"
	"path/filepath"
)

// WriteFile atomically replaces path with whatever write produces: the
// bytes go to path+".tmp", are fsynced, and the temp file is renamed over
// path; the parent directory is then fsynced so the rename itself is
// durable. On any error the temp file is removed and path is untouched —
// either the previous content or the complete new content is visible,
// never a prefix. Concurrent writers of one path must serialize
// themselves (they would share the temp name).
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}
