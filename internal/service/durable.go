package service

import (
	"os"
	"path/filepath"
)

// writeFileDurable replaces path with data so that a crash leaves either
// the previous file or the new one, never a torn mix. It writes a
// uniquely named "<base>-*.tmp" file in path's directory (concurrent
// writers of one path never share it, and directory scans skip it),
// syncs and closes it, runs beforeRename when non-nil, renames the temp
// file over path, and syncs the directory so the rename itself survives
// a crash. Any failure up to the rename removes the temp file.
func writeFileDurable(path string, data []byte, beforeRename func() error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && beforeRename != nil {
		err = beforeRename()
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
