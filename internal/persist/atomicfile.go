package persist

import (
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with whatever write puts into the file
// it is handed: the bytes go to <path>.tmp, are fsynced, renamed over
// path, and the directory entry is fsynced, so a crash at any point
// leaves either the previous file or the complete new one. Snapshots
// and adopted peer snapshots land this way.
func WriteFileAtomic(path string, write func(*os.File) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer os.Remove(tmp) // no-op after the rename succeeds
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a just-created, just-renamed or
// just-removed file's directory entry survives a crash.
func syncDir(dir string) error {
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
