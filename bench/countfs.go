package main

import (
	"io"
	"os"
	"sync"

	"srdf/internal/fault"
)

// countingFS wraps the real filesystem behind the store's fault.FS seam
// and counts what the store writes: calls, bytes and fsyncs, plus each
// file's current and last-fsynced length. The lengths are what the
// durability check needs: a crash keeps, at worst, only what was synced.
type countingFS struct {
	inner fault.FS

	mu         sync.Mutex
	writes     int64
	writeBytes int64
	fsyncs     int64
	files      map[string]*fileLen // by current path
}

type fileLen struct {
	size   int64
	synced int64
}

func newCountingFS() *countingFS {
	return &countingFS{inner: fault.OS(), files: make(map[string]*fileLen)}
}

// fsCounters is a point-in-time copy of the totals.
type fsCounters struct{ writes, writeBytes, fsyncs int64 }

func (c *countingFS) counters() fsCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsCounters{c.writes, c.writeBytes, c.fsyncs}
}

// syncedLen returns the last-fsynced length of the file now at path
// (false if the store never wrote it through this FS).
func (c *countingFS) syncedLen(path string) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	fl, ok := c.files[path]
	if !ok {
		return 0, false
	}
	return fl.synced, true
}

func (c *countingFS) track(f fault.File, err error, appendMode bool) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	fl := c.files[f.Name()]
	if fl == nil {
		fl = &fileLen{}
		if st, serr := os.Stat(f.Name()); serr == nil {
			// a file that predates this FS is taken as durable
			fl.size, fl.synced = st.Size(), st.Size()
		}
		c.files[f.Name()] = fl
	}
	cf := &countingFile{File: f, fs: c, len: fl}
	if appendMode {
		cf.pos = fl.size
	}
	return cf, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := c.inner.OpenFile(name, flag, perm)
	return c.track(f, err, flag&os.O_APPEND != 0)
}

func (c *countingFS) CreateTemp(dir, pattern string) (fault.File, error) {
	f, err := c.inner.CreateTemp(dir, pattern)
	return c.track(f, err, false)
}

func (c *countingFS) ReadFile(name string) ([]byte, error) { return c.inner.ReadFile(name) }

func (c *countingFS) Rename(oldpath, newpath string) error {
	if err := c.inner.Rename(oldpath, newpath); err != nil {
		return err
	}
	c.mu.Lock()
	if fl, ok := c.files[oldpath]; ok {
		delete(c.files, oldpath)
		c.files[newpath] = fl
	}
	c.mu.Unlock()
	return nil
}

func (c *countingFS) Remove(name string) error {
	if err := c.inner.Remove(name); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.files, name)
	c.mu.Unlock()
	return nil
}

func (c *countingFS) SyncDir(dir string) error {
	c.mu.Lock()
	c.fsyncs++
	c.mu.Unlock()
	return c.inner.SyncDir(dir)
}

type countingFile struct {
	fault.File
	fs  *countingFS
	len *fileLen
	pos int64
}

func (f *countingFile) wrote(off int64, n int) {
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.writeBytes += int64(n)
	if end := off + int64(n); end > f.len.size {
		f.len.size = end
	}
	f.fs.mu.Unlock()
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.wrote(f.pos, n)
	f.pos += int64(n)
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.wrote(off, n)
	return n, err
}

func (f *countingFile) Truncate(size int64) error {
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.len.size = size
	if f.len.synced > size {
		f.len.synced = size
	}
	f.fs.mu.Unlock()
	return nil
}

func (f *countingFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.fs.mu.Lock()
	f.fs.fsyncs++
	f.len.synced = f.len.size
	f.fs.mu.Unlock()
	return nil
}

func (f *countingFile) Seek(offset int64, whence int) (int64, error) {
	pos, err := f.File.Seek(offset, whence)
	if err == nil {
		f.pos = pos
	}
	return pos, err
}

// copySynced copies src to dst cut to n bytes: the file as a crash that
// lost every unsynced byte would leave it.
func copySynced(src, dst string, n int64) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.CopyN(out, in, n); err != nil && err != io.EOF {
		out.Close()
		return err
	}
	return out.Close()
}
