// Package spool implements streaming request ingest for the disasmd
// service: a request body is copied through an incremental SHA-256 so
// its content-address is known before analysis starts, buffered in
// memory up to a threshold and spilled to a temp file beyond it. The
// spilled file is memory-mapped for a zero-copy parse where the
// platform supports it (see mmap_unix.go), with a portable read-at
// fallback, so resident heap per request is O(threshold), not
// O(image).
//
// Live-spool accounting (files and bytes currently spilled to disk) is
// exposed through package-level atomics so the serving layer can gauge
// it and the chaos harness can assert it drains to zero.
package spool

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"os"
	"sync/atomic"
)

// ErrTooLarge is returned by Spool when the body exceeds Config.MaxBytes.
// The limit is enforced from the spooled byte count, never from a
// Content-Length header, so it fires identically on chunked uploads and
// on clients that lie about their length.
var ErrTooLarge = errors.New("spool: body exceeds size limit")

// ErrIO marks server-side spool failures — temp-file creation, writes,
// mapping — as opposed to transport errors reading the client's body.
// The serving layer maps it to 507 (the server is out of spool space),
// where a transport failure is the client's 400.
var ErrIO = errors.New("spool storage error")

// Config tunes one Spool call.
type Config struct {
	// Threshold is the largest body kept entirely in memory; anything
	// larger is spilled to a temp file in Dir (<= 0: 512 KiB).
	Threshold int64
	// Dir receives spilled temp files ("" = os.TempDir()). Files are
	// named "probedis-spool-*" and removed on Close/Abandon.
	Dir string
	// MaxBytes rejects bodies larger than this with ErrTooLarge
	// (<= 0: no limit). Reading stops at MaxBytes+1: a hostile client
	// cannot make the server spool an unbounded body.
	MaxBytes int64
}

// DefaultThreshold is the in-memory buffer cap when Config.Threshold
// is unset.
const DefaultThreshold = 512 << 10

// Live-spool gauges (process-wide).
var (
	liveFiles atomic.Int64
	liveBytes atomic.Int64
)

// LiveFiles returns the number of spilled spool files currently on disk.
func LiveFiles() int64 { return liveFiles.Load() }

// LiveBytes returns the total size of spilled spool files currently on
// disk.
func LiveBytes() int64 { return liveBytes.Load() }

// Body is one fully ingested request body: its content address, its
// size, and access to its bytes either in memory or through the spilled
// temp file.
type Body struct {
	sum  [32]byte
	size int64

	mem []byte // in-memory path; nil when spilled

	file *os.File // spilled path; nil when in memory
	view []byte   // mmap view (or read-at fallback buffer), lazily built
	mapd bool     // view came from mmap (must be unmapped)
	done bool
}

// Spool ingests r completely. On success the returned Body knows its
// SHA-256 and size; the caller must Close (or Abandon) it. On failure
// any temp file is already cleaned up.
func Spool(cfg Config, r io.Reader) (*Body, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = DefaultThreshold
	}
	h := sha256.New()
	b := &Body{}

	// In-memory phase: read until EOF or the threshold is crossed.
	mem := make([]byte, 0, min64(cfg.Threshold, 64<<10))
	var total int64
	buf := make([]byte, 32<<10)
	spill := false
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			if cfg.MaxBytes > 0 && total > cfg.MaxBytes {
				return nil, ErrTooLarge
			}
			h.Write(buf[:n])
			mem = append(mem, buf[:n]...)
			if int64(len(mem)) > cfg.Threshold {
				spill = true
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("spool: reading body: %w", err)
		}
		if spill {
			break
		}
	}
	if !spill {
		b.mem = mem
		b.size = total
		copy(b.sum[:], h.Sum(nil))
		return b, nil
	}

	// Spill phase: everything read so far plus the rest of the stream
	// goes to a temp file; only the fixed copy buffer stays resident.
	dir := cfg.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "probedis-spool-*")
	if err != nil {
		return nil, fmt.Errorf("spool: creating spool file (%w): %v", ErrIO, err)
	}
	liveFiles.Add(1)
	var accounted int64 // bytes charged to the liveBytes gauge so far
	cleanup := func() {
		name := f.Name()
		f.Close()
		os.Remove(name)
		liveFiles.Add(-1)
		liveBytes.Add(-accounted)
	}
	if _, err := f.Write(mem); err != nil {
		cleanup()
		return nil, fmt.Errorf("spool: writing spool file (%w): %v", ErrIO, err)
	}
	liveBytes.Add(total)
	accounted = total
	mem = nil
	for {
		n, err := r.Read(buf)
		if n > 0 {
			total += int64(n)
			if cfg.MaxBytes > 0 && total > cfg.MaxBytes {
				cleanup()
				return nil, ErrTooLarge
			}
			h.Write(buf[:n])
			if _, werr := f.Write(buf[:n]); werr != nil {
				cleanup()
				return nil, fmt.Errorf("spool: writing spool file (%w): %v", ErrIO, werr)
			}
			liveBytes.Add(int64(n))
			accounted += int64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("spool: reading body: %w", err)
		}
	}
	b.file = f
	b.size = total
	copy(b.sum[:], h.Sum(nil))
	return b, nil
}

// Sum returns the SHA-256 of the body — the content-address cache key.
func (b *Body) Sum() [32]byte { return b.sum }

// Size returns the body length in bytes.
func (b *Body) Size() int64 { return b.size }

// Spilled reports whether the body lives in a temp file rather than in
// memory.
func (b *Body) Spilled() bool { return b.file != nil }

// View returns the full body as one []byte: the memory buffer for small
// bodies, a read-only mmap of the spool file for spilled ones (falling
// back to a read-at copy where mmap is unavailable). The view is valid
// until Close; it is read-only on the mmap path — writes fault.
func (b *Body) View() ([]byte, error) {
	if b.done {
		return nil, errors.New("spool: View after Close")
	}
	if b.file == nil {
		return b.mem, nil
	}
	if b.view != nil {
		return b.view, nil
	}
	v, mapped, err := mapFile(b.file, b.size)
	if err != nil {
		return nil, fmt.Errorf("spool: mapping spool file (%w): %v", ErrIO, err)
	}
	b.view, b.mapd = v, mapped
	return b.view, nil
}

// Close releases the body: the mmap view is unmapped and the temp file
// removed. Safe to call twice.
func (b *Body) Close() error { return b.release(true) }

// Abandon releases the temp file but deliberately leaks any mmap view.
// The serving layer uses it on the pipeline-panic path, where a stray
// goroutine could still be reading the view: unmapping would turn a
// contained panic into a process-killing fault, while leaking one
// mapping of an unlinked file merely holds its pages until process
// exit.
func (b *Body) Abandon() error { return b.release(false) }

func (b *Body) release(unmap bool) error {
	if b.done {
		return nil
	}
	b.done = true
	b.mem = nil
	if b.file == nil {
		return nil
	}
	var err error
	if b.view != nil && b.mapd && unmap {
		err = unmapView(b.view)
	}
	b.view = nil
	name := b.file.Name()
	cerr := b.file.Close()
	rerr := os.Remove(name)
	liveFiles.Add(-1)
	liveBytes.Add(-b.size)
	b.file = nil
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	return rerr
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
