// Package diskcache persists the experiment package's content-addressed run
// cache on disk, so converged Results survive process restarts and are
// shared between every process pointing at the same directory (the rfdd
// daemon's cache lives here).
//
// Layout and crash safety. Each entry is one file,
// <dir>/<kk>/<key>.run (kk = first two hex digits of the key, to keep
// directories small), holding a fixed header — magic, format version, SHA-256
// of the payload, payload length — followed by the gob-encoded Result.
// Writes go to a temp file in the same directory and are renamed into place,
// so a crash mid-write never leaves a half-entry under a valid name; rename
// is also what makes concurrent writers of the same key safe (last rename
// wins with an identical payload, since keys are content addresses).
//
// Corruption is detected, never trusted and never fatal: an entry whose
// magic, length, checksum or gob stream does not verify is moved into
// <dir>/quarantine/ (preserving the evidence for diagnosis, exactly like the
// invariant checker's desync quarantine) and reported as a miss, so the
// scenario simply re-runs and re-stores. A second corrupt entry with the
// same name overwrites the first in quarantine — the newest evidence wins.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"rfd/experiment"
)

// magic identifies a cache entry file; the trailing byte is the format
// version.
var magic = []byte("rfdruncache\x01")

// headerLen is magic + sha256 + payload length.
const headerLen = 12 + sha256.Size + 8

// Cache is the persistent store. It implements experiment.ResultStore; wire
// it under an in-memory RunCache with RunCache.SetStore. All methods are safe
// for concurrent use, within and across processes.
type Cache struct {
	dir string

	loads, loadMisses, stores, corrupt, storeFails atomic.Uint64
}

// Open prepares dir (creating it and its quarantine subdirectory as needed)
// and returns the cache.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("diskcache: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
		return nil, fmt.Errorf("diskcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// Stats reports the cache's traffic: successful loads, load misses,
// successful stores, entries quarantined as corrupt, and failed stores.
func (c *Cache) Stats() (loads, misses, stores, corrupt, storeFails uint64) {
	return c.loads.Load(), c.loadMisses.Load(), c.stores.Load(), c.corrupt.Load(), c.storeFails.Load()
}

// sanitizeKey maps a fingerprint key ("<hex>:p<N>") to a safe file stem.
func sanitizeKey(key string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}

// entryPath returns the path for key, creating its shard directory.
func (c *Cache) entryPath(key string, mkdir bool) (string, error) {
	stem := sanitizeKey(key)
	shard := "xx"
	if len(stem) >= 2 {
		shard = stem[:2]
	}
	dir := filepath.Join(c.dir, shard)
	if mkdir {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "", err
		}
	}
	return filepath.Join(dir, stem+".run"), nil
}

// encode renders the entry file content for res.
func encode(res *experiment.Result) ([]byte, error) {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(res); err != nil {
		return nil, fmt.Errorf("diskcache: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())
	out := make([]byte, 0, headerLen+payload.Len())
	out = append(out, magic...)
	out = append(out, sum[:]...)
	out = binary.LittleEndian.AppendUint64(out, uint64(payload.Len()))
	return append(out, payload.Bytes()...), nil
}

// decode verifies and decodes an entry file's content.
func decode(data []byte) (*experiment.Result, error) {
	if len(data) < headerLen {
		return nil, fmt.Errorf("diskcache: entry truncated at %d bytes", len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return nil, errors.New("diskcache: bad magic (not a cache entry, or unknown format version)")
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[len(magic):])
	payload := data[headerLen:]
	if want := binary.LittleEndian.Uint64(data[headerLen-8 : headerLen]); want != uint64(len(payload)) {
		return nil, fmt.Errorf("diskcache: payload is %d bytes, header says %d", len(payload), want)
	}
	if got := sha256.Sum256(payload); got != sum {
		return nil, errors.New("diskcache: content hash mismatch")
	}
	var res experiment.Result
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res); err != nil {
		return nil, fmt.Errorf("diskcache: decode: %w", err)
	}
	return &res, nil
}

// Load reads and verifies the entry for key. A missing entry is (nil, false,
// nil); a corrupt one is quarantined and also reported as a plain miss, so
// callers re-run and overwrite it — corruption is never fatal and never
// poisons the key.
func (c *Cache) Load(key string) (*experiment.Result, bool, error) {
	path, err := c.entryPath(key, false)
	if err != nil {
		return nil, false, err
	}
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		c.loadMisses.Add(1)
		return nil, false, nil
	}
	if err != nil {
		c.loadMisses.Add(1)
		return nil, false, fmt.Errorf("diskcache: %w", err)
	}
	res, derr := decode(data)
	if derr != nil {
		c.quarantine(path)
		c.corrupt.Add(1)
		return nil, false, nil
	}
	c.loads.Add(1)
	return res, true, nil
}

// Store writes the entry for key atomically: temp file in the entry's own
// directory, then rename. An unencodable Result (some attached reports are
// process-local) is skipped with an error the caller may count but should
// not treat as fatal.
func (c *Cache) Store(key string, res *experiment.Result) error {
	if res == nil {
		return errors.New("diskcache: nil result")
	}
	data, err := encode(res)
	if err != nil {
		c.storeFails.Add(1)
		return err
	}
	path, err := c.entryPath(key, true)
	if err != nil {
		c.storeFails.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		c.storeFails.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		c.storeFails.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	// Sync before rename: the rename must never become visible ahead of the
	// data it names, or a crash could leave a valid-looking empty entry.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		c.storeFails.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := tmp.Close(); err != nil {
		c.storeFails.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		c.storeFails.Add(1)
		return fmt.Errorf("diskcache: %w", err)
	}
	c.stores.Add(1)
	return nil
}

// quarantine moves a corrupt entry aside, best-effort (a failure to move is
// resolved by deleting, and a failure to delete is ignored — the entry will
// simply be re-quarantined on the next load).
func (c *Cache) quarantine(path string) {
	dst := filepath.Join(c.dir, "quarantine", filepath.Base(path))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
	}
}
