package lsm

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/hll"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// manifest records the durable state of the store: the next file number and
// the list of live sstables, newest first, each optionally annotated with
// its key and sequence bounds (`bounds` lines). It is rewritten atomically
// (write temp, fsync, rename) on every change, the classic small-manifest
// design.
type manifest struct {
	// nextFileNum is the sstable file-number allocator (DB.buildTable).
	// It is atomic so merge workers can allocate without db.mu; save
	// records whatever it holds at the time.
	nextFileNum atomic.Uint64
	nextSeq     uint64
	tables      []string // sstable file names, newest first
	// bounds carries each table's key range and sequence range through
	// restarts. Tables with a version-2 footer re-derive the same data
	// from their own bounds block at open; for legacy (version-1) tables
	// the manifest copy spares the backfill read of the table's last
	// block (sstable.OpenWithBounds).
	bounds map[string]sstable.Bounds
	// sketches carries the HyperLogLog key sketch of tables whose file
	// does not embed one (formats before v3's bounds-tail extension), so
	// overlap-driven compaction strategies keep their statistics across
	// restarts. Tables that embed a sketch are omitted — the file is
	// authoritative.
	sketches map[string]*hll.Sketch
	// levels records each table's position in a leveled layout; tables at
	// level 0 (fresh flushes, flat layouts) are omitted.
	levels map[string]int
}

const manifestName = "MANIFEST"

// setTables derives the manifest's table list and per-table annotations
// — bounds, sketches for tables whose file embeds none, and non-zero
// levels — from the prospective live handle set, called immediately
// before save.
func (m *manifest) setTables(handles []*tableHandle) {
	m.tables = make([]string, len(handles))
	m.bounds = make(map[string]sstable.Bounds, len(handles))
	m.sketches = make(map[string]*hll.Sketch)
	m.levels = make(map[string]int)
	for i, th := range handles {
		m.tables[i] = th.name
		if th.hasBounds {
			m.bounds[th.name] = sstable.Bounds{
				Smallest: th.smallest, Largest: th.largest,
				MinSeq: th.minSeq, MaxSeq: th.maxSeq,
			}
		}
		if th.sketch != nil && th.rd.Sketch() == nil {
			m.sketches[th.name] = th.sketch
		}
		if th.level != 0 {
			m.levels[th.name] = th.level
		}
	}
}

// loadManifest reads the manifest in dir, returning an empty manifest if
// none exists yet.
func loadManifest(fsys vfs.FS, dir string) (*manifest, error) {
	m := &manifest{nextSeq: 1}
	m.nextFileNum.Store(1)
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: open manifest: %w", err)
	}

	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "next-file "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "next-file "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("lsm: manifest next-file: %w", err)
			}
			m.nextFileNum.Store(v)
		case strings.HasPrefix(line, "next-seq "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "next-seq "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("lsm: manifest next-seq: %w", err)
			}
			m.nextSeq = v
		case strings.HasPrefix(line, "table "):
			m.tables = append(m.tables, strings.TrimPrefix(line, "table "))
		case strings.HasPrefix(line, "bounds "):
			name, b, err := parseBoundsLine(strings.TrimPrefix(line, "bounds "))
			if err != nil {
				return nil, err
			}
			if m.bounds == nil {
				m.bounds = make(map[string]sstable.Bounds)
			}
			m.bounds[name] = b
		case strings.HasPrefix(line, "sketch "):
			fields := strings.Fields(strings.TrimPrefix(line, "sketch "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("lsm: manifest sketch: want 2 fields, got %q", line)
			}
			raw, err := hex.DecodeString(fields[1])
			if err != nil {
				return nil, fmt.Errorf("lsm: manifest sketch: %w", err)
			}
			s, err := hll.Unmarshal(raw)
			if err != nil {
				return nil, fmt.Errorf("lsm: manifest sketch: %w", err)
			}
			if m.sketches == nil {
				m.sketches = make(map[string]*hll.Sketch)
			}
			m.sketches[fields[0]] = s
		case strings.HasPrefix(line, "level "):
			fields := strings.Fields(strings.TrimPrefix(line, "level "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("lsm: manifest level: want 2 fields, got %q", line)
			}
			lv, err := strconv.Atoi(fields[1])
			if err != nil || lv < 0 {
				return nil, fmt.Errorf("lsm: manifest level: bad value %q", fields[1])
			}
			if m.levels == nil {
				m.levels = make(map[string]int)
			}
			m.levels[fields[0]] = lv
		default:
			return nil, fmt.Errorf("lsm: manifest: unrecognized line %q", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lsm: read manifest: %w", err)
	}
	return m, nil
}

// parseBoundsLine decodes "name minSeq maxSeq smallestHex largestHex".
func parseBoundsLine(rest string) (string, sstable.Bounds, error) {
	var b sstable.Bounds
	fields := strings.Fields(rest)
	if len(fields) != 5 {
		return "", b, fmt.Errorf("lsm: manifest bounds: want 5 fields, got %q", rest)
	}
	var err error
	if b.MinSeq, err = strconv.ParseUint(fields[1], 10, 64); err != nil {
		return "", b, fmt.Errorf("lsm: manifest bounds min-seq: %w", err)
	}
	if b.MaxSeq, err = strconv.ParseUint(fields[2], 10, 64); err != nil {
		return "", b, fmt.Errorf("lsm: manifest bounds max-seq: %w", err)
	}
	if b.Smallest, err = hex.DecodeString(fields[3]); err != nil {
		return "", b, fmt.Errorf("lsm: manifest bounds smallest: %w", err)
	}
	if b.Largest, err = hex.DecodeString(fields[4]); err != nil {
		return "", b, fmt.Errorf("lsm: manifest bounds largest: %w", err)
	}
	return fields[0], b, nil
}

// save atomically persists the manifest into dir through fsys: write a
// temp file, fsync it, rename over the live name, fsync the directory. A
// failure anywhere means the on-disk manifest cannot be trusted to match
// the in-memory table set; callers committing a table-set change must
// treat it as a durability failure.
func (m *manifest) save(fsys vfs.FS, dir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# lsm manifest\nnext-file %d\nnext-seq %d\n", m.nextFileNum.Load(), m.nextSeq)
	for _, t := range m.tables {
		fmt.Fprintf(&b, "table %s\n", t)
		if tb, ok := m.bounds[t]; ok {
			fmt.Fprintf(&b, "bounds %s %d %d %s %s\n", t, tb.MinSeq, tb.MaxSeq,
				hex.EncodeToString(tb.Smallest), hex.EncodeToString(tb.Largest))
		}
		if s, ok := m.sketches[t]; ok {
			fmt.Fprintf(&b, "sketch %s %s\n", t, hex.EncodeToString(s.Marshal()))
		}
		if lv, ok := m.levels[t]; ok {
			fmt.Fprintf(&b, "level %s %d\n", t, lv)
		}
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if _, err := f.Write([]byte(b.String())); err != nil {
		f.Close()
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lsm: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lsm: close manifest: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("lsm: rename manifest: %w", err)
	}
	// The rename is only durable once the directory entry is flushed; a
	// compaction swap that skipped this could survive a crash with the old
	// manifest naming deleted tables. (Platforms that refuse to fsync
	// directories degrade to no-op inside SyncDir rather than failing the
	// commit.)
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("lsm: sync dir: %w", err)
	}
	return nil
}
