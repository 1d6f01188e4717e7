package journal

import (
	"encoding/json"
	"errors"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"qfe/internal/store"
)

// This file is the read side of the journal: a frame-by-frame segment
// scanner shared by crash recovery (which repairs what it finds) and by
// offline tools (which must stay read-only — cmd/replay may be pointed at a
// live journal directory it has no business mutating).

// segScan is the outcome of scanning one segment file.
type segScan struct {
	records []Record
	// valid is how many bytes of the file form complete, checksummed,
	// decodable frames; the scan stopped at valid.
	valid int64
	total int64
	// truncated: the file ends mid-frame — the torn tail a crash leaves.
	// The valid prefix is trustworthy.
	truncated bool
	// corrupt: a frame failed its checksum / magic / kind / decode check
	// with more bytes behind it, or outright bit rot. Nothing at or past
	// the bad frame can be trusted, and the bytes BEFORE it committed, so
	// the segment must be quarantined, not truncated.
	corrupt bool
	// firstUnix/lastUnix bound the records' timestamps (0 when empty).
	firstUnix, lastUnix int64
	raw                 []byte
}

// validPrefix returns the trustworthy leading bytes of the scanned file.
func (s segScan) validPrefix() []byte { return s.raw[:s.valid] }

// info summarizes the scan as a SegmentInfo.
func (s segScan) info(n uint64, path string, sealed bool) SegmentInfo {
	return SegmentInfo{
		Number:          n,
		Path:            path,
		Bytes:           s.valid,
		Records:         len(s.records),
		FirstUnixMicros: s.firstUnix,
		LastUnixMicros:  s.lastUnix,
		Sealed:          sealed,
	}
}

// scanSegment reads path and walks its frames until the end, a torn tail,
// or corruption. The returned error is only an I/O error from ReadFile;
// frame-level damage is reported in the segScan instead.
func scanSegment(fsys store.FS, path string) (segScan, error) {
	data, err := fsys.ReadFile(path)
	if err != nil {
		return segScan{}, err
	}
	scan := scanBytes(data)
	return scan, nil
}

// scanBytes walks a segment image frame by frame and classifies what it
// finds. Fuzzed (FuzzJournalRead) so arbitrary mutations of segment bytes can
// be proven to land in exactly one of: clean, truncated-with-valid-prefix,
// or corrupt — never a panic, never trusting damaged bytes.
func scanBytes(data []byte) segScan {
	scan := segScan{total: int64(len(data)), raw: data}
	rest := data
	for len(rest) > 0 {
		payload, next, err := store.NextFrame(rest, store.PayloadJournal)
		if err != nil {
			if errors.Is(err, store.ErrTruncatedFrame) {
				scan.truncated = true
			} else {
				scan.corrupt = true
			}
			return scan
		}
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			// The checksum passed, so these bytes are as-written — a frame
			// that is not a journal record means the file is not (or is no
			// longer) a journal segment. Quarantine territory.
			scan.corrupt = true
			return scan
		}
		scan.records = append(scan.records, rec)
		if scan.firstUnix == 0 {
			scan.firstUnix = rec.UnixMicros
		}
		scan.lastUnix = rec.UnixMicros
		scan.valid = scan.total - int64(len(next))
		rest = next
	}
	return scan
}

// ReadReport accounts what a tolerant directory read encountered.
type ReadReport struct {
	Segments        int `json:"segments"`        // segment files seen
	Unreadable      int `json:"unreadable"`      // listed but not readable (an I/O error): skipped wholesale
	CorruptSegments int `json:"corruptSegments"` // skipped wholesale
	TornTails       int `json:"tornTails"`       // valid prefix used, tail ignored
	Quarantined     int `json:"quarantined"`     // pre-existing quarantined-seg- files (not read)
	Records         int `json:"records"`
}

// Read returns every record under dir, oldest segment first, tolerating
// damage: torn tails contribute their valid prefix, corrupt and unreadable
// segments are skipped and counted, and a segment unlinked between the listing
// and its read (retention GC) is skipped as gone. It never mutates the
// directory — recovery-with-repair is Open's job. fsys nil means the real
// filesystem.
func Read(fsys store.FS, dir string) ([]Record, ReadReport, error) {
	if fsys == nil {
		fsys = store.OSFS()
	}
	var rep ReadReport
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, rep, err
	}
	type cand struct {
		n    uint64
		name string
	}
	var cands []cand
	for _, name := range names {
		if strings.HasPrefix(name, quarantinePrefix) {
			rep.Quarantined++
			continue
		}
		if !strings.HasPrefix(name, segPrefix) {
			continue
		}
		n, ok := parseSegNumber(name, segPrefix)
		if !ok {
			continue
		}
		cands = append(cands, cand{n: n, name: name})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].n < cands[b].n })
	var out []Record
	for _, c := range cands {
		scan, err := scanSegment(fsys, filepath.Join(dir, c.name))
		if errors.Is(err, fs.ErrNotExist) {
			continue // GC won the race; the records are gone by policy
		}
		rep.Segments++
		if err != nil {
			rep.Unreadable++
			continue
		}
		if scan.corrupt {
			rep.CorruptSegments++
			continue
		}
		if scan.truncated {
			rep.TornTails++
		}
		out = append(out, scan.records...)
	}
	rep.Records = len(out)
	return out, rep, nil
}
