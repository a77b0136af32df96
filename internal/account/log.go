package account

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"longexposure/internal/obs"
)

// Segmented append-only binary event log.
//
// Layout: <dir>/events-NNNNNN.open is the single active segment, appended
// in place; on rotation it is sealed by an atomic rename to
// events-NNNNNN.seg (the same tmp+rename discipline the flight recorder
// uses for dumps — a .seg file is complete by construction, only the
// .open tail can ever be torn). Sealed segments are pruned oldest-first
// by total size and age.
//
// Record framing: a fixed magic byte, a u32 little-endian payload length,
// a u32 CRC32 (IEEE) of the payload, then the payload. Replay stops at
// the first frame that is short, oversized or fails its checksum and
// truncates the file there — a crash mid-write loses at most the torn
// record, never a preceding one.
//
// Payload (version 1): u8 version; i64 unix-nano time; 9 length-prefixed
// strings (kind, tenant, route, adapter, base, trace id, outcome, limit,
// slo); 16 u64 resource fields in Event declaration order.

const (
	segMagic   = "LXACCT01"
	recMagic   = 0xE7
	recVersion = 1
	// maxRecord bounds a frame's declared payload so a corrupt length
	// cannot drive a huge allocation during replay.
	maxRecord = 1 << 20
)

var crcTable = crc32.IEEETable

type segLog struct {
	dir       string
	segBytes  int64
	maxBytes  int64
	retention time.Duration
	metrics   *obs.AccountMetrics

	f    *os.File // active events-NNNNNN.open
	seq  int
	size int64
	buf  []byte // reusable frame buffer: emit appends without allocating
}

// openLog opens (creating if needed) the segment directory, replays every
// complete record into fn (oldest first), truncates a torn active tail,
// and leaves the log ready to append.
func openLog(dir string, segBytes, maxBytes int64, retention time.Duration, m *obs.AccountMetrics, fn func(*Event)) (*segLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("account: open log: %w", err)
	}
	l := &segLog{dir: dir, segBytes: segBytes, maxBytes: maxBytes, retention: retention, metrics: m,
		buf: make([]byte, 0, 4096)}

	names, err := l.segments()
	if err != nil {
		return nil, err
	}
	openName := ""
	for _, name := range names {
		good, err := replayFile(filepath.Join(dir, name), fn)
		if err != nil {
			return nil, err
		}
		seq := segSeq(name)
		if seq > l.seq {
			l.seq = seq
		}
		if strings.HasSuffix(name, ".open") {
			openName = name
			l.size = good
		}
	}
	if openName != "" {
		path := filepath.Join(dir, openName)
		f, err := os.OpenFile(path, os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("account: reopen active segment: %w", err)
		}
		if err := f.Truncate(l.size); err != nil { // drop a torn tail
			f.Close()
			return nil, fmt.Errorf("account: truncate torn tail: %w", err)
		}
		if _, err := f.Seek(l.size, 0); err != nil {
			f.Close()
			return nil, err
		}
		l.f = f
		return l, nil
	}
	return l, l.openNext()
}

// segments lists segment files sorted by sequence (sealed and open).
func (l *segLog) segments() ([]string, error) {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		name := e.Name()
		if strings.HasPrefix(name, "events-") && (strings.HasSuffix(name, ".seg") || strings.HasSuffix(name, ".open")) {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return segSeq(names[i]) < segSeq(names[j]) })
	return names, nil
}

func segSeq(name string) int {
	name = strings.TrimPrefix(name, "events-")
	if i := strings.IndexByte(name, '.'); i >= 0 {
		name = name[:i]
	}
	n, _ := strconv.Atoi(name)
	return n
}

func (l *segLog) openNext() error {
	l.seq++
	f, err := os.OpenFile(filepath.Join(l.dir, fmt.Sprintf("events-%06d.open", l.seq)), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("account: create segment: %w", err)
	}
	if _, err := f.WriteString(segMagic); err != nil {
		f.Close()
		return err
	}
	l.f, l.size = f, int64(len(segMagic))
	return nil
}

// append frames and writes one event, rotating when the active segment
// fills. The frame buffer is reused across calls — steady-state appends
// do not allocate.
func (l *segLog) append(e *Event) error {
	l.buf = encodeFrame(l.buf[:0], e)
	if _, err := l.f.Write(l.buf); err != nil {
		return err
	}
	l.size += int64(len(l.buf))
	l.metrics.LogBytes.Add(float64(len(l.buf)))
	if l.size >= l.segBytes {
		return l.rotate()
	}
	return nil
}

// rotate seals the active segment (atomic rename .open -> .seg), prunes
// by retention, and starts the next one.
func (l *segLog) rotate() error {
	if err := l.f.Close(); err != nil {
		return err
	}
	name := fmt.Sprintf("events-%06d", l.seq)
	if err := os.Rename(filepath.Join(l.dir, name+".open"), filepath.Join(l.dir, name+".seg")); err != nil {
		return err
	}
	l.metrics.Segments.Inc()
	l.prune()
	return l.openNext()
}

// prune deletes sealed segments oldest-first while the log exceeds its
// size budget or a segment exceeds the age retention. The active segment
// is never pruned.
func (l *segLog) prune() {
	names, err := l.segments()
	if err != nil {
		return
	}
	var sealed []string
	var total int64
	for _, name := range names {
		if fi, err := os.Stat(filepath.Join(l.dir, name)); err == nil {
			total += fi.Size()
		}
		if strings.HasSuffix(name, ".seg") {
			sealed = append(sealed, name)
		}
	}
	cutoff := time.Time{}
	if l.retention > 0 {
		cutoff = time.Now().Add(-l.retention)
	}
	for _, name := range sealed {
		path := filepath.Join(l.dir, name)
		fi, err := os.Stat(path)
		if err != nil {
			continue
		}
		overSize := l.maxBytes > 0 && total > l.maxBytes
		overAge := !cutoff.IsZero() && fi.ModTime().Before(cutoff)
		if !overSize && !overAge {
			break // names are oldest-first; nothing newer qualifies either
		}
		if os.Remove(path) == nil {
			total -= fi.Size()
		}
	}
}

func (l *segLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// ---- record codec ----

func appendStr(b []byte, s string) []byte {
	if len(s) > 0xFFFF {
		s = s[:0xFFFF]
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
	return append(b, s...)
}

func appendU64(b []byte, v int64) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(v))
}

// encodeFrame appends one framed record to b and returns it.
func encodeFrame(b []byte, e *Event) []byte {
	start := len(b)
	b = append(b, recMagic, 0, 0, 0, 0, 0, 0, 0, 0) // magic + len + crc placeholders
	payload := len(b)
	b = append(b, recVersion)
	b = appendU64(b, e.Time.UnixNano())
	for _, s := range [...]string{e.Kind, e.Tenant, e.Route, e.Adapter, e.Base, e.TraceID, e.Outcome, e.Limit, e.SLO} {
		b = appendStr(b, s)
	}
	for _, v := range [...]int64{
		e.PromptTokens, e.OutputTokens, e.DecodeSteps, e.PlannedSteps, e.TrainSteps,
		e.DenseFLOPs, e.ExecFLOPs, e.MLPSavedFLOPs, e.AttnSavedFLOPs,
		e.PeakKVRows, e.PeakKVBytes, e.ArenaBytes,
		e.QueueWaitNs, e.PrefillNs, e.DecodeNs, e.TotalNs,
	} {
		b = appendU64(b, v)
	}
	binary.LittleEndian.PutUint32(b[start+1:], uint32(len(b)-payload))
	binary.LittleEndian.PutUint32(b[start+5:], crc32.Checksum(b[payload:], crcTable))
	return b
}

// decodeRecord parses one payload into e; used by replay and tests.
func decodeRecord(p []byte, e *Event) error {
	rd := reader{b: p}
	if v := rd.u8(); v != recVersion {
		return fmt.Errorf("account: record version %d", v)
	}
	e.Time = time.Unix(0, rd.i64())
	e.Kind = rd.str()
	e.Tenant = rd.str()
	e.Route = rd.str()
	e.Adapter = rd.str()
	e.Base = rd.str()
	e.TraceID = rd.str()
	e.Outcome = rd.str()
	e.Limit = rd.str()
	e.SLO = rd.str()
	for _, dst := range [...]*int64{
		&e.PromptTokens, &e.OutputTokens, &e.DecodeSteps, &e.PlannedSteps, &e.TrainSteps,
		&e.DenseFLOPs, &e.ExecFLOPs, &e.MLPSavedFLOPs, &e.AttnSavedFLOPs,
		&e.PeakKVRows, &e.PeakKVBytes, &e.ArenaBytes,
		&e.QueueWaitNs, &e.PrefillNs, &e.DecodeNs, &e.TotalNs,
	} {
		*dst = rd.i64()
	}
	if rd.err {
		return fmt.Errorf("account: truncated record payload")
	}
	return nil
}

type reader struct {
	b   []byte
	err bool
}

func (r *reader) u8() byte {
	if r.err || len(r.b) < 1 {
		r.err = true
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) i64() int64 {
	if r.err || len(r.b) < 8 {
		r.err = true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return int64(v)
}

func (r *reader) str() string {
	if r.err || len(r.b) < 2 {
		r.err = true
		return ""
	}
	n := int(binary.LittleEndian.Uint16(r.b))
	r.b = r.b[2:]
	if len(r.b) < n {
		r.err = true
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// replayFile streams every complete record of one segment into fn and
// returns the offset of the last good frame (the truncation point for a
// torn active tail). Corruption is tolerated, not fatal: replay keeps
// whatever prefix checks out.
func replayFile(path string, fn func(*Event)) (good int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		return int64(len(segMagic)), nil // unrecognized or empty: start over
	}
	off := len(segMagic)
	for {
		if len(data)-off < 9 || data[off] != recMagic {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off+1:]))
		sum := binary.LittleEndian.Uint32(data[off+5:])
		if n <= 0 || n > maxRecord || len(data)-off-9 < n {
			break
		}
		payload := data[off+9 : off+9+n]
		if crc32.Checksum(payload, crcTable) != sum {
			break
		}
		var e Event
		if decodeRecord(payload, &e) != nil {
			break
		}
		if fn != nil {
			fn(&e)
		}
		off += 9 + n
	}
	return int64(off), nil
}
