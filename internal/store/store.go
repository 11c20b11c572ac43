// Package store implements the persistence layer of the result store: an
// append-only JSONL record log with an in-memory index keyed by
// (fingerprint, seed). The log is the durable half of the cache — every
// record is one line, written in a single write call, so a crash or SIGKILL
// can corrupt at most the final line, and Open recovers by truncating the
// torn tail and skipping unparseable interior lines. The public half — what
// a fingerprint is and what the payloads mean — lives in the root package's
// store.go; this package only moves opaque JSON payloads.
package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"
)

// Key identifies one record: the content address of a scenario plus the
// seed it ran with. Records are the memoized results of pure functions of
// their Key, so a Put that collides with an existing Key supersedes it.
type Key struct {
	Fingerprint string
	Seed        uint64
}

// record is the JSONL wire envelope, one per line. Put writes it with
// json.Marshal, so every line it writes is the canonical form
// appendPrefix + payload + "}\n" that Get checks byte by byte.
type record struct {
	Fingerprint string          `json:"fp"`
	Seed        uint64          `json:"seed"`
	Payload     json.RawMessage `json:"result"`
}

// span locates one record line in the file.
type span struct {
	off int64
	len int64
}

// Stats describes the health of an open log.
type Stats struct {
	// Records is the number of live (latest-per-key) records.
	Records int
	// Stale counts superseded records still occupying file space.
	Stale int
	// Corrupt counts unparseable interior lines skipped at Open (a torn
	// final line is truncated silently instead — it is the expected residue
	// of an interrupted run, not damage).
	Corrupt int
	// Bytes is the current file size.
	Bytes int64
}

// Log is an append-only JSONL record log with an in-memory index. It is
// safe for concurrent readers and writers: the index and the file tail are
// guarded by one RWMutex, and records are immutable once written. Get
// holds only the read lock — the index lookup and the pread run
// concurrently with other Gets — while Put and Close take the write lock.
type Log struct {
	path string

	mu      sync.RWMutex
	f       *os.File
	index   map[Key]span
	end     int64 // offset past the last good record; appends go here
	stale   int
	corrupt int
}

// Open opens (creating if needed) the log at path and rebuilds its index.
// Recovery rules: a final line not terminated by '\n' (a torn write from a
// killed process) is truncated away; an interior line that is complete but
// unparseable is skipped and counted in Stats.Corrupt. Later records win
// when a key appears more than once.
//
// The file is opened O_APPEND, so every record lands atomically at the real
// end of file even when separate processes append to one log; each process
// replays only the records present when it opened, and simply recomputes
// (and supersedes) the rest.
func Open(path string) (*Log, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	l := &Log{path: path, f: f, index: make(map[Key]span)}
	if err := l.load(); err != nil {
		_ = f.Close() // the load error is the one worth reporting
		return nil, err
	}
	return l, nil
}

// load scans the file from the start, building the index and locating the
// append offset.
func (l *Log) load() error {
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	r := bufio.NewReader(l.f)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			// A torn tail (bytes with no terminating newline): truncate it
			// so the next append starts a clean line.
			if len(line) > 0 {
				if terr := l.f.Truncate(off); terr != nil {
					return fmt.Errorf("store: truncating torn tail of %s: %w", l.path, terr)
				}
			}
			break
		}
		if err != nil {
			return err
		}
		l.addLine(line, off)
		off += int64(len(line))
	}
	l.end = off
	return nil
}

// addLine indexes one complete line, counting it corrupt if unparseable.
func (l *Log) addLine(line []byte, off int64) {
	var rec record
	if err := json.Unmarshal(line, &rec); err != nil || rec.Fingerprint == "" {
		l.corrupt++
		return
	}
	k := Key{Fingerprint: rec.Fingerprint, Seed: rec.Seed}
	if _, dup := l.index[k]; dup {
		l.stale++
	}
	l.index[k] = span{off: off, len: int64(len(line))}
}

// appendPrefix appends the canonical envelope prefix Put writes for k —
// {"fp":<k.Fingerprint as json.Marshal encodes it>,"seed":<k.Seed>,"result":
// — to dst.
func appendPrefix(dst []byte, k Key) []byte {
	fp, _ := json.Marshal(k.Fingerprint) // a string always marshals
	dst = append(append(dst, `{"fp":`...), fp...)
	dst = append(dst, `,"seed":`...)
	dst = strconv.AppendUint(dst, k.Seed, 10)
	return append(dst, `,"result":`...)
}

// payloadOf returns the payload of a record line read for k: the bytes
// between the canonical prefix Put writes for k and the closing "}\n".
// Any other line is an error: another key's record (index/file drift), a
// span that does not end where a record does, or a record that is valid
// JSON but whose envelope is not in canonical form (keys reordered, spaces
// added by hand — json.Marshal puts none around the payload either). JSON
// written by json.Marshal never holds a raw newline, so a payload with one
// spans more than one line and is rejected too. The payload's own bytes
// are not parsed.
func payloadOf(line []byte, k Key) ([]byte, error) {
	var buf [128]byte
	prefix := appendPrefix(buf[:0], k)
	if len(line) <= len(prefix)+len("}\n") ||
		!bytes.HasPrefix(line, prefix) || !bytes.HasSuffix(line, []byte("}\n")) {
		return nil, fmt.Errorf("not the canonical record for (%s, %d)", k.Fingerprint, k.Seed)
	}
	payload := line[len(prefix) : len(line)-len("}\n")]
	if jsonSpace(payload[0]) || jsonSpace(payload[len(payload)-1]) {
		return nil, fmt.Errorf("record for (%s, %d) has whitespace around its payload", k.Fingerprint, k.Seed)
	}
	if bytes.IndexByte(payload, '\n') >= 0 {
		return nil, fmt.Errorf("record for (%s, %d) spans more than one line", k.Fingerprint, k.Seed)
	}
	return payload, nil
}

// jsonSpace reports whether c is JSON insignificant whitespace.
func jsonSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// Get returns the payload stored under k, sliced out of the record line
// without decoding it: the bytes Put was given, in the compact form
// json.Marshal writes (for a payload that is itself json.Marshal output,
// those very bytes). The boolean reports whether the key is present; the
// error reports an I/O failure, or a line at the indexed offset that is
// not the canonical record Put writes for k — a hand-edited line that
// still parses as JSON is such a line. Callers treat an error as a miss
// (recompute and supersede), never as a fatality and never as a hit.
func (l *Log) Get(k Key) (json.RawMessage, bool, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	s, ok := l.index[k]
	if !ok {
		return nil, false, nil
	}
	// ReadAt is a pread: concurrent Gets share the handle safely.
	line := make([]byte, s.len)
	if _, err := l.f.ReadAt(line, s.off); err != nil {
		return nil, true, err
	}
	payload, err := payloadOf(line, k)
	if err != nil {
		return nil, true, fmt.Errorf("store: record at offset %d: %w", s.off, err)
	}
	return payload, true, nil
}

// Put appends a record for k, superseding any existing one. The line is
// written in a single O_APPEND write call — atomic at end-of-file even
// against appends from other processes — and the index is updated only
// after the write succeeds, so concurrent readers never observe a
// half-written record.
func (l *Log) Put(k Key, payload json.RawMessage) error {
	line, err := json.Marshal(record{Fingerprint: k.Fingerprint, Seed: k.Seed, Payload: payload})
	if err != nil {
		return err
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	// O_APPEND decided where the line really landed (another process may
	// have appended since our last write); the fd position now sits just
	// past it.
	pos, err := l.f.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	if _, dup := l.index[k]; dup {
		l.stale++
	}
	l.index[k] = span{off: pos - int64(len(line)), len: int64(len(line))}
	l.end = pos
	return nil
}

// Stats returns the log's current statistics.
func (l *Log) Stats() Stats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return Stats{Records: len(l.index), Stale: l.stale, Corrupt: l.corrupt, Bytes: l.end}
}

// Close syncs and closes the log. The Log is unusable afterwards.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return errors.Join(l.f.Sync(), l.f.Close())
}
