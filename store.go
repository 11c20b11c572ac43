package repro

// Store is the content-addressed result store: the first caching layer of
// the serving architecture. Simulation here is a pure function of
// (scenario, seed) — the repo guarantees bit-identical replay — so Results
// are perfectly memoizable. A Store persists every computed Result in an
// append-only JSONL log (internal/store) keyed by (Scenario.Fingerprint,
// seed); an Engine carrying a Store serves sweep cells from the log without
// simulating, writes misses through, and collapses identical in-flight
// cells into one simulation (singleflight). Interrupted sweeps resume for
// free: every record is durable the moment its cell completes, so a rerun
// replays the finished cells and simulates only the remainder
// (cmd/figures -cache).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// storeLogName is the record log's file name inside the store directory.
const storeLogName = "results.jsonl"

// Store is a persistent (fingerprint, seed) → Result cache, safe for
// concurrent use by any number of engines and goroutines — including
// engines in separate processes appending to the same log, since records
// are single-write lines and replay is last-wins. Open one with OpenStore
// and attach it to an Engine via its Store field.
type Store struct {
	key string // canonicalized dir, the open-registry entry Close releases
	log *store.Log

	hits, misses, puts atomic.Int64

	mu       sync.Mutex
	inflight map[store.Key]*flight
	writeErr error // first Put failure, surfaced in Stats
}

// flight is one in-progress computation of a cell; followers wait on done
// and share the leader's outcome.
type flight struct {
	done    chan struct{}
	res     Result
	payload json.RawMessage
	err     error
}

// openDirs registers every store directory open in this process, so a
// second OpenStore of the same dir fails instead of silently splitting the
// singleflight table and hit counters across two handles (cross-process
// sharing is safe — appends are single lines and replay is last-wins — but
// two in-process handles would defeat in-flight deduplication). Keys are
// canonicalized absolute paths; Close deregisters.
var openDirs struct {
	sync.Mutex
	dirs map[string]bool
}

// canonicalStoreDir resolves dir to the stable identity the open-registry
// keys on: symlinks evaluated (the directory exists by now), then made
// absolute.
func canonicalStoreDir(dir string) (string, error) {
	resolved, err := filepath.EvalSymlinks(dir)
	if err != nil {
		return "", err
	}
	return filepath.Abs(resolved)
}

// OpenStore opens (creating if needed) the result store rooted at dir and
// replays its record log into the in-memory index. Corrupt interior lines
// are skipped and counted; a torn final line — the residue of a killed
// process — is truncated away. Opening the same dir twice within one
// process is an error until the first handle is Closed (share the one
// *Store instead — it is concurrency-safe); across processes, concurrent
// appends are safe.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repro: opening store: %w", err)
	}
	key, err := canonicalStoreDir(dir)
	if err != nil {
		return nil, fmt.Errorf("repro: opening store: %w", err)
	}
	openDirs.Lock()
	if openDirs.dirs[key] {
		openDirs.Unlock()
		return nil, fmt.Errorf("repro: store %s is already open in this process; share the open *Store instead", dir)
	}
	if openDirs.dirs == nil {
		openDirs.dirs = make(map[string]bool)
	}
	openDirs.dirs[key] = true
	openDirs.Unlock()

	l, err := store.Open(filepath.Join(dir, storeLogName))
	if err != nil {
		openDirs.Lock()
		delete(openDirs.dirs, key)
		openDirs.Unlock()
		return nil, fmt.Errorf("repro: opening store: %w", err)
	}
	return &Store{key: key, log: l, inflight: make(map[store.Key]*flight)}, nil
}

// Get returns the stored Result for (fp, seed), if present. A record that
// is present but unreadable reports a miss — the engine then recomputes
// and supersedes it. Unreadable means an I/O error; a line not in the
// canonical form the store writes, such as one hand-edited with its keys
// reordered; or a payload that does not decode.
func (st *Store) Get(fp string, seed uint64) (Result, bool) {
	res, _, ok := st.get(store.Key{Fingerprint: fp, Seed: seed}, true)
	return res, ok
}

// get reads the record for k: its payload — the json.Marshal encoding of
// the stored Result — and, when decode is set, the Result decoded from it.
// Without decode the Result is zero and the payload is served unparsed:
// the log has already checked that the line is the canonical record for k.
func (st *Store) get(k store.Key, decode bool) (Result, json.RawMessage, bool) {
	payload, ok, err := st.log.Get(k)
	if !ok || err != nil {
		return Result{}, nil, false
	}
	var r Result
	if decode {
		if err := json.Unmarshal(payload, &r); err != nil {
			return Result{}, nil, false
		}
	}
	return r, payload, true
}

// put writes r through under k and returns its payload, the bytes a later
// get of k returns. The payload is returned even when only the log write
// failed: it is still r's encoding.
func (st *Store) put(k store.Key, r Result) (json.RawMessage, error) {
	payload, err := json.Marshal(r)
	if err != nil {
		return nil, fmt.Errorf("repro: encoding result for store: %w", err)
	}
	if err := st.log.Put(k, payload); err != nil {
		return payload, err
	}
	st.puts.Add(1)
	return payload, nil
}

// errLeaderAborted is a flight's outcome until its leader's run returns,
// so followers of a leader that panicked retry instead of mistaking the
// abandoned flight for a hit with a zero Result.
var errLeaderAborted = errors.New("repro: in-flight leader did not complete")

// do serves one cell: a Get hit replays the stored Result; otherwise the
// first caller for (fp, seed) becomes the leader and simulates while
// concurrent duplicates wait and share its outcome, so identical in-flight
// cells cost one simulation. Successful results are written through before
// followers are released; errors are never cached (a follower whose leader
// failed retries from the top, where its own context error surfaces). A
// write-through failure does not fail the cell — the computed Result is
// served and the error is recorded in Stats.WriteErr. When putDur is
// non-nil, the wall time of the leader's Put lands there; a nil putDur
// reads no clock, which extends the nil-observer contract down to here.
//
// Alongside the Result, do returns the cell's payload: the record bytes it
// read on a hit, or wrote on a miss (nil only if the Result failed to
// encode), shared with a leader's followers too. Without decode a hit skips
// decoding and its Result is zero; the payload is then the whole answer.
func (st *Store) do(fp string, seed uint64, decode bool, run func() (Result, error), putDur *time.Duration) (Result, json.RawMessage, error) {
	k := store.Key{Fingerprint: fp, Seed: seed}
	for {
		if res, payload, ok := st.get(k, decode); ok {
			st.hits.Add(1)
			return res, payload, nil
		}
		st.mu.Lock()
		if f, ok := st.inflight[k]; ok {
			st.mu.Unlock()
			<-f.done
			if f.err == nil {
				st.hits.Add(1)
				return f.res, f.payload, nil
			}
			continue
		}
		// Double-check under the lock: a leader may have completed (written
		// through and left) between our get above and acquiring the lock.
		if res, payload, ok := st.get(k, decode); ok {
			st.mu.Unlock()
			st.hits.Add(1)
			return res, payload, nil
		}
		f := &flight{done: make(chan struct{}), err: errLeaderAborted}
		st.inflight[k] = f
		st.mu.Unlock()
		return st.lead(k, f, run, putDur)
	}
}

// lead runs the leader's simulation for flight f and writes a successful
// result through. The flight is retired and its followers released even if
// run panics; the panic then propagates to the leader's caller.
func (st *Store) lead(k store.Key, f *flight, run func() (Result, error), putDur *time.Duration) (Result, json.RawMessage, error) {
	defer func() {
		st.mu.Lock()
		delete(st.inflight, k)
		st.mu.Unlock()
		close(f.done)
	}()
	st.misses.Add(1)
	f.res, f.err = run()
	if f.err == nil {
		var t0 time.Time
		if putDur != nil {
			t0 = time.Now()
		}
		var perr error
		f.payload, perr = st.put(k, f.res)
		if putDur != nil {
			*putDur = time.Since(t0)
		}
		if perr != nil {
			st.mu.Lock()
			if st.writeErr == nil {
				st.writeErr = perr
			}
			st.mu.Unlock()
		}
	}
	return f.res, f.payload, f.err
}

// StoreStats describes a store's contents and its service counters.
type StoreStats struct {
	// Records is the number of live records; Stale counts superseded ones
	// still occupying log space; Corrupt counts
	// unparseable lines skipped when the log was opened; Bytes is the log's
	// file size.
	Records, Stale, Corrupt int
	Bytes                   int64
	// Hits counts cells the engine served from the store (replayed or
	// joined to an in-flight duplicate) since OpenStore; Misses counts
	// cells it had to simulate. Direct Get calls are not counted.
	Hits, Misses int64
	// Puts counts successful write-throughs on miss since OpenStore.
	// Misses ≈ Puts in a healthy store; a persistent gap means
	// write-through failures (see WriteErr).
	Puts int64
	// InFlight is the number of cells currently simulating through this
	// store (singleflight leaders that have not completed) — the live
	// gauge a serving layer reports alongside the cumulative counters.
	InFlight int
	// WriteErr is the first write-through failure, if any; the affected
	// cells were served correctly but will be re-simulated next run.
	WriteErr error
}

// Stats returns the store's current statistics.
func (st *Store) Stats() StoreStats {
	ls := st.log.Stats()
	st.mu.Lock()
	werr := st.writeErr
	inflight := len(st.inflight)
	st.mu.Unlock()
	return StoreStats{
		Records: ls.Records, Stale: ls.Stale, Corrupt: ls.Corrupt, Bytes: ls.Bytes,
		Hits: st.hits.Load(), Misses: st.misses.Load(), Puts: st.puts.Load(),
		InFlight: inflight, WriteErr: werr,
	}
}

// Close syncs and closes the store and releases its open-registry slot, so
// the dir can be opened again. The Store is unusable afterwards.
func (st *Store) Close() error {
	openDirs.Lock()
	delete(openDirs.dirs, st.key)
	openDirs.Unlock()
	return st.log.Close()
}
