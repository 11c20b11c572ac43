package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func tempLog(t *testing.T) (*Log, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "results.jsonl")
	l, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, path
}

func payload(s string) json.RawMessage { return json.RawMessage(fmt.Sprintf("{%q:1}", s)) }

func TestPutGetRoundTrip(t *testing.T) {
	l, _ := tempLog(t)
	k := Key{Fingerprint: "fp-a", Seed: 7}
	if _, ok, _ := l.Get(k); ok {
		t.Fatal("empty log reported a record")
	}
	if err := l.Put(k, payload("a")); err != nil {
		t.Fatal(err)
	}
	got, ok, err := l.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, payload("a")) {
		t.Fatalf("payload %s, want %s", got, payload("a"))
	}
}

func TestReopenRebuildsIndex(t *testing.T) {
	l, path := tempLog(t)
	for seed := uint64(0); seed < 10; seed++ {
		if err := l.Put(Key{"fp", seed}, payload(fmt.Sprint(seed))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Stats().Records != 10 {
		t.Fatalf("reopened log has %d records, want 10", l2.Stats().Records)
	}
	got, ok, err := l2.Get(Key{"fp", 3})
	if err != nil || !ok || !bytes.Equal(got, payload("3")) {
		t.Fatalf("Get after reopen: %s ok=%v err=%v", got, ok, err)
	}
}

func TestLastPutWins(t *testing.T) {
	l, path := tempLog(t)
	k := Key{"fp", 1}
	if err := l.Put(k, payload("old")); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(k, payload("new")); err != nil {
		t.Fatal(err)
	}
	got, _, _ := l.Get(k)
	if !bytes.Equal(got, payload("new")) {
		t.Fatalf("got %s, want the superseding record", got)
	}
	if st := l.Stats(); st.Records != 1 || st.Stale != 1 {
		t.Fatalf("stats %+v, want 1 record and 1 stale", st)
	}
	l.Close()
	// Replay order preserves last-wins across reopen too.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got, _, _ = l2.Get(k)
	if !bytes.Equal(got, payload("new")) {
		t.Fatalf("after reopen got %s, want the superseding record", got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	l, path := tempLog(t)
	if err := l.Put(Key{"fp", 1}, payload("a")); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(Key{"fp", 2}, payload("b")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	// Simulate a crash mid-append: a record with no terminating newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"fp":"fp","seed":3,"result":{"half`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if l2.Stats().Records != 2 {
		t.Fatalf("recovered %d records, want 2", l2.Stats().Records)
	}
	if st := l2.Stats(); st.Corrupt != 0 {
		t.Fatalf("a torn tail is not corruption; stats %+v", st)
	}
	// The log must be appendable again and the new record must survive a
	// further reopen (i.e. the tail really was truncated, not glued onto).
	if err := l2.Put(Key{"fp", 3}, payload("c")); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	l3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Stats().Records != 3 {
		t.Fatalf("after repair+append got %d records, want 3", l3.Stats().Records)
	}
	if got, ok, _ := l3.Get(Key{"fp", 3}); !ok || !bytes.Equal(got, payload("c")) {
		t.Fatalf("record written after repair lost: %s ok=%v", got, ok)
	}
}

func TestCorruptInteriorLineSkipped(t *testing.T) {
	l, path := tempLog(t)
	if err := l.Put(Key{"fp", 1}, payload("a")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A complete but garbled line (bit rot, editor accident), then a good one.
	if _, err := f.WriteString("this is not json\n"); err != nil {
		t.Fatal(err)
	}
	line, _ := json.Marshal(record{Fingerprint: "fp", Seed: 2, Payload: payload("b")})
	if _, err := f.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.Stats().Records != 2 {
		t.Fatalf("recovered %d records, want 2 (good lines on both sides of the bad one)", l2.Stats().Records)
	}
	if st := l2.Stats(); st.Corrupt != 1 {
		t.Fatalf("stats %+v, want 1 corrupt line", st)
	}
	if got, ok, _ := l2.Get(Key{"fp", 2}); !ok || !bytes.Equal(got, payload("b")) {
		t.Fatalf("record after the corrupt line lost: %s ok=%v", got, ok)
	}
}

func TestConcurrentPutGet(t *testing.T) {
	l, path := tempLog(t)
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				k := Key{fmt.Sprintf("fp-%d", w), uint64(i)}
				if err := l.Put(k, payload(fmt.Sprintf("%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
				if got, ok, err := l.Get(k); err != nil || !ok || !bytes.Equal(got, payload(fmt.Sprintf("%d-%d", w, i))) {
					t.Errorf("read-own-write %v: %s ok=%v err=%v", k, got, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Stats().Records != writers*perWriter {
		t.Fatalf("got %d records, want %d", l.Stats().Records, writers*perWriter)
	}
	l.Close()
	// Every concurrently-written line must replay.
	l2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	st := l2.Stats()
	if st.Records != writers*perWriter || st.Corrupt != 0 {
		t.Fatalf("after reopen %+v, want %d clean records", st, writers*perWriter)
	}
}

// TestCrossHandleAppends mimics two processes sharing one log: two
// independently-opened Logs interleave Puts. O_APPEND makes every line land
// at the real end of file, so no handle's write can clobber the other's,
// and a fresh Open replays the union.
func TestCrossHandleAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.jsonl")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	for i := uint64(0); i < 10; i++ {
		if err := a.Put(Key{"fp-a", i}, payload(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(Key{"fp-b", i}, payload(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Each handle still reads its own records back (its index offsets must
	// be the real on-disk positions despite the other handle's appends).
	for i := uint64(0); i < 10; i++ {
		if got, ok, err := a.Get(Key{"fp-a", i}); err != nil || !ok || !bytes.Equal(got, payload(fmt.Sprintf("a%d", i))) {
			t.Fatalf("handle a lost its own record %d: %s ok=%v err=%v", i, got, ok, err)
		}
		if got, ok, err := b.Get(Key{"fp-b", i}); err != nil || !ok || !bytes.Equal(got, payload(fmt.Sprintf("b%d", i))) {
			t.Fatalf("handle b lost its own record %d: %s ok=%v err=%v", i, got, ok, err)
		}
	}
	// A third open sees the interleaved union, all lines intact.
	c, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st := c.Stats()
	if st.Records != 20 || st.Corrupt != 0 {
		t.Fatalf("union replay %+v, want 20 clean records", st)
	}
}

// TestNonCanonicalLineIsError: a hand-edited line that is still valid JSON
// but not the canonical envelope Put writes (keys reordered, spaces added)
// is indexed at Open — it parses — yet Get reports it as an error, never
// as a hit whose bytes could be served verbatim. A Put supersedes it.
func TestNonCanonicalLineIsError(t *testing.T) {
	for name, line := range map[string]string{
		"reordered": `{"seed":1,"fp":"fp","result":{"a":1}}`,
		"spaced":    `{"fp": "fp", "seed": 1, "result": {"a":1}}`,
		"padded":    `{"fp":"fp","seed":1,"result":{"a":1} }`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "results.jsonl")
			if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if st := l.Stats(); st.Records != 1 || st.Corrupt != 0 {
				t.Fatalf("stats %+v, want the hand-edited line indexed", st)
			}
			k := Key{"fp", 1}
			if got, ok, err := l.Get(k); !ok || err == nil {
				t.Fatalf("Get of a non-canonical line: %s ok=%v err=%v, want present with an error", got, ok, err)
			}
			if err := l.Put(k, payload("a")); err != nil {
				t.Fatal(err)
			}
			if got, ok, err := l.Get(k); err != nil || !ok || !bytes.Equal(got, payload("a")) {
				t.Fatalf("Get after superseding Put: %s ok=%v err=%v", got, ok, err)
			}
		})
	}
}

// TestGetEscapedFingerprints: fingerprints json.Marshal escapes still
// round-trip, so Get's canonical prefix matches the one Put wrote.
func TestGetEscapedFingerprints(t *testing.T) {
	l, _ := tempLog(t)
	for i, fp := range []string{`v1:"quoted"`, `back\slash`, "a<b>&c", "tab\there", "ünï", "bad\xffutf8", " "} {
		k := Key{fp, uint64(i) << 40}
		if err := l.Put(k, payload(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if got, ok, err := l.Get(k); err != nil || !ok || !bytes.Equal(got, payload(fmt.Sprint(i))) {
			t.Fatalf("fp %q: %s ok=%v err=%v", fp, got, ok, err)
		}
	}
}

// TestGetDuringPut runs many readers against one writer per key, all on
// one Log (CI runs it under -race). Each writer publishes the version it
// last Put; a Get must return a version no older than the one published
// before it started and no newer than the next, and must never fail.
func TestGetDuringPut(t *testing.T) {
	l, _ := tempLog(t)
	const keys, versions, readers = 4, 30, 4
	pad := bytes.Repeat([]byte("x"), 64)
	body := func(k, v int) json.RawMessage {
		return json.RawMessage(fmt.Sprintf(`{"k":%d,"v":%d,"pad":%q}`, k, v, pad))
	}
	key := func(k int) Key { return Key{fmt.Sprintf("fp-%d", k), uint64(k)} }
	var latest [keys]atomic.Int64
	for k := 0; k < keys; k++ {
		if err := l.Put(key(k), body(k, 0)); err != nil {
			t.Fatal(err)
		}
	}

	// Writers are the finite work; readers run until they are done.
	var work, readersWG sync.WaitGroup
	done := make(chan struct{})
	for k := 0; k < keys; k++ {
		work.Add(1)
		go func(k int) {
			defer work.Done()
			for v := 1; v <= versions; v++ {
				if err := l.Put(key(k), body(k, v)); err != nil {
					t.Error(err)
					return
				}
				latest[k].Store(int64(v))
			}
		}(k)
	}
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				k := (r + i) % keys
				lo := latest[k].Load()
				got, ok, err := l.Get(key(k))
				hi := latest[k].Load() + 1
				if err != nil || !ok {
					t.Errorf("Get %v: ok=%v err=%v", key(k), ok, err)
					return
				}
				fresh := false
				for v := lo; v <= hi && !fresh; v++ {
					fresh = bytes.Equal(got, body(k, int(v)))
				}
				if !fresh {
					t.Errorf("Get %v returned %.40s, want key %d at a version in [%d, %d]", key(k), got, k, lo, hi)
					return
				}
			}
		}(r)
	}
	work.Wait()
	close(done)
	readersWG.Wait()
	for k := 0; k < keys; k++ {
		if got, ok, err := l.Get(key(k)); err != nil || !ok || !bytes.Equal(got, body(k, versions)) {
			t.Fatalf("final Get %v: ok=%v err=%v, want the last Put", key(k), ok, err)
		}
	}
}

// BenchmarkLogGet is the store Get layer on its own: one ~10 KB record —
// the size of a wifi batch Result with its per-station stats — read back
// through the index, the pread and the canonical-envelope check.
func BenchmarkLogGet(b *testing.B) {
	path := filepath.Join(b.TempDir(), "results.jsonl")
	l, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	k := Key{"v1:0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef", 42}
	body := json.RawMessage(fmt.Sprintf(`{"pad":%q}`, bytes.Repeat([]byte("s"), 10<<10)))
	if err := l.Put(k, body); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, ok, err := l.Get(k)
		if err != nil || !ok || len(got) != len(body) {
			b.Fatalf("Get: %d bytes ok=%v err=%v", len(got), ok, err)
		}
	}
}
