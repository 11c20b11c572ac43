package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestJSONLSink(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	sp := Span{
		Name:     "cell",
		Start:    time.Unix(100, 500),
		Duration: 250 * time.Millisecond,
		Attrs:    []Attr{String("fp", "abc"), Int64("seed_index", 3), Bool("hit", true)},
	}
	sink.EmitSpan(sp)
	sink.EmitSpan(Span{Name: "empty", Start: time.Unix(200, 0)})
	if err := sink.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}

	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line not JSON: %v", err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[0]["name"] != "cell" || lines[0]["dur_ns"] != float64(250*time.Millisecond) {
		t.Errorf("first line = %v", lines[0])
	}
	attrs := lines[0]["attrs"].([]any)
	if len(attrs) != 3 {
		t.Fatalf("attrs = %v", attrs)
	}
	first := attrs[0].(map[string]any)
	if first["k"] != "fp" || first["v"] != "abc" {
		t.Errorf("first attr = %v", first)
	}
	if _, ok := lines[1]["attrs"]; ok {
		t.Error("empty attrs should be omitted")
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("disk full")
}

func TestJSONLSinkRetainsFirstError(t *testing.T) {
	w := &failWriter{}
	sink := NewJSONL(w)
	sink.EmitSpan(Span{Name: "a"})
	sink.EmitSpan(Span{Name: "b"})
	if err := sink.Close(); err == nil {
		t.Fatal("Close should return the retained error")
	}
	if w.n != 1 {
		t.Errorf("writer called %d times after first error, want 1", w.n)
	}
}

func TestJSONLSinkConcurrent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sink.EmitSpan(Span{Name: "s", Start: time.Unix(int64(i), 0), Attrs: []Attr{Int64("i", int64(i))}})
			}
		}()
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatalf("Close() = %v", err)
	}
	sc := bufio.NewScanner(&buf)
	n := 0
	for sc.Scan() {
		if !json.Valid(sc.Bytes()) {
			t.Fatalf("interleaved/corrupt line: %q", sc.Text())
		}
		n++
	}
	if n != 800 {
		t.Errorf("got %d lines, want 800", n)
	}
}
