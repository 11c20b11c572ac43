package trace

import (
	"strings"
	"testing"
	"time"

	"repro/internal/backoff"
	"repro/internal/mac"
	"repro/internal/rng"
)

func recordedRun(t *testing.T, n int) (*Recorder, mac.Result) {
	t.Helper()
	rec := &Recorder{}
	res := mac.RunBatch(mac.DefaultConfig(), n, backoff.NewBEB, rng.New(13), rec)
	return rec, res
}

func TestRecorderCapturesAllStations(t *testing.T) {
	rec, res := recordedRun(t, 8)
	if got := rec.Stations(); len(got) != len(res.Stations) {
		t.Fatalf("recorded %d stations, want %d", len(got), len(res.Stations))
	}
}

func TestEveryStationHasExactlyOneSuccess(t *testing.T) {
	rec, res := recordedRun(t, 10)
	succ := map[int]int{}
	for _, e := range rec.Events {
		if e.Kind == EventSuccess {
			succ[e.Station]++
		}
	}
	for i := 0; i < len(res.Stations); i++ {
		if succ[i] != 1 {
			t.Fatalf("station %d has %d success events", i, succ[i])
		}
	}
}

func TestTimeoutEventsMatchResultCounts(t *testing.T) {
	rec, res := recordedRun(t, 12)
	timeouts := map[int]int{}
	for _, e := range rec.Events {
		if e.Kind == EventAckTimeout {
			timeouts[e.Station]++
		}
	}
	for i, s := range res.Stations {
		if timeouts[i] != s.AckTimeouts {
			t.Fatalf("station %d: trace has %d timeouts, stats %d", i, timeouts[i], s.AckTimeouts)
		}
	}
}

func TestTxEventsMatchAttempts(t *testing.T) {
	rec, res := recordedRun(t, 12)
	txs := map[int]int{}
	for _, e := range rec.Events {
		if e.Kind == EventTx && e.Station >= 0 && e.Frame == "DATA" {
			txs[e.Station]++
		}
	}
	for i, s := range res.Stations {
		if txs[i] != s.Attempts {
			t.Fatalf("station %d: %d DATA tx events vs %d attempts", i, txs[i], s.Attempts)
		}
	}
}

func TestEventsWithinSpan(t *testing.T) {
	rec, _ := recordedRun(t, 6)
	start, end := rec.Span()
	if start < 0 || end <= start {
		t.Fatalf("span [%v, %v]", start, end)
	}
	for _, e := range rec.Events {
		if e.Start < start || e.End > end {
			t.Fatalf("event %+v outside span [%v, %v]", e, start, end)
		}
	}
}

func TestRenderFigure13Shape(t *testing.T) {
	rec, res := recordedRun(t, 20) // the paper's Figure 13 uses 20 stations
	var sb strings.Builder
	if err := rec.Render(&sb, RenderOptions{Width: 120, ShowAP: true}); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	// 20 station rows + AP row + axis line.
	if len(lines) != len(res.Stations)+2 {
		t.Fatalf("rendered %d lines, want %d", len(lines), len(res.Stations)+2)
	}
	if !strings.Contains(out, "█") {
		t.Fatal("no transmission marks rendered")
	}
	if !strings.Contains(out, "AP") {
		t.Fatal("AP row missing")
	}
	// Collisions occurred (n=20 with CWmin=1 guarantees the first), so at
	// least one timeout mark should appear.
	if !strings.Contains(out, "x") {
		t.Fatal("no ACK-timeout marks rendered")
	}
}

func TestRenderEmptyRecorder(t *testing.T) {
	rec := &Recorder{}
	var sb strings.Builder
	if err := rec.Render(&sb, RenderOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "no events") {
		t.Fatalf("empty render = %q", sb.String())
	}
}

func TestWriteCSV(t *testing.T) {
	rec, _ := recordedRun(t, 5)
	var sb strings.Builder
	if err := rec.WriteCSV(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if lines[0] != "station,kind,frame,start_us,end_us" {
		t.Fatalf("header = %q", lines[0])
	}
	if len(lines) != len(rec.Events)+1 {
		t.Fatalf("%d CSV rows for %d events", len(lines)-1, len(rec.Events))
	}
}

func TestManualEventsRender(t *testing.T) {
	rec := &Recorder{}
	rec.TxStart(0, mac.FrameData, 0, 40*time.Microsecond)
	rec.AckTimeout(0, 115*time.Microsecond)
	rec.TxStart(0, mac.FrameData, 150*time.Microsecond, 190*time.Microsecond)
	rec.Success(0, 234*time.Microsecond)
	var sb strings.Builder
	if err := rec.Render(&sb, RenderOptions{Width: 60}); err != nil {
		t.Fatal(err)
	}
	row := strings.Split(sb.String(), "\n")[0]
	for _, mark := range []string{"█", "x", "*"} {
		if !strings.Contains(row, mark) {
			t.Fatalf("row %q missing %q", row, mark)
		}
	}
}
