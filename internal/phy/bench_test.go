package phy

import (
	"fmt"
	"testing"

	"repro/internal/event"
)

// BenchmarkFrameEnd times the phy layer alone on the paper's densest cell:
// 150 grid stations plus the AP, every node audible to every other. One op
// puts a burst of 1, 2 or 8 frames on the air at the same instant from
// distinct stations (one frame, a two-way collision, an eight-way pile-up)
// and runs them to their ends, so each frame end decides 150 verdicts.
// ns/frame is the cost of one transmit plus its frame end. A warm cycle
// must allocate nothing; the benchmark fails if it does.
func BenchmarkFrameEnd(b *testing.B) {
	for _, burst := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("burst=%d", burst), func(b *testing.B) {
			sched := &event.Scheduler{}
			m := NewMedium(sched, DefaultConfig())
			m.AddNode(APPosition(), nopListener{})
			var sts []*Node
			for _, p := range StationGrid(150) {
				sts = append(sts, m.AddNode(p, nopListener{}))
			}
			next := 0
			cycle := func() {
				for k := 0; k < burst; k++ {
					st := sts[next]
					next = (next + 1) % len(sts)
					m.Transmit(st, Rate54Mbps, 128, Payload{Src: st.ID})
				}
				sched.Run(0)
			}
			for i := 0; i < 3; i++ {
				cycle()
			}
			if avg := testing.AllocsPerRun(10, cycle); avg != 0 {
				b.Fatalf("warm burst of %d allocates %.2f objects per cycle, want 0", burst, avg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/frame")
		})
	}
}
