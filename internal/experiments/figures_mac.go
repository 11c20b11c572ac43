package experiments

import (
	"time"

	"repro"
	"repro/internal/mac"
)

// us converts a duration to microseconds, the paper's plotting unit.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// figure3 regenerates Figure 3: contention-window slots vs n with a 64-byte
// payload, median of 30 trials.
func figure3(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	return macSweepTable(c, "fig3", "CW slots, 64B payload", "CW slots", cfg, 30,
		func(r repro.BatchResult) float64 { return float64(r.CWSlots) })
}

// figure4 regenerates Figure 4: CW slots vs n with a 1024-byte payload.
func figure4(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	cfg.PayloadBytes = 1024
	return macSweepTable(c, "fig4", "CW slots, 1024B payload", "CW slots", cfg, 30,
		func(r repro.BatchResult) float64 { return float64(r.CWSlots) })
}

// figure6 regenerates Figure 6: CW slots consumed by the time n/2 packets
// have finished, 64-byte payload, 20 trials.
func figure6(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	return macSweepTable(c, "fig6", "CW slots to finish n/2, 64B", "CW slots (n/2)", cfg, 20,
		func(r repro.BatchResult) float64 { return float64(r.CWSlotsAtHalf) })
}

// figure7 regenerates Figure 7: total time (µs) vs n, 64-byte payload.
func figure7(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	return macSweepTable(c, "fig7", "Total time (µs), 64B", "total time (µs)", cfg, 30,
		func(r repro.BatchResult) float64 { return us(r.TotalTime) })
}

// figure8 regenerates Figure 8: total time (µs) vs n, 1024-byte payload.
func figure8(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	cfg.PayloadBytes = 1024
	return macSweepTable(c, "fig8", "Total time (µs), 1024B", "total time (µs)", cfg, 30,
		func(r repro.BatchResult) float64 { return us(r.TotalTime) })
}

// figure9 regenerates Figure 9: time (µs) until n/2 packets finished, 64B.
func figure9(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	return macSweepTable(c, "fig9", "Time to n/2 (µs), 64B", "time for n/2 (µs)", cfg, 30,
		func(r repro.BatchResult) float64 { return us(r.HalfTime) })
}

// figure10 regenerates Figure 10: time until n/2 packets finished, 1024B.
func figure10(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	cfg.PayloadBytes = 1024
	return macSweepTable(c, "fig10", "Time to n/2 (µs), 1024B", "time for n/2 (µs)", cfg, 30,
		func(r repro.BatchResult) float64 { return us(r.HalfTime) })
}

// figure11 regenerates Figure 11: maximum ACK timeouts over stations, 64B.
func figure11(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	return macSweepTable(c, "fig11", "Max ACK timeouts per station, 64B", "max ACK timeouts", cfg, 30,
		func(r repro.BatchResult) float64 { return float64(r.MaxAckTimeouts) })
}

// figure12 regenerates Figure 12: time the max-timeout station spent
// waiting on ACK timeouts (µs), 64B.
func figure12(c Config) repro.Table {
	cfg := mac.DefaultConfig()
	return macSweepTable(c, "fig12", "Max ACK-timeout wait (µs), 64B", "timeout wait (µs)", cfg, 30,
		func(r repro.BatchResult) float64 { return us(r.MaxAckTimeoutWait) })
}
