package mac

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/backoff"
	"repro/internal/event"
	"repro/internal/phy"
	"repro/internal/rng"
)

// Result aggregates one single-batch DCF run.
type Result struct {
	// TotalTime is when the last station's ACK arrived (paper Figures 7, 8).
	TotalTime time.Duration
	// HalfTime is when the ceil(n/2)-th station finished (Figures 9, 10).
	HalfTime time.Duration
	// CWSlots counts distinct backoff slot boundaries observed on the
	// channel up to the last finish (Figures 3, 4): the MAC analogue of the
	// abstract model's contention-window slots.
	CWSlots int
	// CWSlotsAtHalf is the CWSlots snapshot at HalfTime (Figure 6).
	CWSlotsAtHalf int
	// Collisions is the number of disjoint collisions at the AP: maximal
	// groups of temporally overlapping undecodable access frames.
	Collisions int
	// CollisionAir is the union duration of those collision groups — the
	// paper's "(I) transmission time" cost component.
	CollisionAir time.Duration
	// Captures counts frames the AP decoded despite temporal overlap with
	// another transmission. Zero on the paper's grid topology; non-zero
	// only under ablation layouts with large receive-power spreads.
	Captures int
	// MaxAckTimeouts is the maximum ACK timeouts over stations (Figure 11).
	MaxAckTimeouts int
	// MaxAckTimeoutWait is the timeout wait of the station with the most
	// timeouts (Figure 12).
	MaxAckTimeoutWait time.Duration
	// Stations holds the per-station counters.
	Stations []StationStats
	// Kernel is the run's deterministic work profile (see KernelStats).
	Kernel KernelStats
}

// KernelStats is the deterministic work profile of one run: event-kernel
// counters, idle-slot fast-forward savings, and Tx pool traffic. Every
// field is a pure function of (scenario, seed) — no wall clock — so
// reading it cannot perturb reproducibility. It is a side channel for
// observability only: it must never be serialized into store records,
// folded into fingerprints, or compared by result goldens.
type KernelStats struct {
	EventsScheduled uint64 // events armed in the kernel (includes cancelled)
	EventsFired     uint64 // events executed
	EventsCanceled  uint64 // events removed before firing
	EventsReused    uint64 // kernel allocs served from the event free list
	MaxQueueLen     int    // event-queue depth high-water mark
	IdleSlotsElided uint64 // slot events skipped by the idle fast-forward
	TxTotal         int    // transmissions put on the air
	TxReuses        int    // Tx allocs served from the pool
	TxRecycles      int    // Tx objects returned to the pool
	TxQuarantined   int    // Tx objects poisoned under CheckTxReuse
}

// sim owns one simulation run.
type sim struct {
	cfg    Config
	sched  *event.Scheduler
	medium *phy.Medium
	ap     *accessPoint
	sts    []*station
	tracer Tracer

	finished     int
	half         int
	halfTime     time.Duration
	halfCWSlots  int
	lastFinish   time.Duration
	cwSlotTicks  int
	lastTick     event.Time
	lastTickSet  bool
	backoffCount int // stations currently counting down

	// latencies collects per-packet queueing+service delays. Only the
	// continuous-traffic mode reads it, so only that mode sets
	// collectLatencies; batch runs used to append one unread entry per
	// packet, which at 10^5 stations was pure allocation waste.
	collectLatencies bool
	latencies        []time.Duration

	// allowSlotSkip arms the idle-slot fast-forward (trySkipSlots) in the
	// batch modes. Continuous runs leave it off: their pre-scheduled
	// arrival events would block the trigger anyway, and a skip could
	// otherwise carry timers past the RunUntil horizon.
	allowSlotSkip bool
	// elidedSlots counts slot-countdown events the fast-forward proved
	// equivalent to arithmetic and never fired; adding it to the fired
	// count gives an event count that is a pure function of the scenario.
	elidedSlots uint64
	// skipPhases is trySkipSlots's scratch buffer for armed expiry times.
	skipPhases []event.Time
}

// disableSlotSkip turns the fast-forward off for equivalence tests; the
// optimization's contract is that results are bit-identical either way.
var disableSlotSkip = false

// trySkipSlots is the idle-slot fast-forward: when the channel is idle and
// every armed event in the kernel is a backoff slot timer, the simulation
// is a pure countdown until the smallest counter reaches zero — no RNG
// draws, no channel activity, nothing to observe. Instead of firing
// min(counter)-1 rounds of per-station slot events one SlotTime at a time,
// advance the counters arithmetically and defer every armed timer by the
// skipped span. The final countdown slot still fires as a real event, so
// transmission commitment, same-instant collision semantics, and event
// ordering (a uniform DeferAll preserves both times-relative order and
// sequence numbers) are untouched: results are bit-identical, which the
// determinism goldens and TestSlotSkipEquivalence pin.
//
// This is what makes n ~ 10^5 batch populations feasible: early in a large
// batch almost all stations sit in long countdowns, and the per-slot event
// cost used to scale with n × window instead of with transmissions.
func (m *sim) trySkipSlots() {
	if !m.allowSlotSkip || m.backoffCount < 1 || m.medium.ActiveCount() != 0 {
		return
	}
	n := m.sched.PendingLen()
	if n != m.backoffCount {
		return // something other than slot timers is armed
	}
	now := m.sched.Now()
	minCounter := 0
	for at, arg := range m.sched.Pending() {
		st, ok := arg.(*station)
		if !ok || st.state != stateBackoff || st.counter < 1 || at <= now {
			// Not a countdown timer, or a timer still due at this very
			// instant (mid-boundary): wait for the state to settle.
			return
		}
		if minCounter == 0 || st.counter < minCounter {
			minCounter = st.counter
		}
	}
	skip := minCounter - 1
	if skip < 1 {
		return
	}

	// CWSlots accounting. The skipped countdown instants of station i are
	// t_i + k*SlotTime (k = 0..skip-1) where t_i is its armed expiry. All
	// armed expiries lie within one SlotTime of each other, so instants
	// from two stations coincide iff their expiries are equal — the union
	// the per-slot slotTick dedup would have counted is therefore
	// (distinct expiries) × skip, and none of it collides with the last
	// ticked instant (all lie strictly in the future) or with the
	// post-skip real ticks (strictly beyond the skipped span).
	phases := m.skipPhases[:0]
	for at := range m.sched.Pending() {
		phases = append(phases, at)
	}
	slices.Sort(phases)
	distinct := 0
	for i, t := range phases {
		if i == 0 || t != phases[i-1] {
			distinct++
		}
	}
	m.skipPhases = phases

	for _, arg := range m.sched.Pending() {
		st := arg.(*station)
		st.counter -= skip
		st.stats.BackoffSlots += skip
	}
	m.cwSlotTicks += distinct * skip
	m.elidedSlots += uint64(skip) * uint64(n)
	m.sched.DeferAll(time.Duration(skip) * m.cfg.SlotTime)
}

// slotTick counts one global contention-window slot boundary; simultaneous
// decrements by aligned stations collapse into one tick.
func (m *sim) slotTick(now event.Time) {
	if m.lastTickSet && now == m.lastTick {
		return
	}
	m.lastTick = now
	m.lastTickSet = true
	m.cwSlotTicks++
}

func (m *sim) backoffEnter() { m.backoffCount++ }

func (m *sim) backoffLeave() {
	m.backoffCount--
	if m.backoffCount < 0 {
		panic("mac: backoff accounting underflow")
	}
}

func (m *sim) packetDelivered(idx int, latency time.Duration, now event.Time) {
	m.finished++
	m.lastFinish = time.Duration(now)
	if m.collectLatencies {
		m.latencies = append(m.latencies, latency)
	}
	if m.finished == m.half {
		m.halfTime = time.Duration(now)
		m.halfCWSlots = m.cwSlotTicks
	}
}

// A simulation has one lifecycle, whichever driver runs it:
//
//  1. Build: newSim resolves the layout, derives the frame-loss seed, and
//     adds the AP and the n station nodes.
//  2. Arm: the driver sets up its workload — every station begins one
//     packet (RunBatch); probe rounds, then fixed-window contention
//     (RunBestOfK); or per-station arrival trains (RunContinuous).
//  3. Drive: batch-shaped runs drain the event queue (drain); continuous
//     runs stop at their horizon.
//  4. Collect: collect builds the Result.

// RunBatch simulates a single batch of n stations, all arriving at time
// zero, each sending one packet through DCF with a contention-window
// schedule from f. The tracer may be nil.
func RunBatch(cfg Config, n int, f backoff.Factory, g *rng.Source, tracer Tracer) Result {
	if n < 1 {
		panic("mac: RunBatch needs n >= 1")
	}
	m := newSim(cfg, n, f, g, tracer)
	m.allowSlotSkip = !disableSlotSkip
	for _, s := range m.sts {
		s.begin()
	}
	m.drain()
	return m.collect()
}

// newSim builds the medium, the AP, and n stations on cfg's layout (the
// paper's grid unless cfg.Layout is set). With a nil f the stations have no
// policy and their nodes no listener: the driver attaches both later.
func newSim(cfg Config, n int, f backoff.Factory, g *rng.Source, tracer Tracer) *sim {
	layout := phy.StationGrid
	if cfg.Layout != nil {
		layout = cfg.Layout
	}
	positions := layout(n)
	if cfg.Radio.FrameLossProb > 0 && cfg.Radio.LossSeed == 0 {
		cfg.Radio.LossSeed = g.Derive("frame-loss").Uint64()
	}
	sched := &event.Scheduler{}
	medium := phy.NewMedium(sched, cfg.Radio)
	m := &sim{
		cfg:    cfg,
		sched:  sched,
		medium: medium,
		tracer: tracer,
		half:   (n + 1) / 2,
	}
	m.ap = &accessPoint{sim: m}
	m.ap.node = medium.AddNode(phy.APPosition(), m.ap)
	m.sts = make([]*station, n)
	for i := range m.sts {
		st := &station{
			idx: i,
			sim: m,
			g:   g.DeriveIndexed("station-", i),
		}
		st.node = medium.AddNode(positions[i], nil)
		if f != nil {
			st.attach(f())
		}
		m.sts[i] = st
	}
	return m
}

// drain runs a batch-shaped simulation until its event queue is empty.
// Every station must have delivered its packet by then.
func (m *sim) drain() {
	n := len(m.sts)
	fired, drained := m.sched.Run(m.cfg.maxEvents())
	if !drained {
		panic(fmt.Sprintf("mac: event budget exhausted after %d events (n=%d)", fired, n))
	}
	if m.finished != n {
		panic(fmt.Sprintf("mac: only %d of %d stations finished", m.finished, n))
	}
}

func (m *sim) collect() Result {
	res := Result{
		TotalTime: m.lastFinish,
		HalfTime:  m.halfTime,
		CWSlots:   m.cwSlotTicks,
	}
	res.Kernel = m.kernelStats()
	res.CWSlotsAtHalf = m.halfCWSlots
	res.Collisions, res.CollisionAir = m.ap.disjointCollisions()
	res.Captures = m.ap.captures
	res.Stations = make([]StationStats, len(m.sts))
	for i, s := range m.sts {
		res.Stations[i] = s.stats
	}
	res.MaxAckTimeouts, res.MaxAckTimeoutWait = maxTimeoutStats(res.Stations)
	return res
}

// kernelStats snapshots the run's deterministic work profile from the
// scheduler and the medium.
func (m *sim) kernelStats() KernelStats {
	ks := m.sched.Stats()
	return KernelStats{
		EventsScheduled: ks.Scheduled,
		EventsFired:     ks.Fired,
		EventsCanceled:  ks.Canceled,
		EventsReused:    ks.Reused,
		MaxQueueLen:     ks.MaxQueueLen,
		IdleSlotsElided: m.elidedSlots,
		TxTotal:         m.medium.TotalTx,
		TxReuses:        m.medium.TxReuses,
		TxRecycles:      m.medium.TxRecycles,
		TxQuarantined:   m.medium.TxQuarantined,
	}
}

// maxTimeoutStats finds the station with the most ACK timeouts and returns
// its count and timeout wait (paper Figures 11 and 12). Ties on the count
// break toward the longer wait — Figure 12 plots the wait of the
// worst-off station, so among equally-collided stations the one that
// waited longest is the representative. The tie-break is explicit because
// the old "strictly more timeouts wins" rule silently kept the
// lowest-index station's wait, under-reporting ties with longer waits.
func maxTimeoutStats(stations []StationStats) (count int, wait time.Duration) {
	for _, s := range stations {
		if s.AckTimeouts > count ||
			(s.AckTimeouts == count && s.AckTimeoutWait > wait) {
			count = s.AckTimeouts
			wait = s.AckTimeoutWait
		}
	}
	return count, wait
}
