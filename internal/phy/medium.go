package phy

import (
	"fmt"
	"time"

	"repro/internal/event"
	"repro/internal/rng"
)

// Listener receives channel notifications for one node. All callbacks run on
// the simulation goroutine.
type Listener interface {
	// ChannelBusy fires when the energy sensed at the node rises above the
	// carrier-sense threshold (0 -> >=1 transmissions heard).
	ChannelBusy(now event.Time)
	// ChannelIdle fires when the last heard transmission ends.
	ChannelIdle(now event.Time)
	// FrameEnd fires at the end of every transmission this node can hear —
	// received power at or above the carrier-sense threshold; src excluded.
	// ok reports whether the frame decoded at this node: received power
	// above the noise-limited threshold and SINR at or above the rate's
	// minimum for the frame's entire duration. The tx handle is valid only
	// until the callback returns (see the Tx lifetime contract).
	FrameEnd(tx *Tx, ok bool, now event.Time)
	// TxDone fires on the transmitting node when its own transmission ends,
	// at the frame's natural end or earlier if it was aborted (see
	// Config.AbortOverlapAfter). The same lifetime contract as FrameEnd
	// applies to the tx handle.
	TxDone(tx *Tx, now event.Time)
}

// Config holds the radio parameters shared by all nodes.
type Config struct {
	TxPower     DBm           // transmit power for every node
	NoiseFloor  DBm           // thermal noise + receiver noise figure
	CSThreshold DBm           // energy-detection carrier-sense threshold
	PathLoss    PathLossModel // propagation model

	// AbortOverlapAfter, when positive, truncates every transmission
	// involved in an overlap to that long after the overlap begins —
	// emulating the multi-antenna / MIMO instant collision detection the
	// paper's Section V-B identifies as the regime where the abstract
	// model's assumption A2 becomes valid. Zero (the default) disables it:
	// ordinary radios transmit their whole frame into a collision.
	AbortOverlapAfter time.Duration

	// FrameLossProb randomly fails reception of otherwise-decodable frames
	// with this probability, independently per (frame, receiver) —
	// fading/noise effects beyond the SINR model. The paper notes that a
	// sender cannot tell such a loss from a collision ("the sending station
	// still diagnoses that a collision has occurred"); this knob exercises
	// that path. Zero disables it.
	FrameLossProb float64
	// LossSeed seeds the loss process when FrameLossProb > 0.
	LossSeed uint64
}

// DefaultConfig mirrors the paper's NS3 defaults: 16.0206 dBm transmit
// power, a -94 dBm noise floor (-174 dBm/Hz thermal + 73 dB for 20 MHz +
// 7 dB noise figure), a -92 dBm energy-detection threshold, and log-distance
// path loss with NS3's default parameters.
func DefaultConfig() Config {
	return Config{
		TxPower:     16.0206,
		NoiseFloor:  -94,
		CSThreshold: -92,
		PathLoss:    NewLogDistance(),
	}
}

// Payload is the typed MAC-level content of a transmission. The PHY carries
// it opaquely: Kind is a MAC-defined frame-kind code, Src and Dst are
// MAC-level addresses (not phy.Node IDs). Being a small value struct rather
// than the old `Data any` field, it copies into and out of a pooled Tx as
// three machine words — no interface boxing, no per-frame heap allocation.
type Payload struct {
	Kind     int
	Src, Dst int
}

// Tx is one transmission on the medium.
//
// # Lifetime contract
//
// A Tx is owned by its Medium, which recycles transmissions per busy
// period (a stretch between two instants when nothing is on the air): when
// the period's last frame ends and its callbacks return, all of its Txs go
// back to the pool at once. Overlapping frames share a busy period, so a
// frame's interferers stay intact until it ends. A handle is valid until
// its frame's final FrameEnd / TxDone callback returns; no code holds one
// longer. Using a stale handle panics on every method while the object is
// pooled; Medium.CheckTxReuse makes the panic deterministic (recycled
// objects are quarantined, never reused) at one allocation per frame.
type Tx struct {
	Src     *Node
	Rate    Rate
	Start   event.Time
	End     event.Time
	Payload Payload // typed MAC frame content

	m           *Medium
	released    bool // true while the object sits in the pool (or quarantine)
	activeIdx   int  // index in m.active while on the air, -1 otherwise
	interferers []*Tx
	endEv       *event.Event
	aborted     bool
}

// checkLive panics when the handle outlived its busy period. It catches
// stale handles while the object is pooled; under Medium.CheckTxReuse
// recycled objects are never reused, so every use after recycling is
// caught.
func (t *Tx) checkLive(op string) {
	if t.released {
		panic(fmt.Sprintf("phy: Tx.%s on a released Tx (a handle is valid only until FrameEnd/TxDone returns)", op))
	}
}

// Aborted reports whether the transmission was cut short by overlap
// detection (Config.AbortOverlapAfter).
func (t *Tx) Aborted() bool { t.checkLive("Aborted"); return t.aborted }

// Duration returns the on-air duration of the transmission.
func (t *Tx) Duration() time.Duration {
	t.checkLive("Duration")
	return time.Duration(t.End - t.Start)
}

// InterfererCount returns how many other transmissions overlapped this one.
func (t *Tx) InterfererCount() int { t.checkLive("InterfererCount"); return len(t.interferers) }

// Node is a radio attached to the medium.
type Node struct {
	ID  int
	Pos Position

	listener  Listener
	busyCount int // transmissions currently heard
	sending   bool
}

// Busy reports whether the node currently senses energy above the
// carrier-sense threshold from some other node's transmission.
func (n *Node) Busy() bool { return n.busyCount > 0 }

// Medium is the shared wireless channel: it tracks concurrent transmissions,
// drives carrier-sense notifications, and decides frame reception by SINR.
type Medium struct {
	cfg    Config
	sched  *event.Scheduler
	nodes  []*Node
	active []*Tx

	// CheckTxReuse, set before the first Transmit, turns the Tx pool into
	// a use-after-recycle detector: at the end of each busy period its
	// objects are poisoned and quarantined instead of reused, so any
	// stale handle panics (via the method checks) or reads absurd values
	// (fields) deterministically. It costs one allocation per
	// transmission and exists for tests and debugging; it deliberately
	// lives here and not in Config, which is part of the scenario
	// fingerprint surface — a debug knob must not change result addresses.
	CheckTxReuse bool

	// rxMw[i][j] caches the linear received power (mW) at node j for a
	// transmission from node i, folding the constant transmit power into
	// the path-loss gain. Reception decisions run once per (frame,
	// receiver) and interference sweeps once per (frame, receiver,
	// interferer), so the dBm-to-mW conversions here must not be
	// recomputed per call — math.Pow was >80% of the simulator's CPU
	// profile before this matrix and the threshold caches below. Rows
	// share one flat backing array: one allocation instead of n.
	rxMw [][]float64

	// aud[i] lists the nodes that can hear node i — received power at or
	// above the carrier-sense threshold — in node-ID order, precomputed
	// with the gain matrix. Carrier-sense edges and FrameEnd delivery
	// iterate these sets instead of all n nodes, which is what keeps
	// per-transmission work proportional to the audible population in
	// large, sparse topologies. Rows share one flat backing array.
	aud [][]*Node

	// csMw and noiseMw cache the carrier-sense and noise-floor thresholds
	// in linear milliwatts (cfg is immutable after NewMedium).
	csMw, noiseMw float64

	// lossRand drives random frame loss (nil when FrameLossProb == 0).
	lossRand *rng.Source

	// txs is the Tx pool: txs[:inUse] are the current busy period's
	// transmissions and txs[inUse:] are free, their interferers capacity
	// intact, so a steady-state transmission allocates nothing. Confined,
	// like the whole Medium, to the single simulation goroutine.
	txs   []*Tx
	inUse int

	// instSrc, instEnd and verdicts are scratch buffers reused across
	// endTx calls, so a frame end allocates nothing in steady state. Safe
	// because a simulation is single-goroutine and nothing re-enters endTx
	// (listener callbacks only schedule; they never end a transmission
	// inline). instSrc holds the ending frame's interference instants
	// back to back, each as the source IDs active then in tx.interferers
	// order; instEnd[k] is where instant k ends in instSrc (see
	// buildInstants). verdicts[i] is the decode verdict of the frame's
	// i-th audible node.
	instSrc  []int32
	instEnd  []int32
	verdicts []bool

	// Stats. All are deterministic work counters — pure functions of the
	// event sequence — and live on the Medium, not the Config, so they
	// stay outside the fingerprint surface.
	TotalTx int

	// Tx pool counters: allocations served from the pool vs cold, objects
	// returned for reuse at the end of a busy period, and objects
	// poisoned there under CheckTxReuse.
	TxReuses      int
	TxRecycles    int
	TxQuarantined int
}

// handleTxEnd fires at a transmission's (possibly truncated) end; the Tx
// payload carries everything the medium needs, so scheduling it allocates
// nothing per event.
func handleTxEnd(now event.Time, arg any) {
	tx := arg.(*Tx)
	tx.m.endTx(tx, now)
}

// NewMedium creates a medium using the given scheduler and radio config.
func NewMedium(sched *event.Scheduler, cfg Config) *Medium {
	if cfg.PathLoss == nil {
		cfg.PathLoss = NewLogDistance()
	}
	m := &Medium{
		cfg:     cfg,
		sched:   sched,
		csMw:    cfg.CSThreshold.MilliWatt(),
		noiseMw: cfg.NoiseFloor.MilliWatt(),
	}
	if cfg.FrameLossProb > 0 {
		m.lossRand = rng.New(cfg.LossSeed)
	}
	return m
}

// AddNode attaches a radio at pos with the given listener and returns it.
// All nodes must be added before the first transmission.
func (m *Medium) AddNode(pos Position, l Listener) *Node {
	n := &Node{ID: len(m.nodes), Pos: pos, listener: l}
	m.nodes = append(m.nodes, n)
	m.rxMw = nil // invalidate gain and audible-set caches
	m.aud = nil
	return n
}

// SetListener replaces the listener of a node (used when MAC entities are
// constructed after their radios).
func (m *Medium) SetListener(n *Node, l Listener) { n.listener = l }

// buildGains fills the received-power matrix and the per-source audible
// sets. Positions and config are immutable once transmissions start, so
// both are exact for the whole run.
//
// The matrix is symmetric bit for bit: DistanceTo is math.Hypot of the
// coordinate deltas, which takes their absolute values first, and a
// PathLossModel sees only the distance. So each link's gain is computed
// once, below the diagonal, and mirrored (TestRxPowerSymmetric compares
// every entry with the one-way expression). The diagonal stays 0.
func (m *Medium) buildGains() {
	k := len(m.nodes)
	txMw := m.cfg.TxPower.MilliWatt()
	flat := make([]float64, k*k)
	m.rxMw = make([][]float64, k)
	for i := range m.rxMw {
		m.rxMw[i] = flat[i*k : (i+1)*k : (i+1)*k]
		for j := 0; j < i; j++ {
			g := LinkGainMw(txMw, m.cfg.PathLoss, m.nodes[i].Pos, m.nodes[j].Pos)
			flat[i*k+j] = g
			flat[j*k+i] = g
		}
	}
	// Audible sets, in node-ID order (which keeps callback order identical
	// to the old all-nodes scans). One flat slice, re-sliced into rows,
	// gives n rows for O(1) allocations; a counting pass with the same
	// test sizes it exactly, so it is allocated once instead of grown.
	audible := 0
	for _, g := range flat {
		if g >= m.csMw {
			audible++
		}
	}
	offsets := make([]int, k+1)
	audFlat := make([]*Node, 0, audible)
	for i := 0; i < k; i++ {
		row := m.rxMw[i]
		for j := 0; j < k; j++ {
			if row[j] >= m.csMw {
				audFlat = append(audFlat, m.nodes[j])
			}
		}
		offsets[i+1] = len(audFlat)
	}
	m.aud = make([][]*Node, k)
	for i := range m.aud {
		m.aud[i] = audFlat[offsets[i]:offsets[i+1]:offsets[i+1]]
	}
	// Size endTx's scratch once the node count is known, so a cell's
	// first frames do not regrow it append by append: a frame has at most
	// k-1 audible nodes, and a frame that overlaps 7 others has at most 8
	// instants of 7 sources each.
	m.verdicts = make([]bool, 0, k)
	m.instSrc = make([]int32, 0, 64)
	m.instEnd = make([]int32, 0, 8)
}

// audibleFrom returns the nodes that can carrier-sense a transmission from
// src, excluding src itself, in node-ID order.
func (m *Medium) audibleFrom(src *Node) []*Node {
	if m.aud == nil {
		m.buildGains()
	}
	return m.aud[src.ID]
}

// allocTx draws a recycled Tx from the pool (or the heap allocator on a
// cold start). The recycled object keeps its interferers capacity, so the
// mutual-interference bookkeeping in Transmit does not reallocate either.
func (m *Medium) allocTx() *Tx {
	if m.inUse == len(m.txs) {
		// Cold path: pre-size interferers so warm-up transmissions don't
		// each pay a grow-append. A frame can overlap every other node's:
		// each paper algorithm's first slot puts the whole batch on the air.
		m.txs = append(m.txs, &Tx{m: m, activeIdx: -1, interferers: make([]*Tx, 0, max(8, len(m.nodes)-1))})
	} else {
		m.TxReuses++
	}
	tx := m.txs[m.inUse]
	m.inUse++
	tx.released = false
	return tx
}

// recycle ends a busy period: it clears every Tx the period used and
// returns them all to the pool. Under CheckTxReuse it poisons them and
// drops them from the pool instead, so a stale handle fails loudly.
func (m *Medium) recycle() {
	for _, t := range m.txs[:m.inUse] {
		*t = Tx{m: m, released: true, activeIdx: -1, interferers: t.interferers[:0]}
		if m.CheckTxReuse {
			t.Start, t.End = -1, -1
		}
	}
	if m.CheckTxReuse {
		m.TxQuarantined += m.inUse
		clear(m.txs) // nothing was reused, so the whole pool is this period's
		m.txs = m.txs[:0]
	} else {
		m.TxRecycles += m.inUse
	}
	m.inUse = 0
}

// Transmit puts a frame of length bytes at the given rate on the air from
// src, starting now. The returned Tx ends automatically; listeners get
// FrameEnd callbacks then. The handle is medium-owned (see the Tx lifetime
// contract) and valid only until the frame's callbacks return. A node
// cannot transmit twice concurrently.
func (m *Medium) Transmit(src *Node, rate Rate, bytes int, p Payload) *Tx {
	if src.sending {
		panic(fmt.Sprintf("phy: node %d already transmitting at t=%v", src.ID, m.sched.Now()))
	}
	dur := FrameDuration(rate, bytes)
	now := m.sched.Now()
	tx := m.allocTx()
	tx.Src, tx.Rate = src, rate
	tx.Start, tx.End = now, now+dur
	tx.Payload = p

	// Record mutual interference with everything already on the air. A
	// transmission's reception verdicts read its interferers' fields at
	// its own end; they share its busy period, so none is recycled before
	// then.
	for _, other := range m.active {
		other.interferers = append(other.interferers, tx)
		tx.interferers = append(tx.interferers, other)
	}
	tx.activeIdx = len(m.active)
	m.active = append(m.active, tx)
	m.TotalTx++
	src.sending = true

	// Carrier-sense rising edges at every node that can hear the source.
	for _, n := range m.audibleFrom(src) {
		n.busyCount++
		if n.busyCount == 1 && n.listener != nil {
			n.listener.ChannelBusy(now)
		}
	}

	tx.endEv = m.sched.ScheduleArg("phy.txEnd", dur, handleTxEnd, tx)

	// Instant collision detection (ablation / Section V-B multi-antenna
	// regime): everything involved in the overlap stops shortly after the
	// overlap begins.
	if m.cfg.AbortOverlapAfter > 0 && len(tx.interferers) > 0 {
		cutoff := now + event.Time(m.cfg.AbortOverlapAfter)
		m.truncate(tx, cutoff)
		for _, other := range tx.interferers {
			m.truncate(other, cutoff)
		}
	}
	return tx
}

// truncate cuts a transmission short at the given instant (no-op if it
// already ends sooner) and marks it aborted.
func (m *Medium) truncate(tx *Tx, at event.Time) {
	if at >= tx.End {
		return
	}
	m.sched.Cancel(tx.endEv)
	tx.End = at
	tx.aborted = true
	tx.endEv = m.sched.ScheduleArg("phy.txAbort", at-m.sched.Now(), handleTxEnd, tx)
}

func (m *Medium) endTx(tx *Tx, now event.Time) {
	// Swap-remove from the active set: O(1) where the old linear scan plus
	// element shift made a frame end O(active) — quadratic in peak overlap
	// across an overlap episode. Active-set order is not observable (only
	// membership is: interference is recorded pairwise at Transmit), so
	// the swap is free to reorder.
	last := len(m.active) - 1
	if i := tx.activeIdx; i != last {
		m.active[i] = m.active[last]
		m.active[i].activeIdx = i
	}
	m.active[last] = nil
	m.active = m.active[:last]
	tx.activeIdx = -1
	tx.Src.sending = false
	tx.endEv = nil // fired: the kernel recycles it, drop the stale handle

	// Deliver reception verdicts before idle notifications so that MAC
	// reactions to the frame (e.g. scheduling a SIFS) observe a consistent
	// pre-idle state, then drop carrier sense. Only nodes that can hear
	// the source are visited; a node below the carrier-sense threshold
	// never detected the frame at all, so it gets no FrameEnd. Every
	// verdict is decided before the first callback runs, from instants
	// built once for the frame.
	audible := m.audibleFrom(tx.Src)
	m.buildInstants(tx)
	verdicts := m.verdicts[:0]
	for _, n := range audible {
		verdicts = append(verdicts, n.listener != nil && m.decodes(tx, n))
	}
	m.verdicts = verdicts
	for i, n := range audible {
		if n.listener != nil {
			n.listener.FrameEnd(tx, verdicts[i], now)
		}
	}
	if tx.Src.listener != nil {
		tx.Src.listener.TxDone(tx, now)
	}
	for _, n := range audible {
		n.busyCount--
		if n.busyCount == 0 && n.listener != nil {
			n.listener.ChannelIdle(now)
		}
	}

	// All callbacks have returned. With nothing left on the air the busy
	// period is over and none of its Txs is read again (a callback that
	// transmitted inline would have kept the active set non-empty).
	if len(m.active) == 0 {
		m.recycle()
	}
}

// buildInstants fills instSrc and instEnd with the interference at every
// instant where it can peak inside tx: tx.Start and each interferer start
// inside (tx.Start, tx.End). Interference only rises at an interferer
// start, so these instants cover the frame's worst case. An aborted frame
// fails everywhere without reading them, so its lists stay empty.
func (m *Medium) buildInstants(tx *Tx) {
	m.instSrc, m.instEnd = m.instSrc[:0], m.instEnd[:0]
	if tx.aborted {
		return
	}
	m.addInstant(tx, tx.Start)
	for _, itx := range tx.interferers {
		if itx.Start > tx.Start && itx.Start < tx.End {
			m.addInstant(tx, itx.Start)
		}
	}
}

// addInstant appends one instant's list: the sources of tx's interferers
// on the air at that instant, in tx.interferers order.
func (m *Medium) addInstant(tx *Tx, at event.Time) {
	for _, itx := range tx.interferers {
		if itx.Start <= at && at < itx.End {
			m.instSrc = append(m.instSrc, int32(itx.Src.ID))
		}
	}
	m.instEnd = append(m.instEnd, int32(len(m.instSrc)))
}

// decodes reports whether tx decodes successfully at node n: the received
// power clears the noise-limited SINR threshold, the concurrent
// interference keeps SINR at or above the rate's minimum at every instant
// of buildInstants, the node was not itself transmitting for any part of
// the frame, and no random loss strikes.
//
// Each instant's interference is summed in list order and SINR is tested
// after every term. That gives the verdict of "take the worst instant's
// full sum, then test once" exactly, for three reasons:
//
//  1. Every gain is finite and >= 0 (Validate rejects the radio settings
//     and layouts that are not), and rxMw[n][n] is 0, so n's own term in
//     a list adds nothing. The half-duplex check therefore need not
//     filter the lists, and it can run after them.
//  2. Rounded addition of non-negative terms never decreases, so a
//     partial sum that fails SINR means its whole instant fails, and the
//     worst instant fails if and only if some instant does.
//  3. Every check before the lossRand draw returns false without side
//     effects, so their order changes neither which frames draw nor how
//     many draws there are.
//
// The gain matrix is symmetric, so n's own row gives the power of every
// source at n in one cache-friendly read.
func (m *Medium) decodes(tx *Tx, n *Node) bool {
	if tx.aborted {
		return false
	}
	row := m.rxMw[n.ID]
	sigMw := row[tx.Src.ID]
	noiseMw := m.noiseMw
	need := tx.Rate.MinSINRRatio()
	if sigMw/noiseMw < need {
		return false
	}
	var start int32
	for _, end := range m.instEnd {
		var sum float64
		for _, src := range m.instSrc[start:end] {
			sum += row[src]
			if sigMw/(noiseMw+sum) < need {
				return false
			}
		}
		start = end
	}
	// A half-duplex radio that transmitted during any part of the frame
	// cannot have received it.
	for _, itx := range tx.interferers {
		if itx.Src == n {
			return false
		}
	}
	if m.lossRand != nil && m.lossRand.Float64() < m.cfg.FrameLossProb {
		return false
	}
	return true
}

// ActiveCount returns the number of transmissions currently on the air.
func (m *Medium) ActiveCount() int { return len(m.active) }
