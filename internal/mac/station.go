package mac

import (
	"fmt"
	"time"

	"repro/internal/backoff"
	"repro/internal/event"
	"repro/internal/phy"
	"repro/internal/rng"
)

// stationState enumerates the DCF state machine.
type stationState int

const (
	stateIdle      stationState = iota // no packet queued (the zero value)
	stateDifsWait                      // difsTimer running
	stateBackoff                       // slotTimer running, counter > 0 pending decrement
	stateFrozen                        // channel busy, waiting for idle
	stateTx                            // own frame on the air
	stateAwaitResp                     // waiting for ACK (or CTS), respTimer running
	stateSifsWait                      // RTS/CTS: got CTS, SIFS before data
)

func (s stationState) String() string {
	switch s {
	case stateDifsWait:
		return "difs"
	case stateBackoff:
		return "backoff"
	case stateFrozen:
		return "frozen"
	case stateTx:
		return "tx"
	case stateAwaitResp:
		return "await"
	case stateSifsWait:
		return "sifs"
	case stateIdle:
		return "idle"
	default:
		return "?"
	}
}

// StationStats aggregates one station's counters over a run.
type StationStats struct {
	// Attempts counts channel-access attempts (data in basic mode, RTS in
	// RTS/CTS mode).
	Attempts int
	// AckTimeouts counts response timeouts: the station's inferred
	// collisions (paper Figure 11).
	AckTimeouts int
	// AckTimeoutWait is total time spent waiting out response timeouts
	// (paper Figure 12).
	AckTimeoutWait time.Duration
	// FinishTime is when the station's most recent ACK arrived; zero if it
	// never delivered a packet.
	FinishTime time.Duration
	// Delivered counts packets acknowledged (1 in single-batch runs).
	Delivered int
	// TxAirtime is the station's total on-air transmission time, the
	// dominant term of its energy budget.
	TxAirtime time.Duration
	// BackoffSlots counts the station's own backoff decrements.
	BackoffSlots int
	// InstantDetects counts collisions detected by transmission abort
	// (only in the phy.Config.AbortOverlapAfter regime).
	InstantDetects int
	// LargestWindow is the biggest contention window the station reached.
	LargestWindow int
}

// Package-level timer handlers: passing these to Scheduler.ScheduleArg
// with the station as payload costs zero allocations per event, where the
// old per-call method values (s.onDifsEnd etc.) allocated a closure for
// every DIFS wait, backoff slot, and response timeout — the dominant term
// of the simulator's allocation profile.
func handleDifsEnd(now event.Time, arg any)     { arg.(*station).onDifsEnd(now) }
func handleArrival(now event.Time, arg any)     { arg.(*station).arrive(now) }
func handleSlot(now event.Time, arg any)        { arg.(*station).onSlot(now) }
func handleRespTimeout(now event.Time, arg any) { arg.(*station).onRespTimeout(now) }
func handleSifsData(now event.Time, arg any)    { arg.(*station).onSifsData(now) }

// station is one contending sender.
type station struct {
	idx  int
	sim  *sim
	node *phy.Node
	pol  backoff.Policy
	g    *rng.Source

	state   stationState
	counter int // remaining backoff slots for the current attempt

	difsTimer *event.Event
	slotTimer *event.Event
	respTimer *event.Event

	awaitingCTS bool // RTS/CTS mode: true while the pending response is a CTS
	// useEIFS is set after hearing an undecodable frame (a collision) and
	// cleared by the next correctly received frame; while set, deferral
	// uses the extended inter-frame space (IEEE 802.11 EIFS rule).
	useEIFS bool

	// queue holds the arrival times of packets not yet delivered; the head
	// is the packet currently contending.
	queue []event.Time

	stats StationStats
}

// attach gives the station its backoff policy and connects it to its node's
// channel notifications. Until then the node can transmit but hears nothing
// (the best-of-k probe phase).
func (s *station) attach(pol backoff.Policy) {
	pol.Reset()
	s.pol = pol
	s.sim.medium.SetListener(s.node, s)
}

// begin queues the station's single batch packet at simulation time zero
// and starts contending.
func (s *station) begin() {
	s.queue = append(s.queue, 0)
	s.newAttempt()
}

// arrive enqueues a packet arriving now (continuous-traffic mode) and, if
// the station was idle, starts a fresh contention cycle for it.
func (s *station) arrive(now event.Time) {
	s.queue = append(s.queue, now)
	if s.state == stateIdle {
		s.pol.Reset()
		s.newAttempt()
	}
}

// completePacket finalizes delivery of the queue head and moves on to the
// next queued packet, if any, with a freshly reset window schedule (DCF
// resets the contention window after every successful transmission).
func (s *station) completePacket(now event.Time) {
	s.stats.FinishTime = time.Duration(now)
	s.stats.Delivered++
	arrival := s.queue[0]
	s.queue = s.queue[1:]
	if s.sim.tracer != nil {
		s.sim.tracer.Success(s.idx, time.Duration(now))
	}
	s.sim.packetDelivered(s.idx, time.Duration(now-arrival), now)
	if len(s.queue) > 0 {
		s.pol.Reset()
		s.newAttempt()
		return
	}
	s.state = stateIdle
}

// newAttempt draws the next contention window and backoff counter, then
// waits for a DIFS of idle channel before counting down.
func (s *station) newAttempt() {
	w := s.pol.NextWindow()
	if w < s.sim.cfg.CWMin {
		w = s.sim.cfg.CWMin
	}
	if w > s.sim.cfg.CWMax {
		w = s.sim.cfg.CWMax
	}
	if w > s.stats.LargestWindow {
		s.stats.LargestWindow = w
	}
	s.counter = s.g.Intn(w)
	if s.node.Busy() {
		s.state = stateFrozen
		return
	}
	s.startDIFS()
}

func (s *station) startDIFS() {
	s.state = stateDifsWait
	defer1 := s.sim.cfg.DIFS
	if s.useEIFS && s.sim.cfg.EIFS > defer1 {
		defer1 = s.sim.cfg.EIFS
	}
	s.difsTimer = s.sim.sched.ScheduleArg("difs", defer1, handleDifsEnd, s)
}

func (s *station) onDifsEnd(now event.Time) {
	s.difsTimer = nil
	if s.counter == 0 {
		// Committed at the DIFS boundary: transmit even if another station
		// started at this same instant (that is how same-slot collisions
		// happen).
		s.transmitAccess(now)
		return
	}
	if s.node.Busy() {
		// A frame began exactly at the DIFS boundary; the first backoff
		// slot is voided.
		s.state = stateFrozen
		return
	}
	s.state = stateBackoff
	s.sim.backoffEnter()
	s.scheduleSlot()
}

func (s *station) scheduleSlot() {
	s.slotTimer = s.sim.sched.ScheduleArg("slot", s.sim.cfg.SlotTime, handleSlot, s)
	// Arming a slot timer is the one transition that can complete an
	// "every armed event is a backoff countdown" state — the idle-slot
	// fast-forward's trigger (run.go).
	s.sim.trySkipSlots()
}

func (s *station) onSlot(now event.Time) {
	s.slotTimer = nil
	s.counter--
	s.stats.BackoffSlots++
	s.sim.slotTick(now)
	if s.counter == 0 {
		s.sim.backoffLeave()
		s.transmitAccess(now)
		return
	}
	if s.node.Busy() {
		// A transmission began exactly at this slot boundary (processed
		// earlier in the event round): freeze with the decremented counter.
		s.sim.backoffLeave()
		s.state = stateFrozen
		return
	}
	s.scheduleSlot()
}

// transmitAccess sends the channel-access frame: data in basic mode, RTS in
// RTS/CTS mode.
func (s *station) transmitAccess(now event.Time) {
	s.stats.Attempts++
	if s.sim.cfg.RTSCTS {
		s.transmitFrame(now, FrameRTS)
	} else {
		s.transmitFrame(now, FrameData)
	}
}

func (s *station) transmitFrame(now event.Time, kind FrameKind) {
	s.state = stateTx
	cfg := s.sim.cfg
	var rate phy.Rate
	var bytes int
	switch kind {
	case FrameData:
		rate, bytes = cfg.DataRate, cfg.PacketBytes()
	case FrameRTS:
		rate, bytes = cfg.ControlRate, cfg.RTSBytes
	default:
		panic(fmt.Sprintf("mac: station transmitting %v", kind))
	}
	tx := s.sim.medium.Transmit(s.node, rate, bytes, Frame{Kind: kind, Src: s.idx, Dst: APIndex}.Payload())
	if s.sim.tracer != nil {
		s.sim.tracer.TxStart(s.idx, kind, time.Duration(tx.Start), time.Duration(tx.End))
	}
	s.awaitingCTS = kind == FrameRTS
}

// TxDone implements phy.Listener: our own transmission finished (possibly
// truncated by instant collision detection).
func (s *station) TxDone(tx *phy.Tx, now event.Time) {
	s.stats.TxAirtime += tx.Duration()
	if tx.Aborted() {
		// Multi-antenna regime (Section V-B): the collision is known the
		// moment it is detected — no ACK timeout, immediate re-contention.
		s.stats.InstantDetects++
		if s.sim.tracer != nil {
			s.sim.tracer.AckTimeout(s.idx, time.Duration(now))
		}
		s.newAttempt()
		return
	}
	s.state = stateAwaitResp
	s.respTimer = s.sim.sched.ScheduleArg("respTimeout", s.sim.cfg.AckTimeout, handleRespTimeout, s)
}

// onRespTimeout fires when no ACK (or CTS) arrived in time: the station
// concludes a collision occurred — the costly path at the heart of the
// paper.
func (s *station) onRespTimeout(now event.Time) {
	s.respTimer = nil
	s.stats.AckTimeouts++
	s.stats.AckTimeoutWait += s.sim.cfg.AckTimeout
	if s.sim.tracer != nil {
		s.sim.tracer.AckTimeout(s.idx, time.Duration(now))
	}
	s.newAttempt()
}

// ChannelBusy implements phy.Listener.
func (s *station) ChannelBusy(now event.Time) {
	switch s.state {
	case stateDifsWait:
		if s.difsTimer != nil && s.sim.sched.Time(s.difsTimer) == now {
			// DIFS expires at this very instant; the station already
			// committed. Let the timer fire (it may transmit into the new
			// frame — a collision — or void its first slot).
			return
		}
		s.sim.sched.Cancel(s.difsTimer)
		s.difsTimer = nil
		s.state = stateFrozen
	case stateBackoff:
		if s.slotTimer != nil && s.sim.sched.Time(s.slotTimer) == now {
			// The pending decrement is due at this very instant and the
			// station committed to it at the previous boundary; let it
			// fire (it may transmit into the new frame — a collision).
			return
		}
		s.sim.sched.Cancel(s.slotTimer)
		s.slotTimer = nil
		s.sim.backoffLeave()
		s.state = stateFrozen
	}
}

// ChannelIdle implements phy.Listener.
func (s *station) ChannelIdle(now event.Time) {
	if s.state == stateFrozen {
		s.startDIFS()
	}
}

// FrameEnd implements phy.Listener: the EIFS rule for every heard frame,
// then reception of frames addressed to us.
func (s *station) FrameEnd(tx *phy.Tx, ok bool, now event.Time) {
	// 802.11 EIFS rule: an undecodable frame (for a contender, almost
	// always a collision) forces extended deferral until a frame is next
	// received correctly.
	s.useEIFS = !ok
	if !ok {
		return
	}
	f := FrameFromPayload(tx.Payload)
	if f.Dst != s.idx {
		return
	}
	switch f.Kind {
	case FrameAck:
		if s.state != stateAwaitResp || s.awaitingCTS {
			return // stale ACK; cannot happen on an ideal channel
		}
		s.sim.sched.Cancel(s.respTimer)
		s.respTimer = nil
		s.completePacket(now)
	case FrameCTS:
		if s.state != stateAwaitResp || !s.awaitingCTS {
			return
		}
		s.sim.sched.Cancel(s.respTimer)
		s.respTimer = nil
		s.state = stateSifsWait
		s.sim.sched.ScheduleArg("sifsData", s.sim.cfg.SIFS, handleSifsData, s)
	}
}

// onSifsData fires a SIFS after a received CTS: the data frame follows.
func (s *station) onSifsData(now event.Time) {
	s.transmitFrame(now, FrameData)
}
