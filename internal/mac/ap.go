package mac

import (
	"cmp"
	"slices"
	"time"

	"repro/internal/event"
	"repro/internal/phy"
)

// accessPoint is the receiver: it acknowledges decoded data frames after a
// SIFS and answers RTS with CTS. Frames that fail to decode get no response;
// the sender discovers the collision only through its ACK timeout — the cost
// the abstract model's assumption A2 ignores.
type accessPoint struct {
	sim  *sim
	node *phy.Node

	// respPending prevents scheduling two overlapping responses; on the
	// paper's topology this never triggers, but it guards the invariant.
	// While set, respKind/respBytes/respDst describe the queued response —
	// stored here rather than captured in a per-response closure so the
	// SIFS timer schedules allocation-free.
	respPending bool
	respKind    FrameKind
	respBytes   int
	respDst     int

	// failed collects the intervals of access frames that did not decode,
	// for disjoint-collision counting by interval merge.
	failed []interval
	// captures counts frames decoded despite overlapping interference.
	captures int
}

type interval struct {
	start, end time.Duration
}

// ChannelBusy implements phy.Listener; the AP does not contend, so channel
// state transitions carry no action.
func (ap *accessPoint) ChannelBusy(event.Time) {}

// ChannelIdle implements phy.Listener.
func (ap *accessPoint) ChannelIdle(event.Time) {}

// TxDone implements phy.Listener; the AP's own ACK/CTS transmissions need
// no follow-up.
func (ap *accessPoint) TxDone(*phy.Tx, event.Time) {}

// FrameEnd implements phy.Listener.
func (ap *accessPoint) FrameEnd(tx *phy.Tx, ok bool, now event.Time) {
	f := FrameFromPayload(tx.Payload)
	if f.Dst != APIndex {
		return
	}
	if f.Kind == FrameDummy {
		return // size-estimation probes are sensed, never acknowledged
	}
	if !ok {
		ap.failed = append(ap.failed, interval{time.Duration(tx.Start), time.Duration(tx.End)})
		return
	}
	if tx.InterfererCount() > 0 {
		// Decoded despite overlap: the capture effect. Never happens on the
		// paper's grid (see phy.TestGridNoCapture); counted for ablations.
		ap.captures++
	}
	switch f.Kind {
	case FrameData:
		ap.respond(FrameAck, ap.sim.cfg.AckBytes, f.Src)
	case FrameRTS:
		ap.respond(FrameCTS, ap.sim.cfg.CTSBytes, f.Src)
	}
}

func (ap *accessPoint) respond(kind FrameKind, bytes, dst int) {
	if ap.respPending {
		// Two decodable frames cannot end inside one SIFS on this channel;
		// if the invariant breaks we drop the response (the sender will
		// time out and retry) rather than corrupt the medium state.
		return
	}
	ap.respPending = true
	ap.respKind, ap.respBytes, ap.respDst = kind, bytes, dst
	ap.sim.sched.ScheduleArg("sifsResp", ap.sim.cfg.SIFS, handleApResp, ap)
}

func handleApResp(now event.Time, arg any) { arg.(*accessPoint).onSifsResp(now) }

// onSifsResp puts the queued ACK/CTS on the air one SIFS after the frame
// that earned it.
func (ap *accessPoint) onSifsResp(event.Time) {
	ap.respPending = false
	tx := ap.sim.medium.Transmit(ap.node, ap.sim.cfg.ControlRate, ap.respBytes,
		Frame{Kind: ap.respKind, Src: APIndex, Dst: ap.respDst}.Payload())
	if ap.sim.tracer != nil {
		ap.sim.tracer.TxStart(APIndex, ap.respKind, time.Duration(tx.Start), time.Duration(tx.End))
	}
}

// disjointCollisions merges the failed-frame intervals into maximal
// overlapping groups: the paper's "disjoint collisions" C_A (Section III-B).
// It returns the number of groups and their aggregate (union) duration.
// It sorts ap.failed in place, which nothing reads afterwards; the count
// and the union do not depend on how equal starts are ordered.
func (ap *accessPoint) disjointCollisions() (count int, airtime time.Duration) {
	if len(ap.failed) == 0 {
		return 0, 0
	}
	slices.SortFunc(ap.failed, func(a, b interval) int { return cmp.Compare(a.start, b.start) })
	cur := ap.failed[0]
	for _, x := range ap.failed[1:] {
		if x.start < cur.end {
			if x.end > cur.end {
				cur.end = x.end
			}
			continue
		}
		count++
		airtime += cur.end - cur.start
		cur = x
	}
	count++
	airtime += cur.end - cur.start
	return count, airtime
}
