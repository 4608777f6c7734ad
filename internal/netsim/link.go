package netsim

import (
	"fmt"

	"eac/internal/obs"
	"eac/internal/sim"
)

// LinkStats aggregates per-link packet counters since the last Reset.
// Data and probe traffic are tracked separately so that the utilization
// figures exclude probe packets, as in the paper.
//
// Marked counts packets that the shadow queue marked AND that the real
// discipline then accepted: a packet marked but dropped on the same
// arrival counts only in Dropped (and emits only a drop trace event), so
// Marked+Dropped never double-counts an arrival and marking fractions
// condition on packets that actually transit.
type LinkStats struct {
	Arrived   [2]int64 // indexed by Kind
	Dropped   [2]int64
	Marked    [2]int64
	SentBits  [2]int64 // bits put on the wire
	SentPkts  [2]int64
	ResetTime sim.Time
}

// Reset clears the counters and records the new measurement epoch.
func (ls *LinkStats) Reset(now sim.Time) {
	*ls = LinkStats{ResetTime: now}
}

// Utilization returns the fraction of the link's capacity used by data
// packets between the last Reset and now.
func (ls *LinkStats) Utilization(now sim.Time, rateBps float64) float64 {
	dt := (now - ls.ResetTime).Sec()
	if dt <= 0 {
		return 0
	}
	return float64(ls.SentBits[Data]) / (rateBps * dt)
}

// DataLossProb returns the fraction of arriving data packets dropped since
// the last Reset.
func (ls *LinkStats) DataLossProb() float64 {
	if ls.Arrived[Data] == 0 {
		return 0
	}
	return float64(ls.Dropped[Data]) / float64(ls.Arrived[Data])
}

// inflight is a packet propagating across a link.
type inflight struct {
	at sim.Time
	p  *Packet
}

// Link serializes packets at a fixed rate through a queue discipline and
// delivers them to the packet's next hop after a fixed propagation delay.
// Per Section 3.2 the rate is the bandwidth allocated to the
// admission-controlled class, not necessarily the raw wire speed.
type Link struct {
	Name    string
	RateBps float64
	Delay   sim.Time
	Q       Discipline
	Marker  *VirtualQueue    // optional ECN shadow queue
	Bg      *FluidBackground // optional hybrid-engine fluid background

	// VQDropProbes selects the paper's footnote-14 "virtual dropping"
	// behaviour: when the shadow queue would mark a probe packet, the
	// router drops it instead (no ECN bits needed). Data packets are
	// still marked, never virtually dropped.
	VQDropProbes bool

	// OnDrop, if set, observes every dropped packet; the callback owns the
	// packet (typically returning it to a pool). If nil, drops are
	// discarded and left to the garbage collector.
	OnDrop func(now sim.Time, p *Packet)

	// OnArrive, if set, observes every packet arriving at the queue,
	// before any marking or drop decision. Measurement-based admission
	// control uses it as its load tap.
	OnArrive func(now sim.Time, p *Packet)

	// Tap, if set, streams packet-level telemetry (enqueue, dequeue,
	// drop, mark) into the observability layer's event trace. Nil — the
	// default — costs one pointer check per event.
	Tap *obs.LinkTap

	Stats LinkStats

	s        *sim.Sim
	busy     bool
	nsPerBit float64 // float64(sim.Second) / RateBps, precomputed
	txPkt    *Packet
	txDone   *sim.Event
	pipe     []inflight // power-of-two ring buffer, mask-indexed
	pipeHd   int
	pipeN    int
	pipeEv   *sim.Event
}

// NewLink builds a link. The queue discipline q must be non-nil.
func NewLink(s *sim.Sim, name string, rateBps float64, delay sim.Time, q Discipline) *Link {
	if rateBps <= 0 {
		panic("netsim: NewLink requires positive rate")
	}
	if q == nil {
		panic("netsim: NewLink requires a queue discipline")
	}
	l := &Link{Name: name, RateBps: rateBps, Delay: delay, Q: q, s: s,
		nsPerBit: float64(sim.Second) / rateBps}
	l.txDone = sim.NewEvent(l.onTxDone)
	l.pipeEv = sim.NewEvent(l.onDeliver)
	return l
}

func (l *Link) String() string { return fmt.Sprintf("link(%s)", l.Name) }

// Reset returns the link to its just-constructed idle state for a new run
// on a Reset simulator, retaining the pipe ring's backing array (and the
// discipline's, which keeps its own arrays but is emptied). Packets still
// queued, in transmission, or propagating are handed to recycle (nil
// discards them to the garbage collector). The hooks — Marker, Bg,
// VQDropProbes, OnDrop, OnArrive, Tap — are cleared; the owner reattaches
// whatever the new run needs. Callers that change the buffer capacity or
// the discipline kind assign l.Q (or call PriorityPushout.SetCap) after
// Reset returns. Must only be used together with Sim.Reset: the link's
// internal events are Forgotten, which is valid only because the old
// heap was wiped.
func (l *Link) Reset(rateBps float64, delay sim.Time, recycle func(*Packet)) {
	if rateBps <= 0 {
		panic("netsim: Link.Reset requires positive rate")
	}
	if l.txPkt != nil {
		if recycle != nil {
			recycle(l.txPkt)
		}
		l.txPkt = nil
	}
	for p := l.Q.Dequeue(); p != nil; p = l.Q.Dequeue() {
		if recycle != nil {
			recycle(p)
		}
	}
	for l.pipeN > 0 {
		f := l.pipe[l.pipeHd]
		l.pipe[l.pipeHd] = inflight{}
		l.pipeHd = (l.pipeHd + 1) & (len(l.pipe) - 1)
		l.pipeN--
		if recycle != nil {
			recycle(f.p)
		}
	}
	l.pipeHd = 0
	l.RateBps = rateBps
	l.Delay = delay
	l.nsPerBit = float64(sim.Second) / rateBps
	l.busy = false
	l.Stats = LinkStats{}
	l.Marker = nil
	l.Bg = nil
	l.VQDropProbes = false
	l.OnDrop, l.OnArrive, l.Tap = nil, nil, nil
	l.txDone.Forget()
	l.pipeEv.Forget()
}

// Receive implements Receiver: the packet arrives at this link's queue.
// The telemetry dispatch happens once here: the untraced path (Tap == nil,
// the default) runs with no per-branch tap checks at all.
func (l *Link) Receive(now sim.Time, p *Packet) {
	l.Stats.Arrived[p.Kind]++
	if l.OnArrive != nil {
		l.OnArrive(now, p)
	}
	if l.Tap == nil {
		l.receiveFast(now, p)
	} else {
		l.receiveTraced(now, p)
	}
}

// receiveFast is the tap-free arrival path.
func (l *Link) receiveFast(now sim.Time, p *Packet) {
	marked := l.Marker != nil && l.Marker.OnArrival(now, p)
	if l.Bg != nil {
		drop, mark := l.Bg.arrival(p.Kind)
		if drop {
			l.dropFast(now, p)
			return
		}
		marked = marked || mark
	}
	if marked && l.VQDropProbes && p.Kind == Probe {
		l.dropFast(now, p)
		return
	}
	if dropped := l.Q.Enqueue(now, p); dropped != nil {
		l.dropFast(now, dropped)
		if dropped == p {
			return
		}
	}
	// Mark accounting happens only after the packet survives the real
	// queue: see the LinkStats doc comment.
	if marked {
		p.Marked = true
		l.Stats.Marked[p.Kind]++
	}
	if !l.busy {
		l.startTx(now)
	}
}

// receiveTraced mirrors receiveFast with the trace events of the
// observability tap (known non-nil here).
func (l *Link) receiveTraced(now sim.Time, p *Packet) {
	marked := l.Marker != nil && l.Marker.OnArrival(now, p)
	if l.Bg != nil {
		drop, mark := l.Bg.arrival(p.Kind)
		if drop {
			l.dropTraced(now, p)
			return
		}
		marked = marked || mark
	}
	if marked && l.VQDropProbes && p.Kind == Probe {
		l.dropTraced(now, p)
		return
	}
	if dropped := l.Q.Enqueue(now, p); dropped != nil {
		l.dropTraced(now, dropped)
		if dropped == p {
			return
		}
	}
	if marked {
		p.Marked = true
		l.Stats.Marked[p.Kind]++
		l.Tap.Mark(now, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
	}
	l.Tap.Enqueue(now, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
	if !l.busy {
		l.startTx(now)
	}
}

// dropFast books a dropped packet on the tap-free path.
func (l *Link) dropFast(now sim.Time, p *Packet) {
	l.Stats.Dropped[p.Kind]++
	if l.OnDrop != nil {
		l.OnDrop(now, p)
	}
}

// dropTraced books a dropped packet and emits its trace event.
func (l *Link) dropTraced(now sim.Time, p *Packet) {
	l.Stats.Dropped[p.Kind]++
	l.Tap.Drop(now, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
	if l.OnDrop != nil {
		l.OnDrop(now, p)
	}
}

// txTime returns the serialization time of p on this link, using the
// per-link precomputed ns-per-bit scale (no division on the packet path).
func (l *Link) txTime(p *Packet) sim.Time {
	return sim.Time(float64(p.Bits()) * l.nsPerBit)
}

func (l *Link) startTx(now sim.Time) {
	p := l.Q.Dequeue()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	l.txPkt = p
	if l.Tap != nil {
		l.Tap.Dequeue(now, p.FlowID, uint8(p.Kind), p.Size, p.Seq, l.Q.Len())
	}
	l.s.Schedule(l.txDone, now+l.txTime(p))
}

func (l *Link) onTxDone(now sim.Time) {
	p := l.txPkt
	l.txPkt = nil
	l.Stats.SentBits[p.Kind] += int64(p.Bits())
	l.Stats.SentPkts[p.Kind]++
	// Constant propagation delay keeps deliveries FIFO, so one pending
	// event suffices for the whole pipe.
	l.pipePush(inflight{at: now + l.Delay, p: p})
	if !l.pipeEv.Pending() {
		l.s.Schedule(l.pipeEv, now+l.Delay)
	}
	l.startTx(now)
}

func (l *Link) pipePush(f inflight) {
	if l.pipeN == len(l.pipe) {
		nc := len(l.pipe) * 2
		if nc == 0 {
			nc = ringCap()
		}
		np := make([]inflight, nc)
		// The ring is full, so the resident entries are pipe[pipeHd:]
		// followed by pipe[:pipeHd].
		k := copy(np, l.pipe[l.pipeHd:])
		copy(np[k:], l.pipe[:l.pipeHd])
		l.pipe = np
		l.pipeHd = 0
	}
	l.pipe[(l.pipeHd+l.pipeN)&(len(l.pipe)-1)] = f
	l.pipeN++
}

func (l *Link) onDeliver(now sim.Time) {
	for l.pipeN > 0 && l.pipe[l.pipeHd].at <= now {
		p := l.pipe[l.pipeHd].p
		l.pipe[l.pipeHd] = inflight{}
		l.pipeHd = (l.pipeHd + 1) & (len(l.pipe) - 1)
		l.pipeN--
		p.Forward(now)
	}
	if l.pipeN > 0 {
		l.s.Schedule(l.pipeEv, l.pipe[l.pipeHd].at)
	}
}

// QueueLen returns the number of packets waiting (excluding any in
// service).
func (l *Link) QueueLen() int { return l.Q.Len() }

// Busy reports whether a packet is currently being transmitted.
func (l *Link) Busy() bool { return l.busy }
