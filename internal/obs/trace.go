package obs

import (
	"encoding/json"
	"io"

	"eac/internal/sim"
)

// Trace event kinds, in the order they appear in JSONL output.
const (
	evEnqueue uint8 = iota
	evDequeue
	evDrop
	evMark
	evAdmit
	evReject
	// evEpoch records one completed adaptation epoch of the
	// epoch-adaptive admission policy: the ε and probe duration now in
	// force plus the epoch's rejection and loss rates. Static-policy runs
	// never emit it.
	evEpoch
	// evArrival records one flow arrival (offered, before any admission
	// decision): the flow id and its class. These events make a trace
	// replayable as a workload — scenario.ParseReplay re-drives the exact
	// arrival sequence through a fresh run.
	evArrival
)

var evNames = [...]string{"enqueue", "dequeue", "drop", "mark", "admit", "reject", "epoch", "arrival"}

// traceRec is the compact in-ring representation of one event. Packet
// events use link/kind/a(size)/b(seq)/depth; admission decisions use
// link = -1 with kind holding the class index, a the attempt count, and
// frac the measured bad-packet fraction.
type traceRec struct {
	at    sim.Time
	ev    uint8
	kind  uint8
	link  int16
	flow  int32
	depth int32
	a, b  int64
	frac  float32
}

// ring is a fixed-capacity event buffer that overwrites its oldest
// entries; dropped counts the overwritten events.
type ring struct {
	buf     []traceRec
	head    int // index of the oldest record
	n       int
	dropped int64
}

func (r *ring) push(rec traceRec) {
	if len(r.buf) == 0 {
		return
	}
	if r.n == len(r.buf) {
		r.buf[r.head] = rec
		r.head = (r.head + 1) % len(r.buf)
		r.dropped++
		return
	}
	r.buf[(r.head+r.n)%len(r.buf)] = rec
	r.n++
}

func (r *ring) at(i int) traceRec { return r.buf[(r.head+i)%len(r.buf)] }

// packetEvent is the JSONL form of a packet-level trace event.
type packetEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Link  string  `json:"link"`
	Flow  int32   `json:"flow"`
	Kind  string  `json:"kind"`
	Size  int64   `json:"size"`
	Seq   int64   `json:"seq"`
	Depth int32   `json:"depth"`
}

// decisionEvent is the JSONL form of an admission decision.
type decisionEvent struct {
	T       float64 `json:"t"`
	Ev      string  `json:"ev"`
	Flow    int32   `json:"flow"`
	Class   int     `json:"class"`
	Attempt int64   `json:"attempt"`
	Frac    float64 `json:"frac"`
}

// arrivalEvent is the JSONL form of a flow arrival. The field set is the
// replay contract: scenario.ParseReplay reads exactly {t, ev, class} and
// ignores everything else, so renaming these keys breaks recorded traces.
type arrivalEvent struct {
	T     float64 `json:"t"`
	Ev    string  `json:"ev"`
	Flow  int32   `json:"flow"`
	Class int     `json:"class"`
}

// epochEvent is the JSONL form of a policy adaptation epoch.
type epochEvent struct {
	T          float64 `json:"t"`
	Ev         string  `json:"ev"`
	Epoch      int32   `json:"epoch"`
	Eps        float64 `json:"eps"`
	ProbeMs    float64 `json:"probe_ms"`
	RejectRate float64 `json:"reject_rate"`
	LossRate   float64 `json:"loss_rate"`
}

var pktKindNames = [...]string{"data", "probe"}

// Epoch records one completed adaptation epoch of an adaptive admission
// policy in the event trace: the ε trajectory becomes a per-run series of
// epoch events. Rates are scaled to parts-per-million in the compact ring
// record and restored on output. Nil-safe; a no-op unless tracing.
func (c *Collector) Epoch(now sim.Time, epoch int, eps float64, probeDur sim.Time, rejRate, lossRate float64) {
	if !c.Tracing() {
		return
	}
	c.trace.push(traceRec{
		at: now, ev: evEpoch, link: -1, flow: int32(epoch),
		depth: int32(probeDur / sim.Millisecond),
		a:     int64(rejRate * 1e6), b: int64(lossRate * 1e6),
		frac: float32(eps),
	})
}

// Arrival records one offered flow arrival in the event trace. The class
// rides in the wide a field (not the uint8 kind) so class indices above
// 255 survive the round trip. Nil-safe; a no-op unless tracing.
func (c *Collector) Arrival(now sim.Time, flow, class int) {
	if !c.Tracing() {
		return
	}
	c.trace.push(traceRec{at: now, ev: evArrival, link: -1, flow: int32(flow), a: int64(class)})
}

// TraceLen returns the number of buffered trace events.
func (c *Collector) TraceLen() int {
	if c == nil {
		return 0
	}
	return c.trace.n
}

// TraceDropped returns how many events the ring discarded after filling.
func (c *Collector) TraceDropped() int64 {
	if c == nil {
		return 0
	}
	return c.trace.dropped
}

// traceEvent builds the JSONL form of one buffered record.
func (c *Collector) traceEvent(rec traceRec) any {
	if rec.ev == evAdmit || rec.ev == evReject {
		return decisionEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Flow: rec.flow,
			Class: int(rec.kind), Attempt: rec.a, Frac: float64(rec.frac),
		}
	}
	if rec.ev == evArrival {
		return arrivalEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Flow: rec.flow, Class: int(rec.a),
		}
	}
	if rec.ev == evEpoch {
		return epochEvent{
			T: rec.at.Sec(), Ev: evNames[rec.ev], Epoch: rec.flow,
			Eps: float64(rec.frac), ProbeMs: float64(rec.depth),
			RejectRate: float64(rec.a) / 1e6, LossRate: float64(rec.b) / 1e6,
		}
	}
	kind := "data"
	if int(rec.kind) < len(pktKindNames) {
		kind = pktKindNames[rec.kind]
	}
	return packetEvent{
		T: rec.at.Sec(), Ev: evNames[rec.ev], Link: c.LinkName(int(rec.link)),
		Flow: rec.flow, Kind: kind, Size: rec.a, Seq: rec.b, Depth: rec.depth,
	}
}

// WriteTrace renders the buffered events, oldest first, as JSONL — one
// JSON object per line. Packet events carry link/kind/size/seq/depth;
// admit/reject events carry class/attempt/frac.
func (c *Collector) WriteTrace(w io.Writer) error {
	if c == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for i := 0; i < c.trace.n; i++ {
		if err := enc.Encode(c.traceEvent(c.trace.at(i))); err != nil {
			return err
		}
	}
	return nil
}
