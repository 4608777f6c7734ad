package scenario

import (
	"eac/internal/admission"
	"eac/internal/fluid"
	"eac/internal/netsim"
	"eac/internal/sim"
	"eac/internal/stats"
)

// hybridState is the runner-side half of the hybrid fluid/packet engine
// (Config.Hybrid): one netsim.FluidBackground per link carries the
// background classes' data phases as piecewise-constant fluid rates, and
// the per-class accumulators below book the offered/lost fluid bits over
// the accounting window so metrics() can fold them back into the same
// ClassMetrics the packet path produces.
//
// The accounting is exact for the fluid model: rates only change at flow
// admission/departure events, and advanceBg is called with the old rates
// still in force before every change, so each piecewise-constant segment
// is integrated with the loss probabilities that actually applied to it.
// One deliberate approximation: a multi-hop class's loss is taken as
// 1 - prod(1-p_l) over its path links, each p_l evaluated at the link's
// locally offered load — upstream thinning of this class's own fluid is
// not propagated downstream (see DESIGN.md, Hybrid engine).
type hybridState struct {
	bgs  []*netsim.FluidBackground // parallel to Runner.links
	isBg []bool                    // parallel to Config.Classes

	count   []int     // active fluid flows per class
	offered []float64 // fluid bits offered inside the window, per class
	lost    []float64 // fluid bits lost inside the window, per class
	lastT   sim.Time  // time the accumulators were last advanced to
}

// setupHybrid (re)builds the fluid attachments for an enabled hybrid
// config. Called by newRunner and reset after the links are wired, so the
// backgrounds layer on top of whatever marker/tap machinery the method
// installed. A disabled config leaves hyb nil and every hot path
// untouched.
func (r *Runner) setupHybrid() {
	r.hyb = nil
	if !r.cfg.Hybrid.Active() {
		return
	}
	if r.rngBg == nil {
		r.rngBg = stats.NewStream(r.cfg.Seed, "fluidbg")
	} else {
		r.rngBg.ReseedStream(r.cfg.Seed, "fluidbg")
	}

	// The fluid sees the same queue approximation family the packet path
	// runs: RED links mark/drop on the averaged-queue profile, everything
	// else is drop-tail at the physical buffer.
	model := fluid.QueueDropTail
	if r.cfg.Queue == QueueRED {
		model = fluid.QueueREDApprox
	}

	h := &hybridState{
		bgs:     make([]*netsim.FluidBackground, len(r.links)),
		isBg:    make([]bool, len(r.cfg.Classes)),
		count:   make([]int, len(r.cfg.Classes)),
		offered: make([]float64, len(r.cfg.Classes)),
		lost:    make([]float64, len(r.cfg.Classes)),
	}
	if len(r.cfg.Hybrid.Background) == 0 {
		for i := range h.isBg {
			h.isBg[i] = true
		}
	} else {
		for _, ci := range r.cfg.Hybrid.Background {
			h.isBg[ci] = true
		}
	}
	for i, l := range r.links {
		bg := netsim.NewFluidBackground(l, model, r.cfg.Links[i].BufferPkts, r.rngBg)
		bg.MaxShare = r.cfg.Hybrid.MaxShare
		if r.cfg.Method == EAC {
			// Mirror wireLink: marking designs get the analytic mark
			// signal at the shadow queue's service fraction; virtual
			// dropping folds a probe's mark fate into a drop.
			switch r.cfg.AC.Design.Signal {
			case admission.Mark:
				bg.Marking = true
				bg.VQFactor = r.cfg.VQFactor
			case admission.VDrop:
				bg.Marking = true
				bg.VQFactor = r.cfg.VQFactor
				bg.VDropProbes = true
			}
		}
		h.bgs[i] = bg
	}
	r.hyb = h
}

// startFluid begins an admitted background flow's data phase on the fluid
// plane: its average rate joins every path link's background and its
// death is scheduled from the same lifetime stream the packet path uses,
// so admission dynamics see an identically distributed population.
func (r *Runner) startFluid(now sim.Time, f *flowState) {
	cl := r.cfg.Classes[f.class]
	r.advanceBg(now)
	for _, li := range r.path(f.class) {
		r.hyb.bgs[li].Add(now, cl.Preset.AvgRate)
	}
	r.hyb.count[f.class]++
	f.fluid = true
	r.activeFlows++
	r.obs.SpanDataStart(now, f.id, f.class)
	life := sim.Seconds(r.rngLife.Exp(r.cfg.LifetimeSec))
	r.s.Schedule(f.stopEv, now+life)
}

// stopFluid ends a fluid flow's data phase (lifetime expired).
func (r *Runner) stopFluid(now sim.Time, f *flowState) {
	cl := r.cfg.Classes[f.class]
	r.advanceBg(now)
	for _, li := range r.path(f.class) {
		r.hyb.bgs[li].Add(now, -cl.Preset.AvgRate)
	}
	r.hyb.count[f.class]--
	f.fluid = false
	f.active = false
	r.activeFlows--
	r.obs.SpanDataEnd(now, f.id)
}

// advanceBg integrates the per-class offered/lost fluid bits over
// [lastT, now] clipped to the accounting window, using the loss
// probabilities currently in force. Must be called BEFORE any rate
// change at now — the elapsed segment belongs to the old rates.
func (r *Runner) advanceBg(now sim.Time) {
	h := r.hyb
	lo, hi := h.lastT, now
	h.lastT = now
	if lo < r.winStart {
		lo = r.winStart
	}
	if hi > r.winEnd {
		hi = r.winEnd
	}
	if hi <= lo {
		return
	}
	dt := (hi - lo).Sec()
	for c, n := range h.count {
		if n == 0 {
			continue
		}
		bits := float64(n) * r.cfg.Classes[c].Preset.AvgRate * dt
		keep := 1.0
		for _, li := range r.path(c) {
			keep *= 1 - h.bgs[li].PDrop()
		}
		h.offered[c] += bits
		h.lost[c] += bits * (1 - keep)
	}
}

// mergeFluidClasses folds the fluid plane's window accounting into the
// packet-path class metrics: offered/lost bits become data-packet
// equivalents at each class's packet size. Returns the packet-equivalent
// sent/lost deltas for the aggregate loss probability. (Link utilization
// gains the delivered fluid share separately, once metrics() has built
// the link table.)
func (r *Runner) mergeFluidClasses(m *Metrics, now sim.Time) (sent, lost int64) {
	r.advanceBg(now)
	for c := range m.Classes {
		if r.hyb.offered[c] == 0 {
			continue
		}
		pktBits := float64(8 * r.cfg.Classes[c].Preset.PktSize)
		s := int64(r.hyb.offered[c]/pktBits + 0.5)
		l := int64(r.hyb.lost[c]/pktBits + 0.5)
		m.Classes[c].DataSent += s
		m.Classes[c].DataLost += l
		sent += s
		lost += l
	}
	return sent, lost
}
