package obs

import (
	"encoding/json"
	"io"

	"eac/internal/stats"
)

// HistSchema versions the histogram artifact layout. v2 drops v1's
// `shards`/`shard_executed` document fields and the per-link `shard`.
const HistSchema = "eac/obs/hist/v2"

// histBucket is one [lo, hi] bucket with its count.
type histBucket [3]int64

// classHist is one class's delay distribution (log-bucket, ns).
type classHist struct {
	Class   string       `json:"class"`
	N       int64        `json:"n"`
	MeanNs  float64      `json:"mean_ns"`
	P50Ns   int64        `json:"p50_ns"`
	P90Ns   int64        `json:"p90_ns"`
	P99Ns   int64        `json:"p99_ns"`
	Buckets []histBucket `json:"buckets"`
}

// linkHist is one link's queue-depth distribution (occupancy after each
// accepted enqueue).
type linkHist struct {
	Link    string       `json:"link"`
	N       int64        `json:"n"`
	Mean    float64      `json:"mean"`
	P99     int64        `json:"p99"`
	Buckets []histBucket `json:"buckets"`
}

// histDoc is the histogram artifact: distributional stats that survive
// trace-ring wraparound, replacing point P99 estimates. Buckets are
// power-of-two [lo, hi, count] triples, exactly mergeable across seeds
// (stats.LogHist).
type histDoc struct {
	Schema       string      `json:"schema"`
	Seed         uint64      `json:"seed"`
	Decisions    Decisions   `json:"decisions"`
	TraceDropped int64       `json:"trace_dropped"`
	DelayNs      []classHist `json:"delay_ns"`
	QueueDepth   []linkHist  `json:"queue_depth"`
}

func buckets(h *stats.LogHist) []histBucket {
	out := []histBucket{}
	h.Buckets(func(lo, hi, count int64) {
		out = append(out, histBucket{lo, hi, count})
	})
	return out
}

// WriteHist renders this collector's histogram artifact.
func (c *Collector) WriteHist(w io.Writer) error {
	if c == nil {
		return nil
	}
	doc := histDoc{
		Schema: HistSchema, Seed: c.seed,
		DelayNs: []classHist{}, QueueDepth: []linkHist{},
	}
	if c.Enabled() {
		for class, name := range c.classes {
			h := &c.delayH[class]
			doc.DelayNs = append(doc.DelayNs, classHist{
				Class: name, N: h.N(), MeanNs: h.Mean(),
				P50Ns: h.Quantile(0.50), P90Ns: h.Quantile(0.90),
				P99Ns: h.Quantile(0.99), Buckets: buckets(h),
			})
		}
		doc.Decisions = c.dec
		doc.TraceDropped = c.TraceDropped()
		for link := range c.links {
			h := &c.depth[link]
			doc.QueueDepth = append(doc.QueueDepth, linkHist{
				Link: c.links[link], N: h.N(), Mean: h.Mean(),
				P99: h.Quantile(0.99), Buckets: buckets(h),
			})
		}
	}
	return json.NewEncoder(w).Encode(doc)
}
