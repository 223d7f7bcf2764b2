package trace

import (
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// StoreConfig bounds the trace store. Zero values take defaults.
type StoreConfig struct {
	// Capacity is the maximum number of retained traces; eviction runs
	// when the store grows past it. Default 2048.
	Capacity int
	// SlowKeep is how many of the slowest completed-OK traces are
	// pinned against sampling eviction. Default 64.
	SlowKeep int
	// SampleRate is the probability a completed, unremarkable trace
	// (no error, not slowest-N) survives eviction pressure. Default 0.1.
	SampleRate float64
}

// maxSpansPerTrace caps the spans recorded per trace; excess spans still
// feed the aggregate histograms but are dropped from the tree (counted
// in trace/spans_dropped). Events per span are capped by
// maxEventsPerSpan.
const maxSpansPerTrace = 1024

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Capacity <= 0 {
		c.Capacity = 2048
	}
	if c.SlowKeep <= 0 {
		c.SlowKeep = 64
	}
	if c.SampleRate <= 0 {
		c.SampleRate = 0.1
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	return c
}

// SpanRecord is one completed span inside a retained trace.
type SpanRecord struct {
	SpanID   SpanID
	Parent   SpanID
	Name     string
	Start    time.Time
	Duration time.Duration
	Error    string
	Attrs    []Attr
	Events   []Event
	Root     bool // local root: the span where the trace entered this process
}

// traceRec accumulates the spans of one trace. Records stay in the map
// after the root ends so late async spans (a job queued by a request
// whose handler already returned) still stitch into the same tree.
type traceRec struct {
	id       TraceID
	seq      uint64 // admission order, the eviction tiebreak
	spans    []SpanRecord
	open     int // started-but-not-ended span count
	started  int // total spans admitted (for the budget check)
	rootName string
	endpoint string
	start    time.Time
	maxEnd   time.Time
	rootEnd  bool // a local-root span has ended
	errored  bool
	coined   bool // sampling coin flipped (once, at first completion)
	sampled  bool // coin outcome: survives sampling eviction
	dropped  int  // spans over budget
}

func (r *traceRec) complete() bool { return r.rootEnd && r.open == 0 }

func (r *traceRec) duration() time.Duration {
	if r.maxEnd.IsZero() {
		return 0
	}
	return r.maxEnd.Sub(r.start)
}

// Store is the bounded in-memory trace ring: every ended span lands
// here, and eviction applies tail-based retention — errored traces and
// the slowest SlowKeep always survive; the unremarkable majority
// survives with probability SampleRate; still-open traces are never
// evicted below capacity pressure. Safe for concurrent use.
type Store struct {
	cfg StoreConfig

	mu   sync.Mutex
	byID map[TraceID]*traceRec
	seq  uint64
	rng  *rand.Rand
}

// NewStore creates a trace store.
func NewStore(cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	return &Store{
		cfg:  cfg,
		byID: make(map[TraceID]*traceRec),
		// A fixed seed, so chaos and replay runs retain the same traces.
		rng: rand.New(rand.NewSource(1)),
	}
}

// spanStarted admits a span into its trace record, creating the record
// on first sight of the trace ID.
func (st *Store) spanStarted(sp *Span) {
	st.mu.Lock()
	rec := st.byID[sp.sc.TraceID]
	if rec == nil {
		st.seq++
		rec = &traceRec{id: sp.sc.TraceID, seq: st.seq, start: sp.start}
		st.byID[sp.sc.TraceID] = rec
		if len(st.byID) > st.cfg.Capacity {
			st.evictLocked()
		}
	}
	if sp.start.Before(rec.start) {
		rec.start = sp.start
	}
	if rec.started >= maxSpansPerTrace {
		sp.dropped = true
		rec.dropped++
		st.mu.Unlock()
		telemetry.Add("trace/spans_dropped", 1)
		return
	}
	rec.started++
	rec.open++
	n := len(st.byID)
	st.mu.Unlock()
	telemetry.SetGauge("trace/retained", float64(n))
}

// spanEnded folds a completed span into its trace record. Called from
// Span.End exactly once per span.
func (st *Store) spanEnded(sp *Span, d time.Duration) {
	sp.mu.Lock()
	recSpan := SpanRecord{
		SpanID:   sp.sc.SpanID,
		Parent:   sp.parent,
		Name:     sp.name,
		Start:    sp.start,
		Duration: d,
		Error:    sp.errMsg,
		Attrs:    sp.attrs,
		Events:   sp.events,
		Root:     sp.localRoot,
	}
	sp.mu.Unlock()

	st.mu.Lock()
	defer st.mu.Unlock()
	rec := st.byID[sp.sc.TraceID]
	if rec == nil {
		// Trace was evicted while this span ran; drop silently — the
		// duration already reached the aggregate histograms.
		return
	}
	if sp.dropped {
		return
	}
	rec.open--
	rec.spans = append(rec.spans, recSpan)
	// A span may carry an earlier start than the record saw at
	// admission (clock adjustments, test backdating): keep the record's
	// window covering every span it holds.
	if sp.start.Before(rec.start) {
		rec.start = sp.start
	}
	if end := sp.start.Add(d); end.After(rec.maxEnd) {
		rec.maxEnd = end
	}
	if recSpan.Error != "" {
		rec.errored = true
	}
	if recSpan.Root {
		rec.rootEnd = true
		rec.rootName = recSpan.Name
		for _, a := range recSpan.Attrs {
			if a.Key == "endpoint" {
				if s, ok := a.Value.(string); ok {
					rec.endpoint = s
				}
			}
		}
	}
	// Flip the sampling coin once, at first completion. The outcome is
	// only consulted at eviction time, so a trace that completes and
	// later gains async spans keeps one consistent fate.
	if rec.complete() && !rec.coined {
		rec.coined = true
		rec.sampled = st.rng.Float64() < st.cfg.SampleRate
	}
}

// evictLocked shrinks the store back to capacity. Retention classes,
// evicted in ascending order (oldest first within a class):
//
//	0 — complete, ok, not slowest-N, coin said drop
//	1 — complete, ok, not slowest-N, coin said keep (sampled)
//	2 — complete but errored or among the slowest SlowKeep
//	3 — still open (async spans may yet arrive)
//
// The invariant: an errored or slowest-N trace is only evicted once
// every sampled/unsampled unremarkable trace is gone, and an open
// trace only after every complete one.
//
// Eviction drops to a low-water mark about 1/8 below capacity rather
// than to capacity exactly, so a store running at its limit pays the
// O(n log n) classification once per ~n/8 admissions, not per insert.
func (st *Store) evictLocked() {
	target := st.cfg.Capacity - st.cfg.Capacity/8
	if target < 1 {
		target = 1
	}
	if len(st.byID) <= target {
		return
	}
	type cand struct {
		rec   *traceRec
		class int
	}
	// Find the slowest-N completed-OK traces to pin into class 2.
	var completed []*traceRec
	for _, rec := range st.byID {
		if rec.complete() && !rec.errored {
			completed = append(completed, rec)
		}
	}
	sort.Slice(completed, func(i, j int) bool {
		di, dj := completed[i].duration(), completed[j].duration()
		if di != dj {
			return di > dj
		}
		return completed[i].seq < completed[j].seq
	})
	slow := make(map[TraceID]bool, st.cfg.SlowKeep)
	for i := 0; i < len(completed) && i < st.cfg.SlowKeep; i++ {
		slow[completed[i].id] = true
	}

	cands := make([]cand, 0, len(st.byID))
	for _, rec := range st.byID {
		c := cand{rec: rec}
		switch {
		case !rec.complete():
			c.class = 3
		case rec.errored || slow[rec.id]:
			c.class = 2
		case rec.sampled:
			c.class = 1
		default:
			c.class = 0
		}
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].class != cands[j].class {
			return cands[i].class < cands[j].class
		}
		return cands[i].rec.seq < cands[j].rec.seq
	})
	evicted := 0
	for _, c := range cands {
		if len(st.byID) <= target {
			break
		}
		delete(st.byID, c.rec.id)
		evicted++
	}
	if evicted > 0 {
		telemetry.Add("trace/traces_evicted", int64(evicted))
	}
}

// Len reports the number of retained traces.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.byID)
}

// --- read API -----------------------------------------------------------

// Filter selects traces in List. Zero values match everything.
type Filter struct {
	Endpoint    string        // exact match on the root span's endpoint attribute
	Status      string        // "ok", "error", or "open"
	MinDuration time.Duration // only traces at least this long
}

// Summary is one row of the trace listing.
type Summary struct {
	TraceID    string  `json:"trace_id"`
	Root       string  `json:"root"`
	Endpoint   string  `json:"endpoint,omitempty"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Errored    bool    `json:"errored"`
	Open       bool    `json:"open"`
}

// List returns summaries of retained traces matching f, newest first
// (by admission order, which is stable under concurrent writes).
func (st *Store) List(f Filter) []Summary {
	st.mu.Lock()
	recs := make([]*traceRec, 0, len(st.byID))
	for _, rec := range st.byID {
		recs = append(recs, rec)
	}
	st.mu.Unlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq > recs[j].seq })

	out := make([]Summary, 0, len(recs))
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, rec := range recs {
		if f.Endpoint != "" && rec.endpoint != f.Endpoint {
			continue
		}
		switch f.Status {
		case "error":
			if !rec.errored {
				continue
			}
		case "ok":
			if rec.errored || !rec.complete() {
				continue
			}
		case "open":
			if rec.complete() {
				continue
			}
		}
		if f.MinDuration > 0 && rec.duration() < f.MinDuration {
			continue
		}
		out = append(out, Summary{
			TraceID:    rec.id.String(),
			Root:       rec.rootName,
			Endpoint:   rec.endpoint,
			Start:      rec.start.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(rec.duration()) / float64(time.Millisecond),
			Spans:      len(rec.spans),
			Errored:    rec.errored,
			Open:       !rec.complete(),
		})
	}
	return out
}

// SpanView is the JSON shape of one span in a trace view.
type SpanView struct {
	SpanID     string      `json:"span_id"`
	Parent     string      `json:"parent,omitempty"`
	Name       string      `json:"name"`
	Start      string      `json:"start"`
	DurationMS float64     `json:"duration_ms"`
	Error      string      `json:"error,omitempty"`
	Attrs      []Attr      `json:"attrs,omitempty"`
	Events     []EventView `json:"events,omitempty"`
	Root       bool        `json:"root,omitempty"`
}

// EventView is the JSON shape of one span event.
type EventView struct {
	Name  string  `json:"name"`
	OffMS float64 `json:"offset_ms"`
	Attrs []Attr  `json:"attrs,omitempty"`
}

// View is the full span tree of one retained trace.
type View struct {
	TraceID      string     `json:"trace_id"`
	Root         string     `json:"root"`
	Endpoint     string     `json:"endpoint,omitempty"`
	Start        string     `json:"start"`
	DurationMS   float64    `json:"duration_ms"`
	Errored      bool       `json:"errored"`
	Open         bool       `json:"open"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanView `json:"spans"`
}

// Get returns the span tree of the trace with the given hex ID, or
// (zero, false) when it is unknown or was evicted.
func (st *Store) Get(idHex string) (View, bool) {
	id, err := ParseTraceID(strings.TrimSpace(idHex))
	if err != nil {
		return View{}, false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	rec := st.byID[id]
	if rec == nil {
		return View{}, false
	}
	v := View{
		TraceID:      rec.id.String(),
		Root:         rec.rootName,
		Endpoint:     rec.endpoint,
		Start:        rec.start.UTC().Format(time.RFC3339Nano),
		DurationMS:   float64(rec.duration()) / float64(time.Millisecond),
		Errored:      rec.errored,
		Open:         !rec.complete(),
		DroppedSpans: rec.dropped,
	}
	spans := make([]SpanRecord, len(rec.spans))
	copy(spans, rec.spans)
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].SpanID.String() < spans[j].SpanID.String()
	})
	v.Spans = make([]SpanView, 0, len(spans))
	for _, s := range spans {
		sv := SpanView{
			SpanID:     s.SpanID.String(),
			Name:       s.Name,
			Start:      s.Start.UTC().Format(time.RFC3339Nano),
			DurationMS: float64(s.Duration) / float64(time.Millisecond),
			Error:      s.Error,
			Attrs:      s.Attrs,
			Root:       s.Root,
		}
		if !s.Parent.IsZero() {
			sv.Parent = s.Parent.String()
		}
		for _, e := range s.Events {
			sv.Events = append(sv.Events, EventView{
				Name:  e.Name,
				OffMS: float64(e.Time.Sub(s.Start)) / float64(time.Millisecond),
				Attrs: e.Attrs,
			})
		}
		v.Spans = append(v.Spans, sv)
	}
	return v, true
}

// Flame renders the trace's span tree as indented text with duration,
// share-of-trace, and a proportional bar per span — a poor man's flame
// graph readable in a terminal. Returns ("", false) for unknown IDs.
func (st *Store) Flame(idHex string) (string, bool) {
	v, ok := st.Get(idHex)
	if !ok {
		return "", false
	}
	var b strings.Builder
	b.WriteString("trace " + v.TraceID)
	if v.Endpoint != "" {
		b.WriteString("  endpoint=" + v.Endpoint)
	}
	status := "ok"
	if v.Errored {
		status = "error"
	}
	if v.Open {
		status = "open"
	}
	b.WriteString("  status=" + status)
	b.WriteString("  " + fmtMS(v.DurationMS) + "\n")

	children := make(map[string][]SpanView)
	have := make(map[string]bool, len(v.Spans))
	for _, s := range v.Spans {
		have[s.SpanID] = true
	}
	var roots []SpanView
	for _, s := range v.Spans {
		if s.Parent != "" && have[s.Parent] {
			children[s.Parent] = append(children[s.Parent], s)
		} else {
			// True roots and orphans (parent span not retained, e.g. a
			// remote parent or a budget-dropped span) render top-level.
			roots = append(roots, s)
		}
	}
	total := v.DurationMS
	if total <= 0 {
		total = 1
	}
	var render func(s SpanView, depth int)
	render = func(s SpanView, depth int) {
		share := s.DurationMS / total
		bar := strings.Repeat("#", barWidth(share))
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(s.Name)
		if s.Error != "" {
			b.WriteString(" !error")
		}
		b.WriteString("  " + fmtMS(s.DurationMS))
		b.WriteString("  " + pct(share))
		if bar != "" {
			b.WriteString("  " + bar)
		}
		b.WriteString("\n")
		for _, e := range s.Events {
			b.WriteString(strings.Repeat("  ", depth+1))
			b.WriteString("* " + e.Name + " @" + fmtMS(e.OffMS) + "\n")
		}
		for _, c := range children[s.SpanID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 1)
	}
	return b.String(), true
}

func barWidth(share float64) int {
	const maxBar = 30
	n := int(share*maxBar + 0.5)
	if n < 0 {
		n = 0
	}
	if n > maxBar {
		n = maxBar
	}
	return n
}

func fmtMS(ms float64) string {
	switch {
	case ms >= 1000:
		return strconv.FormatFloat(ms/1000, 'f', 2, 64) + "s"
	case ms >= 1:
		return strconv.FormatFloat(ms, 'f', 2, 64) + "ms"
	default:
		return strconv.FormatFloat(ms*1000, 'f', 0, 64) + "µs"
	}
}

func pct(share float64) string {
	return strconv.FormatFloat(share*100, 'f', 1, 64) + "%"
}
