package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/health"
	"contexp/internal/journal"
	"contexp/internal/metrics"
)

// tracer keeps the spans a traced run records around each call into a
// layer, plus a latency histogram per span name. Spans are kept in
// memory up to maxSpans (the histograms see every one) and written out
// when the run ends. All methods are no-ops on a nil tracer, so
// untraced runs pay one nil check per boundary.
type tracer struct {
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	spans   []span
	dropped int64
	hists   map[string]*hist
}

// span is one timed call into a layer. Parent links a span to the span
// that caused it (0 for roots); Req groups the spans of one request.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

const maxSpans = 200_000

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), hists: map[string]*hist{}}
}

// id reserves a span identifier, so a parent can be named before its
// own span is recorded.
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// record stores one span under a reserved id (0 reserves one).
func (t *tracer) record(id, parent, req uint64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.nextID.Add(1)
	}
	t.mu.Lock()
	h := t.hists[name]
	if h == nil {
		h = &hist{}
		t.hists[name] = h
	}
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
			Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch))})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
	h.add(end.Sub(start))
}

// hist returns the histogram of one span name (empty when unseen).
func (t *tracer) hist(name string) *hist {
	if t == nil {
		return &hist{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if h := t.hists[name]; h != nil {
		return h
	}
	return &hist{}
}

// selfTimes sums, per span name, span time minus the time its child
// spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[uint64][]int{}
	for i, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		self := s.End - s.Start
		var ivs [][2]int64
		for _, ci := range children[s.ID] {
			c := t.spans[ci]
			ivs = append(ivs, [2]int64{max(c.Start, s.Start), min(c.End, s.End)})
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		out[s.Name] += time.Duration(self - covered)
	}
	return out
}

// writeOut writes the spans as JSON lines and the per-name self times
// under dir, and prints the self-time table to standard error.
func (t *tracer) writeOut(dir, stem string) error {
	if t == nil {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	t.mu.Lock()
	kept, dropped := len(t.spans), t.dropped
	t.mu.Unlock()
	fmt.Fprintf(os.Stderr, "  trace: %d spans kept, %d beyond the cap; self time per layer boundary:\n", kept, dropped)
	summary := map[string]any{"spans": kept, "spans_beyond_cap": dropped}
	selfMs := map[string]float64{}
	for _, n := range names {
		h := t.hist(n)
		fmt.Fprintf(os.Stderr, "    %-24s self %10.1f ms  calls %8d  p50 %8.1f us\n",
			n, ms(self[n]), h.count(), us(h.quantile(0.5)))
		selfMs[n] = ms(self[n])
	}
	summary["self_ms"] = selfMs
	f, err := os.Create(filepath.Join(dir, stem+".spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	sb, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, stem+".selftime.json"), sb, 0o644)
}

// --- decorators over the program's public interfaces ---

// timedTransport times every HTTP round trip of a client as a span.
type timedTransport struct {
	base http.RoundTripper
	tr   *tracer
	name string
}

func (tt timedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := tt.base.RoundTrip(r)
	tt.tr.record(0, 0, 0, tt.name, start, time.Now())
	return resp, err
}

// httpClient returns the client a wire.Client should post with: nil
// (http.DefaultClient, what the commands pass) untraced, a timed one
// traced.
func (t *tracer) httpClient(name string) *http.Client {
	if t == nil {
		return nil
	}
	return &http.Client{Transport: timedTransport{base: http.DefaultTransport, tr: t, name: name}}
}

// tracedJournal times appends and reads the records it passes on, so
// the rollback path's detect and decide stages can be timed at the
// instant each record reaches the journal.
type tracedJournal struct {
	journal.Journal
	tr      *tracer
	bytes   atomic.Int64
	appends atomic.Int64
	onRec   func(rec journalRecord, at time.Time)
}

// journalRecord is the part of an engine record the benchmark reads.
type journalRecord struct {
	Run     string            `json:"run"`
	Type    bifrost.EventType `json:"type"`
	Outcome bifrost.Outcome   `json:"outcome"`
	Detail  string            `json:"detail"`
}

func (j *tracedJournal) Append(rec []byte) error {
	start := time.Now()
	err := j.Journal.Append(rec)
	end := time.Now()
	j.tr.record(0, 0, 0, "journal.append", start, end)
	j.bytes.Add(int64(len(rec)))
	j.appends.Add(1)
	if j.onRec != nil && (bytes.Contains(rec, []byte(`"check-result"`)) ||
		bytes.Contains(rec, []byte(`"traffic-applied"`))) {
		var r journalRecord
		if json.Unmarshal(rec, &r) == nil {
			j.onRec(r, end)
		}
	}
	return err
}

// Stats and Compact forward the optional journal surfaces the server
// and the boot-time compaction look for.
func (j *tracedJournal) Stats() journal.Stats {
	if s, ok := j.Journal.(journal.Stater); ok {
		return s.Stats()
	}
	return journal.Stats{}
}

func (j *tracedJournal) Compact(keep func(rec []byte) bool) error {
	if c, ok := j.Journal.(journal.Compactor); ok {
		return c.Compact(keep)
	}
	return nil
}

// tracedQuerier times every metric query the engine's checks make and
// counts them per run class.
type tracedQuerier struct {
	store   *metrics.Store
	tr      *tracer
	classOf func(service string) string

	mu     sync.Mutex
	counts map[string]int64
}

func (q *tracedQuerier) Query(metric string, scope metrics.Scope, since time.Time, agg metrics.Aggregation) (float64, error) {
	start := time.Now()
	v, err := q.store.Query(metric, scope, since, agg)
	q.tr.record(0, 0, 0, "metrics.query", start, time.Now())
	if q.classOf != nil {
		if c := q.classOf(scope.Service); c != "" {
			q.mu.Lock()
			q.counts[c]++
			q.mu.Unlock()
		}
	}
	return v, err
}

func (q *tracedQuerier) count(class string) int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.counts[class]
}

// tracedAssessor times topology verdicts.
type tracedAssessor struct {
	*health.Monitor
	tr *tracer
}

func (a tracedAssessor) Verdict(run, heuristic string) (*health.LiveVerdict, error) {
	start := time.Now()
	v, err := a.Monitor.Verdict(run, heuristic)
	a.tr.record(0, 0, 0, "health.verdict", start, time.Now())
	return v, err
}
