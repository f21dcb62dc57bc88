package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/metrics"
	"contexp/internal/tenancy"
	"contexp/internal/tracing"
	"contexp/internal/wire"
)

// eval-scale shape: 128 runs over four tenants, each with four checks
// every 100 ms. Half carry a threshold ladder (four relative p95
// checks over one 240-s query, which the tick cache coalesces); half
// carry four distinct metric/window/aggregation checks that bypass it,
// and on some of those the fourth check is a topology check fed by
// spans over POST /v1/spans. Telemetry arrives open loop; a quarter of
// the ladder candidates regress mid-phase and must roll back.
const (
	evalTenants      = 4
	evalLadderRuns   = 64
	evalDistinctRuns = 64
	evalTopologyRuns = 8
	evalRegressing   = 16
	evalInterval     = 100 * time.Millisecond
	evalWindow       = 240 * time.Second
	evalSampleEvery  = 250 * time.Millisecond // per series
	evalTick         = 50 * time.Millisecond  // one metrics batch per tick
	evalGroups       = 20                     // series groups; each is sent once per second
	evalEdgeServices = 8
	regressFactor    = 4
	regressFirst     = 2 * time.Second        // first onset after the window opens
	regressSpacing   = 250 * time.Millisecond // between onsets
	valueCheckEvery  = 50                     // every n-th check result of a run is recomputed
)

// evalCheck is one check of an eval-scale run, as the benchmark needs
// it to recompute the value the engine recorded.
type evalCheck struct {
	name     string
	metric   string
	agg      metrics.Aggregation
	window   time.Duration
	relative bool
	max      float64
	topology bool
}

func ladderChecks() []evalCheck {
	var out []evalCheck
	for _, f := range []float64{1.5, 2, 3, 5} {
		out = append(out, evalCheck{name: "p95-x" + strconv.FormatFloat(f, 'g', -1, 64), metric: "latency",
			agg: metrics.AggP95, window: evalWindow, relative: true, max: f})
	}
	return out
}

func distinctChecks(topology bool) []evalCheck {
	out := []evalCheck{
		{name: "p95-relative", metric: "latency", agg: metrics.AggP95, window: evalWindow, relative: true, max: 1.5},
		{name: "mean", metric: "latency", agg: metrics.AggMean, window: 60 * time.Second, max: 400},
		{name: "error-sum", metric: "errors", agg: metrics.AggSum, window: 30 * time.Second, max: 1000},
	}
	if topology {
		return append(out, evalCheck{name: "topology", topology: true})
	}
	return append(out, evalCheck{name: "max", metric: "latency", agg: metrics.AggMax, window: 120 * time.Second, max: 100000})
}

func evalDSL(name string, checks []evalCheck) string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy %q {\n    service   = %q\n    baseline  = \"v1\"\n    candidate = \"v2\"\n", name, name)
	b.WriteString("    phase \"canary\" {\n        practice = canary\n        traffic  = 1%\n        duration = 1h\n")
	for _, c := range checks {
		fmt.Fprintf(&b, "        check %q {\n", c.name)
		if c.topology {
			b.WriteString("            kind       = topology\n            min-traces = 5\n")
			b.WriteString("            allow      = updated-callee-version, updated-caller-version\n")
		} else {
			fmt.Fprintf(&b, "            metric    = %s\n            aggregate = %s\n            max       = %g\n            window    = %s\n",
				c.metric, c.agg, c.max, c.window)
			if c.relative {
				b.WriteString("            scope     = relative\n")
			}
		}
		fmt.Fprintf(&b, "            interval  = %s\n        }\n", evalInterval)
	}
	b.WriteString("        on success      -> promote\n        on failure      -> rollback\n        on inconclusive -> rollback\n    }\n}\n")
	return b.String()
}

// evalSeries is one metric series the generator writes, with every
// sample it sent (the reference the program's answers are checked
// against).
type evalSeries struct {
	tenant, service, version, metric string
	rng                              *rand.Rand
	regressAt                        time.Time // candidate latency regresses from here; zero never

	mu    sync.Mutex
	sent  []sentSample
	count int64
	sum   float64
}

type sentSample struct {
	at    time.Time
	v     float64
	batch int32 // -1 for prefill
}

func (s *evalSeries) next(at time.Time) float64 {
	if s.metric == "errors" {
		if s.rng.Float64() < 0.002 {
			return 1
		}
		return 0
	}
	v := math.Min(10+math.Floor(math.Exp(2.5+0.5*s.rng.NormFloat64())), 5000)
	if !s.regressAt.IsZero() && !at.Before(s.regressAt) {
		v *= regressFactor
	}
	return v
}

type evalRun struct {
	tenant, name string
	ladder       bool
	topology     bool
	regress      bool
	checks       map[string]evalCheck
	cand         map[string]*evalSeries // candidate series by metric
	run          *bifrost.Run
}

func (r *evalRun) key() string { return tenancy.Qualify(r.tenant, r.name) }

// evalScale holds one eval-scale run's inputs and what it observed.
type evalScale struct {
	b      *bench
	st     *stack
	runs   []*evalRun
	series []*evalSeries
	groups [evalGroups][]*evalSeries

	enc      wire.MetricsEncoder
	senc     wire.SpansEncoder
	client   *http.Client
	batchMu  sync.Mutex
	batchAck []time.Time // ack instant per batch seq
	late     hist
	encode   hist
	spans    hist
	submit   durs
	prefill  float64
	batchOK  int64
	batchErr int64
	spanOK   int64
	spanErr  int64
	traceSeq uint64
}

func genEvalScale(b *bench) *evalScale {
	rng := rand.New(rand.NewSource(b.opt.seed))
	es := &evalScale{b: b}
	regress := map[int]bool{}
	for _, i := range rng.Perm(evalLadderRuns)[:evalRegressing] {
		regress[i] = true
	}
	topo := map[int]bool{}
	for _, i := range rng.Perm(evalDistinctRuns)[:evalTopologyRuns] {
		topo[i] = true
	}
	for i := 0; i < evalLadderRuns+evalDistinctRuns; i++ {
		r := &evalRun{tenant: fmt.Sprintf("e%d", i%evalTenants), checks: map[string]evalCheck{}, cand: map[string]*evalSeries{}}
		var checks []evalCheck
		metricsUsed := []string{"latency"}
		if i < evalLadderRuns {
			r.name, r.ladder, r.regress = fmt.Sprintf("L%02d", i), true, regress[i]
			checks = ladderChecks()
		} else {
			j := i - evalLadderRuns
			r.name, r.topology = fmt.Sprintf("D%02d", j), topo[j]
			checks = distinctChecks(r.topology)
			metricsUsed = append(metricsUsed, "errors")
		}
		for _, c := range checks {
			r.checks[c.name] = c
		}
		for _, m := range metricsUsed {
			for _, v := range []string{"v1", "v2"} {
				s := &evalSeries{tenant: r.tenant, service: r.name, version: v, metric: m,
					rng: rand.New(rand.NewSource(rng.Int63()))}
				es.series = append(es.series, s)
				if v == "v2" {
					r.cand[m] = s
				}
			}
		}
		es.runs = append(es.runs, r)
	}
	// Group series by tenant (a batch carries one tenant's token), each
	// tenant's series spread over evalGroups/evalTenants groups.
	perTenant := evalGroups / evalTenants
	counts := map[string]int{}
	for _, s := range es.series {
		t := int(s.tenant[1] - '0')
		g := t*perTenant + counts[s.tenant]%perTenant
		counts[s.tenant]++
		es.groups[g] = append(es.groups[g], s)
	}
	return es
}

// post sends one metrics batch as tenant and records its acknowledgement.
func (es *evalScale) post(tenant string, samples []metrics.Sample) (int32, error) {
	start := time.Now()
	frame := es.enc.Encode(samples)
	es.encode.add(time.Since(start))
	es.b.tr.record(0, 0, 0, "wire.encode", start, time.Now())
	req, err := http.NewRequest(http.MethodPost, es.st.url+"/v1/metrics", bytes.NewReader(frame))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set("Authorization", "Bearer "+token(tenant))
	resp, err := es.client.Do(req)
	if err != nil {
		return 0, err
	}
	drain(resp)
	ack := time.Now()
	es.b.tr.record(0, 0, 0, "ingest.post", start, ack)
	if resp.StatusCode != http.StatusAccepted {
		return 0, fmt.Errorf("metrics batch answered %s", resp.Status)
	}
	es.batchMu.Lock()
	seq := int32(len(es.batchAck))
	es.batchAck = append(es.batchAck, ack)
	es.batchMu.Unlock()
	return seq, nil
}

func (es *evalScale) ackOf(seq int32) time.Time {
	es.batchMu.Lock()
	defer es.batchMu.Unlock()
	return es.batchAck[seq]
}

// prefillHistory writes evalWindow of history for every series.
func (es *evalScale) prefillHistory(end time.Time) error {
	start := time.Now()
	for t := 0; t < evalTenants; t++ {
		tenant := fmt.Sprintf("e%d", t)
		var batch []metrics.Sample
		var owners []*evalSeries
		flush := func() error {
			if len(batch) == 0 {
				return nil
			}
			if _, err := es.post(tenant, batch); err != nil {
				return err
			}
			for i, s := range owners {
				s.add(batch[i].At, batch[i].Value, -1)
			}
			batch, owners = batch[:0], owners[:0]
			return nil
		}
		for _, s := range es.series {
			if s.tenant != tenant {
				continue
			}
			for at := end.Add(-evalWindow); at.Before(end); at = at.Add(evalSampleEvery) {
				batch = append(batch, metrics.Sample{Metric: s.metric,
					Scope: metrics.Scope{Service: s.service, Version: s.version}, At: at, Value: s.next(at)})
				owners = append(owners, s)
				if len(batch) == 4096 {
					if err := flush(); err != nil {
						return err
					}
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
	}
	es.prefill = time.Since(start).Seconds()
	return nil
}

func (s *evalSeries) add(at time.Time, v float64, batch int32) {
	s.mu.Lock()
	s.sent = append(s.sent, sentSample{at: at, v: v, batch: batch})
	s.count++
	s.sum += v
	s.mu.Unlock()
}

// generate sends one group's batch every evalTick until ctx ends: four
// samples per series, stamped at the quarter seconds of the second
// that just passed. Every fifth tick it also posts one trace per
// version of every topology run.
func (es *evalScale) generate(ctx context.Context) {
	t0 := time.Now().Truncate(evalTick).Add(evalTick)
	var batch []metrics.Sample
	for k := 0; ; k++ {
		due := t0.Add(time.Duration(k) * evalTick)
		if sleepUntil(ctx, due) != nil {
			return
		}
		es.late.add(time.Since(due))
		g := es.groups[k%evalGroups]
		batch = batch[:0]
		for _, s := range g {
			for q := 3; q >= 0; q-- {
				at := due.Add(-time.Duration(q) * evalSampleEvery)
				batch = append(batch, metrics.Sample{Metric: s.metric,
					Scope: metrics.Scope{Service: s.service, Version: s.version}, At: at, Value: s.next(at)})
			}
		}
		seq, err := es.post(g[0].tenant, batch)
		if err != nil {
			es.batchErr++
			es.b.failf("metrics batch: %v", err)
		} else {
			es.batchOK++
			for i := range batch {
				g[i/4].add(batch[i].At, batch[i].Value, seq)
			}
		}
		if k%5 == 0 {
			es.postSpans(due)
		}
	}
}

// postSpans posts, per tenant, one two-span trace per version of each
// of its topology runs: the service calling its database.
func (es *evalScale) postSpans(at time.Time) {
	for t := 0; t < evalTenants; t++ {
		tenant := fmt.Sprintf("e%d", t)
		var spans []tracing.Span
		for _, r := range es.runs {
			if !r.topology || r.tenant != tenant {
				continue
			}
			for _, v := range []string{"v1", "v2"} {
				es.traceSeq++
				trace := tracing.TraceID(es.traceSeq)
				root := tracing.SpanID(es.traceSeq<<1 | 1)
				spans = append(spans,
					tracing.Span{TraceID: trace, SpanID: root, Service: r.name, Version: v,
						Endpoint: "GET /item", Start: at, Duration: 3 * time.Millisecond},
					tracing.Span{TraceID: trace, SpanID: root + 1, ParentID: root, Service: r.name + "-db",
						Version: "v1", Endpoint: "query", Start: at.Add(time.Millisecond), Duration: time.Millisecond})
			}
		}
		if len(spans) == 0 {
			continue
		}
		frame := es.senc.Encode(spans)
		req, err := http.NewRequest(http.MethodPost, es.st.url+"/v1/spans", bytes.NewReader(frame))
		if err != nil {
			es.spanErr++
			continue
		}
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Authorization", "Bearer "+token(tenant))
		start := time.Now()
		resp, err := es.client.Do(req)
		if err != nil {
			es.spanErr++
			es.b.failf("span batch: %v", err)
			continue
		}
		body := drain(resp)
		es.spans.add(time.Since(start))
		es.b.tr.record(0, 0, 0, "server.spans", start, time.Now())
		var ack struct{ Accepted, Dropped int }
		if resp.StatusCode != http.StatusAccepted || json.Unmarshal(body, &ack) != nil ||
			ack.Accepted != len(spans) || ack.Dropped != 0 {
			es.spanErr++
			es.b.failf("span batch answered %s %s", resp.Status, body)
			continue
		}
		es.spanOK++
	}
}

// classOf names the run class of a service for per-class query counts.
func classOf(service string) string {
	switch {
	case strings.HasPrefix(service, "L"):
		return "ladder"
	case strings.HasPrefix(service, "D"):
		return "distinct"
	}
	return ""
}

// setupEvalScale boots the stack, installs the edge routes for user
// traffic, prefills history and launches every run.
func (es *evalScale) setup(edge *edgeInputs) error {
	tenants := []string{edgeTenant}
	for t := 0; t < evalTenants; t++ {
		tenants = append(tenants, fmt.Sprintf("e%d", t))
	}
	st, err := boot(es.b, stackConfig{tenants: tenants, agents: 4, maxConcurrent: 64, classOf: classOf})
	if err != nil {
		return err
	}
	es.st = st
	if err := edge.install(st, es.b.opt.seed); err != nil {
		return err
	}
	if err := es.prefillHistory(time.Now()); err != nil {
		return err
	}
	// Launches are paced over two check intervals, so the runs' check
	// instants spread evenly over the interval on every set-up.
	t0 := time.Now()
	pace := 2 * evalInterval / time.Duration(len(es.runs))
	for i, r := range es.runs {
		_ = sleepUntil(context.Background(), t0.Add(time.Duration(i)*pace))
		checks := make([]evalCheck, 0, len(r.checks))
		for _, c := range r.checks {
			checks = append(checks, c)
		}
		sort.Slice(checks, func(i, j int) bool { return checks[i].name < checks[j].name })
		run, took, err := st.submit(es.client, r.tenant, evalDSL(r.name, checks))
		if err != nil {
			return fmt.Errorf("launching %s: %w", r.key(), err)
		}
		es.submit.add(took)
		es.b.tr.record(0, 0, 0, "server.submit", time.Now().Add(-took), time.Now())
		r.run = run
	}
	return st.waitSynced(10 * time.Second)
}

// checkSeries compares, per series, the count and sum the store
// answers over all time with what the generator sent.
func (es *evalScale) checkSeries() {
	since := time.Now().Add(-24 * time.Hour)
	for _, s := range es.series {
		scope := metrics.Scope{Tenant: s.tenant, Service: s.service, Version: s.version}
		n, err1 := es.st.store.Query(s.metric, scope, since, metrics.AggCount)
		sum, err2 := es.st.store.Query(s.metric, scope, since, metrics.AggSum)
		ok := err1 == nil && err2 == nil && int64(n) == s.count && sum == s.sum
		es.b.op("series-check", ok)
		if !ok {
			es.b.failf("%s %s: store count %v sum %v, sent %d and %v", s.metric, scope, n, sum, s.count, s.sum)
		}
	}
}

// checkValues recomputes every valueCheckEvery-th check result of each
// run from the samples the generator sent: exactly for mean, max and
// sum, within the sketch's relative error for p95. The store may or may
// not have ingested the batches in flight when a check ran, so any
// prefix of them is accepted.
func (es *evalScale) checkValues() {
	for _, r := range es.runs {
		n := 0
		for _, ev := range r.run.Events() {
			if ev.Type != bifrost.EventCheckResult || ev.Check == "" {
				continue
			}
			n++
			if n%valueCheckEvery != 0 {
				continue
			}
			c := r.checks[ev.Check]
			got, ok := strings.CutPrefix(ev.Detail, "value=")
			if !ok {
				continue
			}
			got, _, _ = strings.Cut(got, ";")
			pass := es.valueMatches(r.cand[c.metric], c, ev.At, got)
			es.b.op("value-check", pass)
			if !pass {
				es.b.failf("%s check %s at %s: recorded value=%s does not match the samples sent",
					r.key(), c.name, ev.At.Format(time.StampMicro), got)
			}
		}
	}
}

const sketchError = 1.05 // the store's quantile sketch: √1.1 − 1 ≈ 4.9 %, plus %.4g rounding

func (es *evalScale) valueMatches(s *evalSeries, c evalCheck, now time.Time, got string) bool {
	lo := now.Add(-c.window).Unix()
	s.mu.Lock()
	samples := append([]sentSample(nil), s.sent...)
	s.mu.Unlock()
	// Batches of this series not yet acknowledged when the check ran,
	// in send order.
	var pending []int32
	seen := map[int32]bool{}
	for _, x := range samples {
		if x.batch >= 0 && !seen[x.batch] && !es.ackOf(x.batch).Before(now) {
			seen[x.batch] = true
			pending = append(pending, x.batch)
		}
	}
	for extra := 0; extra <= min(len(pending), 3); extra++ {
		in := map[int32]bool{}
		for _, p := range pending[:extra] {
			in[p] = true
		}
		var vals []float64
		for _, x := range samples {
			if x.at.Unix() < lo {
				continue
			}
			if x.batch >= 0 && seen[x.batch] && !in[x.batch] {
				continue
			}
			vals = append(vals, x.v)
		}
		if len(vals) == 0 {
			continue
		}
		if aggregateMatches(vals, c.agg, got) {
			return true
		}
	}
	return false
}

func aggregateMatches(vals []float64, agg metrics.Aggregation, got string) bool {
	var want float64
	switch agg {
	case metrics.AggP95:
		v, err := strconv.ParseFloat(got, 64)
		if err != nil {
			return false
		}
		sort.Float64s(vals)
		h := 0.95 * float64(len(vals)-1)
		lo, hi := vals[int(math.Floor(h))], vals[int(math.Ceil(h))]
		return v >= lo/sketchError && v <= hi*sketchError
	case metrics.AggMean, metrics.AggSum:
		for _, v := range vals {
			want += v
		}
		if agg == metrics.AggMean {
			want /= float64(len(vals))
		}
	case metrics.AggMax:
		want = math.Inf(-1)
		for _, v := range vals {
			want = math.Max(want, v)
		}
	default:
		return false
	}
	return fmt.Sprintf("%.4g", want) == got
}

// layers reports eval-scale's per-layer metrics.
func (es *evalScale) layers(rb *rollbackTimes, elapsed time.Duration) {
	b, st := es.b, es.st
	rb.layers(b)
	b.layer("metrics.prefill_s", "s", es.prefill)
	b.layer("server.submit_p50_ms", "ms", es.submit.quantileMs(0.5))
	b.layer("server.spans_p50_us", "us", us(es.spans.quantile(0.5)))
	b.layer("wire.encode_p50_us", "us", us(es.encode.quantile(0.5)))
	b.layer("wire.post_p50_us", "us", us(b.tr.hist("wire.post").quantile(0.5)))
	b.layer("wire.post_p99_us", "us", us(b.tr.hist("wire.post").quantile(0.99)))
	b.layer("wire.flushes", "count", float64(totalFlushes(st)))
	evals, busy := st.engine.EvalStats()
	b.layer("bifrost.eval_busy_us", "us", us(busy)/float64(max(evals, 1)))
	ep := st.engine.EvalPlane()
	b.layer("bifrost.cache_hit_ratio", "ratio", float64(ep.CacheHits)/float64(max(ep.CacheHits+ep.CacheMisses, 1)))
	b.layer("bifrost.inline_evals", "count", float64(ep.InlineEvals))
	if st.tq != nil {
		var ladderEvals, distinctEvals int64
		for _, r := range es.runs {
			for _, ev := range r.run.Events() {
				if ev.Type != bifrost.EventCheckResult && ev.Type != bifrost.EventTopologyVerdict {
					continue
				}
				if r.ladder {
					ladderEvals++
				} else {
					distinctEvals++
				}
			}
		}
		b.layer("metrics.queries_per_eval.ladder", "ratio", float64(st.tq.count("ladder"))/float64(max(ladderEvals, 1)))
		b.layer("metrics.queries_per_eval.distinct", "ratio", float64(st.tq.count("distinct"))/float64(max(distinctEvals, 1)))
		b.layer("metrics.query_p50_us", "us", us(b.tr.hist("metrics.query").quantile(0.5)))
		b.layer("metrics.query_p99_us", "us", us(b.tr.hist("metrics.query").quantile(0.99)))
		b.layer("health.verdict_p50_us", "us", us(b.tr.hist("health.verdict").quantile(0.5)))
		b.layer("health.verdict_p99_us", "us", us(b.tr.hist("health.verdict").quantile(0.99)))
		b.layer("journal.append_p50_us", "us", us(b.tr.hist("journal.append").quantile(0.5)))
		b.layer("journal.append_p99_us", "us", us(b.tr.hist("journal.append").quantile(0.99)))
		b.layer("journal.bytes_per_append", "B", float64(st.tj.bytes.Load())/float64(max(st.tj.appends.Load(), 1)))
	}
	b.layer("journal.syncs", "count", float64(st.fileLog.Stats().Syncs))
	hs := st.hub.Stats()
	b.layer("fleet.frames", "count", float64(hs.Broadcasts+hs.Heartbeats+hs.Snapshots+hs.CatchUps))
	b.layer("fleet.drops", "count", float64(hs.Lagged))
	b.layer("tracing.spans", "count", float64(st.collector.SpanCount()))
	b.layer("tracing.drops", "count", float64(st.collector.Drops()))
	b.notef("window %s", elapsed.Round(time.Millisecond))
}
