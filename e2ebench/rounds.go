package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/microsim"
	"contexp/internal/router"
	"contexp/internal/tenancy"
)

// Round shape. Every round launches the same strategy: a 50 % sticky
// canary guarded by four checks every 100 ms over a 1-s window, then a
// two-step gradual rollout to promotion. A faulted round turns an
// error storm on the candidate at a known instant and must roll back.
const (
	stormTenant   = "storm"
	roundServices = 4 // rounds rotate over these, so one round's errors leave the next round's window
	roundInterval = 100 * time.Millisecond
	roundWindow   = time.Second
	roundFailures = 2
	roundCanary   = 3 * time.Second
	roundStep     = 300 * time.Millisecond
	roundUserRate = 200.0 // user requests per second while rounds run
	roundUsers    = 400
	// A faulted round launches at launchSubSecond within a wall-clock
	// second and its fault starts onsetLead later: its checks then run
	// 50 ms after each backend telemetry flush (flushes sit on whole
	// 100-ms marks) and the fault starts 50 ms before one, so every
	// faulted round sees its first errors at the same check.
	launchSubSecond = 50 * time.Millisecond
	onsetLead       = 1200 * time.Millisecond
	// rollbackAllowance covers delivery and evaluation on top of the
	// strategy's own detection delay in the time-to-rollback bound.
	rollbackAllowance = 500 * time.Millisecond
)

// ttrBound is the latest a faulted round may finish rolling back after
// onset: the check window, plus the one-second bucket a window start
// can straddle, plus failures-to-trip check intervals, plus one
// telemetry flush period, plus rollbackAllowance.
const ttrBound = roundWindow + time.Second + roundFailures*roundInterval + flushPeriod + rollbackAllowance

func roundServiceName(k int) string { return fmt.Sprintf("r%d", k) }

func roundServiceKey(k int) string { return tenancy.Qualify(stormTenant, roundServiceName(k)) }

func roundDSL(name, service string) string {
	checks := fmt.Sprintf(`
        check "any-error" {
            metric    = errors
            aggregate = max
            max       = 0
            window    = %[1]s
            interval  = %[2]s
            failures  = %[3]d
        }
        check "error-rate" {
            metric    = errors
            aggregate = mean
            max       = 0.2
            window    = %[1]s
            interval  = %[2]s
            failures  = %[3]d
        }
        check "latency-p95" {
            metric    = latency
            aggregate = p95
            max       = 100000
            window    = %[1]s
            interval  = %[2]s
        }
        check "latency-max" {
            metric    = latency
            aggregate = max
            max       = 10000000
            window    = %[1]s
            interval  = %[2]s
        }`, roundWindow, roundInterval, roundFailures)
	return fmt.Sprintf(`strategy %q {
    service   = %q
    baseline  = "v1"
    candidate = "v2"
    phase "canary" {
        practice = canary
        traffic  = 50%%
        duration = %s
%s
        on success      -> phase "rollout"
        on failure      -> rollback
        on inconclusive -> rollback
    }
    phase "rollout" {
        practice      = gradual-rollout
        steps         = 50%%, 100%%
        step-duration = %s
%s
        on success      -> promote
        on failure      -> rollback
        on inconclusive -> rollback
    }
}
`, name, service, roundCanary, checks, roundStep, checks)
}

// installRoundServices routes every round service wholly to v1, mounts
// it on the agents and has the backends instrument it.
func installRoundServices(st *stack) error {
	for k := 0; k < roundServices; k++ {
		key := roundServiceKey(k)
		if err := st.table.Set(router.Route{Service: key, Backends: []router.Backend{{Version: "v1", Weight: 1}}}); err != nil {
			return err
		}
		if _, err := st.mount(key); err != nil {
			return err
		}
		for _, be := range st.backends {
			be.instrument(roundServiceName(k))
		}
	}
	return st.waitSynced(10 * time.Second)
}

// stageClock stamps, in traced runs, when the rollback path of a
// watched run passes each journal stage: the first failing check
// result after onset (detect) and the rollback's traffic-applied
// record (decide).
type stageClock struct {
	mu     sync.Mutex
	stages map[string]*stages // run key -> stages
}

type stages struct {
	onset, detect, decide time.Time
}

func (sc *stageClock) watch(run string, onset time.Time) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.stages == nil {
		sc.stages = map[string]*stages{}
	}
	sc.stages[run] = &stages{onset: onset}
}

func (sc *stageClock) onRecord(r journalRecord, at time.Time) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s := sc.stages[r.Run]
	if s == nil || at.Before(s.onset) {
		return
	}
	switch {
	case r.Type == bifrost.EventCheckResult && r.Outcome == bifrost.OutcomeFail && s.detect.IsZero():
		s.detect = at
	case r.Type == bifrost.EventTrafficApplied && r.Detail == "baseline=100%" && !s.detect.IsZero() && s.decide.IsZero():
		s.decide = at
	}
}

func (sc *stageClock) get(run string) stages {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if s := sc.stages[run]; s != nil {
		return *s
	}
	return stages{}
}

// rollbackTimes folds one observed rollback into the stage samples:
// time-to-rollback always, the per-stage split when traced.
type rollbackTimes struct {
	ttr, detect, decide, swap, fanout durs
	fanoutMax                         durs
}

func (rt *rollbackTimes) add(w *waiter, s stages, onset time.Time) time.Duration {
	ttr := w.last().Sub(onset)
	rt.ttr.add(ttr)
	if !s.decide.IsZero() {
		rt.detect.add(s.detect.Sub(onset))
		rt.decide.add(s.decide.Sub(s.detect))
		rt.swap.add(w.at[0].Sub(s.decide))
	}
	var worst time.Duration
	for _, at := range w.at[1:] {
		d := at.Sub(w.at[0])
		rt.fanout.add(d)
		worst = max(worst, d)
	}
	rt.fanoutMax.add(worst)
	return ttr
}

func (rt *rollbackTimes) layers(b *bench) {
	if rt.detect.len() > 0 {
		b.layer("bifrost.detect_p50_ms", "ms", rt.detect.quantileMs(0.5))
		b.layer("bifrost.decide_p50_ms", "ms", rt.decide.quantileMs(0.5))
		b.layer("router.swap_p50_ms", "ms", rt.swap.quantileMs(0.5))
	}
	if rt.fanout.len() > 0 {
		b.layer("fleet.fanout_p50_ms", "ms", rt.fanout.quantileMs(0.5))
		b.layer("fleet.fanout_max_ms", "ms", rt.fanoutMax.maxMs())
	}
}

// roundRunner runs rollback rounds one after another against a stack,
// with fixed-rate user traffic flowing through the agents' proxies to
// the current round's service.
type roundRunner struct {
	b      *bench
	st     *stack
	client *http.Client
	seq    int
	users  []string

	current  atomic.Int64 // round service the user traffic goes to
	late     hist
	userOK   atomic.Int64
	userFail atomic.Int64

	rb     rollbackTimes
	submit durs
	lags   *windowed
	runs   []roundRecord
}

type roundRecord struct {
	run *bifrost.Run
	key string
}

func newRoundRunner(b *bench, st *stack) *roundRunner {
	rng := rand.New(rand.NewSource(b.opt.seed ^ 0x5eed))
	now := time.Now()
	rd := &roundRunner{b: b, st: st, client: newClient(), lags: newWindowed(now, time.Second)}
	for i := 0; i < roundUsers; i++ {
		rd.users = append(rd.users, fmt.Sprintf("r%08x", rng.Uint32()))
	}
	return rd
}

// userTraffic sends fixed-rate user requests until ctx ends: three in
// four proxied, one in four resolved. An answer is correct when it
// names v1 or v2; the candidate may answer 500 while its fault is on.
func (rd *roundRunner) userTraffic(ctx context.Context) {
	openLoop(ctx, roundUserRate, &rd.late, func(c *http.Client, i int) {
		key := roundServiceKey(int(rd.current.Load()))
		agentURL := rd.st.agents[i%len(rd.st.agents)].url
		user := rd.users[i%len(rd.users)]
		var ok bool
		if i%4 == 3 {
			resp, err := c.Get(agentURL + "/v1/resolve?" + url.Values{"service": {key}, "user": {user}}.Encode())
			if err == nil {
				body := drain(resp)
				ok = resp.StatusCode == http.StatusOK && (containsVersion(body, "v1") || containsVersion(body, "v2"))
			}
		} else {
			req, err := http.NewRequest(http.MethodGet, agentURL+"/proxy/"+url.PathEscape(key)+"/item", nil)
			if err != nil {
				return
			}
			req.Header.Set("X-User-ID", user)
			resp, err := c.Do(req)
			if err == nil {
				v := string(drain(resp))
				ok = (resp.StatusCode == http.StatusOK && (v == "v1" || v == "v2")) ||
					(resp.StatusCode == http.StatusInternalServerError && v == "v2")
			}
		}
		if ok {
			rd.userOK.Add(1)
		} else {
			rd.userFail.Add(1)
		}
	})
}

func containsVersion(body []byte, v string) bool {
	return bytes.Contains(body, []byte(`"version":"`+v+`"`))
}

// round runs one round to its end and checks it. The error is for
// failures of the benchmark itself; a round that fails its checks is
// counted, not returned.
func (rd *roundRunner) round(faulted bool) error {
	k := rd.seq % roundServices
	name := fmt.Sprintf("round-%04d", rd.seq)
	rd.seq++
	key := roundServiceKey(k)
	kind := "round-healthy"
	if faulted {
		kind = "round-faulted"
	}
	if faulted {
		_ = sleepUntil(context.Background(), nextSubSecond(time.Now(), launchSubSecond))
	}
	userFail0 := rd.userFail.Load()
	run, took, err := rd.st.submit(rd.client, stormTenant, roundDSL(name, roundServiceName(k)))
	if err != nil {
		return err
	}
	rd.submit.add(took)
	rd.b.tr.record(0, 0, 0, "server.submit", time.Now().Add(-took), time.Now())
	rd.current.Store(int64(k))
	launched := time.Now()
	rd.runs = append(rd.runs, roundRecord{run: run, key: tenancy.Qualify(stormTenant, name)})

	want := "v2"
	var onset time.Time
	if faulted {
		want = "v1"
		onset = launched.Add(onsetLead)
		_ = sleepUntil(context.Background(), onset.Add(-5*time.Millisecond))
	} else {
		_ = sleepUntil(context.Background(), launched.Add(roundCanary/2))
	}
	w, err := rd.st.watch.expect(key, want)
	if err != nil {
		rd.b.op(kind, false)
		rd.b.failf("%s: %v at the watch instant", name, err)
		<-run.Done()
		return nil
	}
	if faulted {
		rd.st.stages.watch(tenancy.Qualify(stormTenant, name), onset)
		inj, err := microsim.NewInjector(onset, []microsim.Fault{{Kind: microsim.FaultErrorStorm,
			Service: roundServiceName(k), Version: "v2", Duration: time.Minute, ErrorRate: 1}}, rd.b.opt.seed)
		if err != nil {
			return err
		}
		_ = sleepUntil(context.Background(), onset)
		rd.st.backends["v2"].inj.Store(inj)
	}
	select {
	case <-run.Done():
	case <-time.After(roundCanary + 10*time.Second):
	}
	select {
	case <-w.done:
	case <-time.After(2 * time.Second):
	}
	rd.st.watch.cancel(w)
	rd.st.backends["v2"].inj.Store(nil)

	ok := true
	fail := func(format string, args ...any) {
		ok = false
		rd.b.failf(name+": "+format, args...)
	}
	select {
	case <-w.done:
	default:
		fail("not every table routes %s wholly to %s", key, want)
	}
	status := run.Status()
	if faulted {
		if status != bifrost.StatusRolledBack {
			fail("status %s, want rolled-back", status)
		}
		if at := rollbackAt(run); !at.After(onset) {
			fail("rolled back at %s, before the fault onset %s", at.Format(time.StampMicro), onset.Format(time.StampMicro))
		}
		if ok {
			if ttr := rd.rb.add(w, rd.st.stages.get(tenancy.Qualify(stormTenant, name)), onset); ttr > ttrBound {
				fail("time-to-rollback %s exceeds the bound %s", ttr, ttrBound)
			}
		}
	} else if status != bifrost.StatusSucceeded {
		fail("status %s, want succeeded", status)
	}
	rd.b.op(kind, ok)
	// The user requests that overlapped the round: every answer must
	// name v1 or v2 (the candidate answers 500 while its fault is on).
	userFailed := rd.userFail.Load() - userFail0
	rd.b.op("user-traffic", userFailed == 0)
	if userFailed > 0 {
		rd.b.failf("%s: %d user requests got an answer naming neither version", name, userFailed)
	}
	return nil
}

// nextSubSecond is the first instant at or after t whose offset within
// its wall-clock second is off.
func nextSubSecond(t time.Time, off time.Duration) time.Time {
	sec := t.Truncate(time.Second)
	if at := sec.Add(off); !at.Before(t) {
		return at
	}
	return sec.Add(time.Second + off)
}

// rollbackAt is when the run journaled its rollback routing.
func rollbackAt(run *bifrost.Run) time.Time {
	var at time.Time
	for _, ev := range run.Events() {
		if ev.Type == bifrost.EventTrafficApplied && ev.Detail == "baseline=100%" {
			at = ev.At
		}
	}
	return at
}

// addCheckLags adds to h, for every metric check result of run inside
// [from, to], how late it was evaluated after its due instant: phase
// (or rollout step) start plus k check intervals.
func addCheckLags(h *windowed, run *bifrost.Run, interval time.Duration, from, to time.Time) {
	var start time.Time
	k := map[string]int{}
	for _, ev := range run.Events() {
		switch ev.Type {
		case bifrost.EventPhaseEntered, bifrost.EventRolloutStep:
			start = ev.At
			clear(k)
		case bifrost.EventCheckResult, bifrost.EventTopologyVerdict:
			if ev.Check == "" {
				continue
			}
			k[ev.Check]++
			if ev.At.Before(from) || ev.At.After(to) {
				continue
			}
			h.add(ev.At, ev.At.Sub(start.Add(time.Duration(k[ev.Check])*interval)))
		}
	}
}

// probe runs n faulted rounds with user traffic, for workloads whose
// own window leaves the control plane idle, and returns the process
// CPU time per check evaluation over them.
func (rd *roundRunner) probe(n int) (cpuPerEval float64) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rd.userTraffic(ctx)
	}()
	evals0, _ := rd.st.engine.EvalStats()
	cpu0 := cpuTime()
	from := time.Now()
	for i := 0; i < n; i++ {
		if err := rd.round(true); err != nil {
			rd.b.op("round-faulted", false)
			rd.b.failf("probe round: %v", err)
		}
	}
	to := time.Now()
	cpu := cpuTime() - cpu0
	evals1, _ := rd.st.engine.EvalStats()
	cancel()
	<-done
	rd.finish(from, to)
	return us(cpu) / float64(max(evals1-evals0, 1))
}

// finish gathers the check lags of every round inside [from, to].
func (rd *roundRunner) finish(from, to time.Time) {
	for _, r := range rd.runs {
		addCheckLags(rd.lags, r.run, roundInterval, from, to)
	}
}

// layers reports the per-layer metrics the rounds produce.
func (rd *roundRunner) layers() {
	b := rd.b
	rd.rb.layers(b)
	if rd.submit.len() > 0 {
		b.layer("server.submit_p50_ms", "ms", rd.submit.quantileMs(0.5))
	}
	st := rd.st
	if st.tj != nil {
		b.layer("journal.append_p50_us", "us", us(b.tr.hist("journal.append").quantile(0.5)))
		b.layer("journal.append_p99_us", "us", us(b.tr.hist("journal.append").quantile(0.99)))
		b.layer("journal.bytes_per_append", "B", float64(st.tj.bytes.Load())/float64(max(st.tj.appends.Load(), 1)))
	}
	b.layer("journal.syncs", "count", float64(st.fileLog.Stats().Syncs))
	hs := st.hub.Stats()
	b.layer("fleet.frames", "count", float64(hs.Broadcasts+hs.Heartbeats+hs.Snapshots+hs.CatchUps))
	b.layer("fleet.drops", "count", float64(hs.Lagged))
	b.layer("gen.late_p99_ms", "ms", ms(rd.late.quantile(0.99)))
	if st.tq != nil {
		evals, busy := st.engine.EvalStats()
		b.layer("bifrost.eval_busy_us", "us", us(busy)/float64(max(evals, 1)))
		b.layer("metrics.query_p50_us", "us", us(b.tr.hist("metrics.query").quantile(0.5)))
		b.layer("metrics.query_p99_us", "us", us(b.tr.hist("metrics.query").quantile(0.99)))
	}
	ep := st.engine.EvalPlane()
	b.layer("bifrost.cache_hit_ratio", "ratio", float64(ep.CacheHits)/float64(max(ep.CacheHits+ep.CacheMisses, 1)))
	b.layer("bifrost.inline_evals", "count", float64(ep.InlineEvals))
	b.layer("wire.post_p50_us", "us", us(b.tr.hist("wire.post").quantile(0.5)))
	b.layer("wire.post_p99_us", "us", us(b.tr.hist("wire.post").quantile(0.99)))
	b.layer("tracing.spans", "count", float64(st.collector.SpanCount()))
	b.layer("tracing.drops", "count", float64(st.collector.Drops()))
}

func checkRecovery(b *bench, dir string, runs []roundRecord) error {
	j, err := journal.Open(dir+"/journal", journal.Options{})
	if err != nil {
		return err
	}
	defer j.Close()
	eng, err := bifrost.NewEngine(bifrost.Config{Table: router.NewTable(), Store: metrics.NewStore(0)})
	if err != nil {
		return err
	}
	rep, err := eng.Recover(j)
	if err != nil {
		return err
	}
	skipped := map[string]string{}
	for _, rr := range rep.Runs {
		skipped[rr.Name] = rr.Action
	}
	for _, r := range runs {
		got, ok := eng.Get(r.key)
		pass := ok && got.Status() == r.run.Status()
		b.op("recovery-check", pass)
		if !pass {
			status := "missing"
			if ok {
				status = got.Status().String()
			}
			b.failf("%s: recovered status %s (%s), live run ended %s", r.key, status, skipped[r.key], r.run.Status())
		}
	}
	for _, r := range eng.Runs() {
		r.Abort()
		select {
		case <-r.Done():
		case <-time.After(5 * time.Second):
		}
	}
	return nil
}
