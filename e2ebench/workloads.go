package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"time"

	"contexp/internal/bifrost"
	"contexp/internal/metrics"
	"contexp/internal/wire"
)

// Every workload reports every end-to-end metric. Each drives its own
// traffic through the measured window, then runs short fixed probes
// for the metrics its window does not produce:
//
//	edge-serve      window: closed-loop edge traffic
//	                probes: faulted rounds (ttr, eval_cpu), ingest
//	rollback-storm  window: rounds with open-loop user traffic
//	                probes: closed-loop edge traffic, ingest
//	eval-scale      window: 128 runs, open-loop telemetry, regressions
//	                probes: closed-loop edge traffic, ingest, after the
//	                        runs are stopped
const (
	// setupRepeats is how many times a run boots the system; setup_s is
	// the median. eval-scale's set-up prefills history and launches
	// 128 runs, so it repeats fewer times.
	setupRepeats     = 21
	evalSetupRepeats = 5
	probeRounds      = 5
	// The edge probe sends a fixed number of requests, so every run of a
	// workload attempts the same operations; edgeProbeMax only stops a
	// stalled probe.
	edgeProbeRequests = 40_000
	edgeProbeMax      = 60 * time.Second
	// rollback-storm runs one faulted and one healthy round per
	// roundPairSeconds of --seconds (at least one pair): a fixed number
	// of rounds per run length.
	roundPairSeconds = 6
	// The ingest probe posts this many binary batches of this many
	// samples back to back, spread over ingestSeries series.
	ingestBatches = 6000
	ingestChunk   = 200
	ingestBatch   = 256
	ingestSeries  = 16
)

// setupRepeated boots the system n times with up, keeps the last
// boot, and reports setup_s as the median boot-to-ready time.
func setupRepeated(b *bench, n int, up func() (*stack, error)) (*stack, error) {
	var times []float64
	for i := 0; ; i++ {
		runtime.GC()
		start := time.Now()
		st, err := up()
		if err != nil {
			return nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if i == n-1 {
			b.endToEnd("setup_s", "s", quantile(times, 0.5))
			return st, nil
		}
		st.close()
	}
}

// edgeWindow drives closed-loop edge traffic for d, or for limit
// requests when limit is positive, and reports the edge end-to-end
// metrics and the router and agent layers, then checks candidate
// shares and mirror copies.
func edgeWindow(b *bench, st *stack, in *edgeInputs, d time.Duration, limit int64) {
	runtime.GC()
	et := newEdgeTraffic(b, st, in)
	resolves0 := totalResolves(st)
	ctx, cancel := context.WithTimeout(context.Background(), d)
	start, cpu0 := time.Now(), cpuTime()
	et.closedLoop(ctx, limit)
	cancel()
	elapsed, cpu := time.Since(start), cpuTime()-cpu0
	et.tally()
	n := float64(et.proxyLat.count() + et.resolveLat.count())
	b.endToEnd("proxy_p50_us", "us", us(p50(et.proxyLat)))
	b.endToEnd("resolve_p50_us", "us", us(p50(et.resolveLat)))
	b.endToEnd("edge_cpu_us", "us", us(cpu)/n)
	b.layer("agent.proxy_p99_us", "us", us(p99(et.proxyLat)))
	b.layer("agent.resolve_p99_us", "us", us(p99(et.resolveLat)))
	b.layer("agent.req_per_s", "1/s", n/elapsed.Seconds())
	b.notef("edge: %.0f requests in %s (%.0f/s), proxy p99 %.1f us, resolve p99 %.1f us",
		n, elapsed.Round(time.Millisecond), n/elapsed.Seconds(), us(p99(et.proxyLat)), us(p99(et.resolveLat)))
	b.layer("router.forward_p50_us", "us", us(et.forward.quantile(0.5)))
	b.layer("router.return_p50_us", "us", us(et.ret.quantile(0.5)))
	b.layer("router.direct_p50_us", "us", us(et.direct.quantile(0.5)))
	b.layer("agent.resolves", "count", float64(totalResolves(st)-resolves0))
	et.checkShares()
	et.checkMirrors()
	b.layer("router.mirror_drops", "count", float64(totalMirrorDrops(in)))
}

// ingestProbe posts ingestBatches binary metric batches back to back as
// tenant and checks that the store counts every sample. It reports the
// process CPU time per batch as ingest_cpu_us, the median over chunks
// of ingestChunk batches (a burst of host contention lands on a chunk,
// not on the figure), and the median round trip per layer.
func ingestProbe(b *bench, st *stack, tenant string) {
	runtime.GC()
	rng := rand.New(rand.NewSource(b.opt.seed ^ 0x1a6e57))
	c := newClient()
	defer closeClient(c)
	var enc wire.MetricsEncoder
	var lat hist
	base := time.Now().Add(-time.Minute)
	var chunks []float64 // CPU µs per batch, per ingestChunk batches
	cpu0 := cpuTime()
	sent := make([]int64, ingestSeries)
	samples := make([]metrics.Sample, ingestBatch)
	for i := 0; i < ingestBatches; i++ {
		for j := range samples {
			s := (i*ingestBatch + j) % ingestSeries
			samples[j] = metrics.Sample{Metric: "ingest-probe",
				Scope: metrics.Scope{Service: fmt.Sprintf("p%02d", s), Version: "v1"},
				At:    base.Add(time.Duration(i) * time.Millisecond), Value: float64(rng.Intn(1000))}
		}
		start := time.Now()
		req, err := http.NewRequest(http.MethodPost, st.url+"/v1/metrics", bytes.NewReader(enc.Encode(samples)))
		if err != nil {
			b.op("ingest-batch", false)
			continue
		}
		req.Header.Set("Content-Type", wire.ContentType)
		req.Header.Set("Authorization", "Bearer "+token(tenant))
		resp, err := c.Do(req)
		ok := err == nil
		if ok {
			drain(resp)
			ok = resp.StatusCode == http.StatusAccepted
		}
		lat.add(time.Since(start))
		b.op("ingest-batch", ok)
		if !ok {
			b.failf("ingest probe batch %d: %v", i, err)
			continue
		}
		for j := range samples {
			sent[(i*ingestBatch+j)%ingestSeries]++
		}
		if (i+1)%ingestChunk == 0 {
			cpu := cpuTime()
			chunks = append(chunks, us(cpu-cpu0)/ingestChunk)
			cpu0 = cpu
		}
	}
	b.endToEnd("ingest_cpu_us", "us", quantile(chunks, 0.5))
	b.layer("server.ingest_p50_us", "us", us(lat.quantile(0.5)))
	b.notef("ingest: %d batches of %d samples, round trip p50 %.1f us", ingestBatches, ingestBatch, us(lat.quantile(0.5)))
	for s, want := range sent {
		scope := metrics.Scope{Tenant: tenant, Service: fmt.Sprintf("p%02d", s), Version: "v1"}
		n, err := st.store.Query("ingest-probe", scope, base.Add(-time.Hour), metrics.AggCount)
		ok := err == nil && int64(n) == want
		b.op("ingest-count", ok)
		if !ok {
			b.failf("ingest probe series %s: store counts %v, sent %d", scope, n, want)
		}
	}
}

// reportLags reports the check lags of the given runs inside [from, to]
// as per-layer metrics (they follow the host's timer and scheduling
// noise too closely to gate on; see README.md).
func reportLags(b *bench, lags *windowed) {
	b.layer("bifrost.check_lag_p50_ms", "ms", ms(p50(lags)))
	b.layer("bifrost.check_lag_p99_ms", "ms", ms(p99(lags)))
	b.notef("check lag p50 %.3f ms, p99 %.3f ms over %d check results", ms(p50(lags)), ms(p99(lags)), lags.count())
}

// writeTrace writes a traced run's spans; each workload keeps only its
// latest trace, so repeated traced runs do not fill the disk.
func writeTrace(b *bench) error {
	return b.tr.writeOut(".bench_build/trace", b.opt.workload)
}

// --- edge-serve ---

// runEdgeServe: two closed-loop clients mix proxied requests and
// resolves over a table of sticky canaries, group rules, dark-launch
// mirrors and baseline-only routes. No runs and no table changes
// during the measured window; afterwards fixed probes give the
// control-plane metrics.
func runEdgeServe(b *bench) error {
	in := genEdgeInputs(b.opt.seed, edgeServices, edgeUsers, 1<<16, 0.5)
	st, err := setupRepeated(b, setupRepeats, func() (*stack, error) {
		s, err := boot(b, stackConfig{tenants: []string{edgeTenant, stormTenant}, agents: 2, maxConcurrent: 4})
		if err != nil {
			return nil, err
		}
		if err := in.install(s, b.opt.seed); err == nil {
			err = installRoundServices(s)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	defer st.close()

	runtime.GC()
	gc0 := readGC()
	flushes0 := totalFlushes(st)
	edgeWindow(b, st, in, b.window(), 0)
	b.endToEnd("heap_live_mb", "MiB", heapLiveMiB())
	b.layerGC(gc0)
	b.layer("wire.flushes", "count", float64(totalFlushes(st)-flushes0))

	rd := newRoundRunner(b, st)
	cpuPerEval := rd.probe(probeRounds)
	defer closeClient(rd.client)
	b.endToEnd("ttr_p50_ms", "ms", rd.rb.ttr.quantileMs(0.5))
	b.endToEnd("eval_cpu_us", "us", cpuPerEval)
	reportLags(b, rd.lags)
	ingestProbe(b, st, stormTenant)
	rd.layers()
	return writeTrace(b)
}

// --- rollback-storm ---

// runRollbackStorm alternates faulted and healthy rounds for the
// measured window, with fixed-rate user traffic, then probes edge
// traffic and ingest, and checks that an engine recovered from the
// journal agrees on every round.
func runRollbackStorm(b *bench) error {
	in := genEdgeInputs(b.opt.seed, evalEdgeServices, 500, 1<<14, 0.5)
	st, err := setupRepeated(b, setupRepeats, func() (*stack, error) {
		s, err := boot(b, stackConfig{tenants: []string{stormTenant, edgeTenant}, agents: 4, maxConcurrent: 4})
		if err != nil {
			return nil, err
		}
		if err := installRoundServices(s); err == nil {
			err = in.install(s, b.opt.seed)
		}
		if err == nil {
			err = s.waitSynced(10 * time.Second)
		}
		if err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	})
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			st.close()
		}
	}()

	// The round strategy's latency-max threshold (1e7 µs) is written back
	// by bifrost.WriteDSL as "1e+07", which ParseStrategy rejects, so
	// recovery skips every round: a fault of the program, kept visible.
	b.knownFault = "recovery-check"
	runtime.GC()
	rd := newRoundRunner(b, st)
	defer closeClient(rd.client)
	ctx, cancel := context.WithCancel(context.Background())
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		rd.userTraffic(ctx)
	}()
	gc0 := readGC()
	evals0, _ := st.engine.EvalStats()
	flushes0 := totalFlushes(st)
	cpu0 := cpuTime()
	from := time.Now()
	pairs := max(1, b.opt.seconds/roundPairSeconds)
	var roundErr error
	for i := 0; i < 2*pairs && roundErr == nil; i++ {
		roundErr = rd.round(i%2 == 0)
	}
	to := time.Now()
	cpu := cpuTime() - cpu0
	evals1, _ := st.engine.EvalStats()
	cancel()
	<-trafficDone
	if roundErr != nil {
		return roundErr
	}
	b.endToEnd("heap_live_mb", "MiB", heapLiveMiB())
	b.layerGC(gc0)
	b.layer("wire.flushes", "count", float64(totalFlushes(st)-flushes0))
	rd.finish(from, to)
	b.endToEnd("ttr_p50_ms", "ms", rd.rb.ttr.quantileMs(0.5))
	if n := rd.rb.ttr.len(); n >= 100 {
		b.notef("ttr_p90_ms = %.4g ms over %d faulted rounds", rd.rb.ttr.quantileMs(0.9), n)
	} else {
		b.notef("ttr_p90_ms not reported: %d faulted rounds, fewer than 100", n)
	}
	b.endToEnd("eval_cpu_us", "us", us(cpu)/float64(max(evals1-evals0, 1)))
	b.notef("%d rounds, %d evaluations, time-to-rollback per faulted round %.1f ms",
		len(rd.runs), evals1-evals0, rd.rb.ttr.v)
	reportLags(b, rd.lags)

	edgeWindow(b, st, in, edgeProbeMax, edgeProbeRequests)
	ingestProbe(b, st, stormTenant)
	rd.layers()

	// Recovery: a fresh engine replaying the journal must report the
	// terminal status every round ended with.
	st.close()
	closed = true
	if err := checkRecovery(b, st.dir, rd.runs); err != nil {
		return err
	}
	return writeTrace(b)
}

// --- eval-scale ---

// runEvalScale launches 128 runs, streams their telemetry open loop,
// regresses a known set of candidates mid-window, checks every run and
// series, then stops the runs and probes edge traffic and ingest.
func runEvalScale(b *bench) error {
	edge := genEdgeInputs(b.opt.seed, evalEdgeServices, 500, 1<<14, 0.5)
	var es *evalScale
	st, err := setupRepeated(b, evalSetupRepeats, func() (*stack, error) {
		// Series generators restart from the seed on every set-up, so
		// the kept set-up sends exactly what a single one would.
		if es != nil {
			closeClient(es.client)
		}
		es = genEvalScale(b)
		es.client = newClient()
		if err := es.setup(edge); err != nil {
			if es.st != nil {
				es.st.close()
			}
			return nil, err
		}
		return es.st, nil
	})
	if err != nil {
		return err
	}
	defer st.close()
	defer closeClient(es.client)

	// Regressions: each regressing candidate's latency rises at its
	// onset; a waiter stamps when every table routes it back to v1.
	type regression struct {
		r     *evalRun
		onset time.Time
		w     *waiter
	}
	var regs []*regression
	runtime.GC()
	from := time.Now()
	for _, r := range es.runs {
		if r.regress {
			onset := from.Add(regressFirst + time.Duration(len(regs))*regressSpacing)
			r.cand["latency"].regressAt = onset
			regs = append(regs, &regression{r: r, onset: onset})
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		es.generate(ctx)
	}()
	defer func() {
		cancel()
		wg.Wait()
	}()
	gc0 := readGC()
	cpu0 := cpuTime()
	evals0, _ := st.engine.EvalStats()
	for _, g := range regs {
		_ = sleepUntil(context.Background(), g.onset)
		w, err := st.watch.expect(g.r.key(), "v1")
		if err != nil {
			b.failf("%s: %v at onset", g.r.key(), err)
			continue
		}
		g.w = w
		st.stages.watch(g.r.key(), g.onset)
	}
	_ = sleepUntil(context.Background(), from.Add(b.window()))
	to := time.Now()
	cpu := cpuTime() - cpu0
	evals1, _ := st.engine.EvalStats()
	b.endToEnd("heap_live_mb", "MiB", heapLiveMiB())
	b.layerGC(gc0)
	b.endToEnd("eval_cpu_us", "us", us(cpu)/float64(max(evals1-evals0, 1)))
	lags := newWindowed(from, time.Second)
	for _, r := range es.runs {
		addCheckLags(lags, r.run, evalInterval, from, to)
	}
	reportLags(b, lags)
	b.notef("%d evaluations in the window, %d metrics batches, generator late p99 %.3f ms",
		evals1-evals0, es.batchOK, ms(es.late.quantile(0.99)))

	// Rollbacks still under way finish before they are judged; the
	// telemetry keeps flowing meanwhile.
	var rb rollbackTimes
	for _, g := range regs {
		if g.w == nil {
			continue
		}
		select {
		case <-g.w.done:
		case <-time.After(time.Until(g.onset.Add(40 * time.Second))):
		}
		st.watch.cancel(g.w)
		select {
		case <-g.w.done:
			rb.add(g.w, st.stages.get(g.r.key()), g.onset)
		default:
		}
	}
	b.endToEnd("ttr_p50_ms", "ms", rb.ttr.quantileMs(0.5))
	cancel()
	wg.Wait()

	b.opN("metrics-batch", es.batchOK+es.batchErr, es.batchErr)
	b.opN("span-batch", es.spanOK+es.spanErr, es.spanErr)
	for _, r := range es.runs {
		want := bifrost.StatusRunning
		if r.regress {
			want = bifrost.StatusRolledBack
		}
		got := r.run.Status()
		b.op("run-outcome", got == want)
		if got != want {
			b.failf("%s ended %s, want %s", r.key(), got, want)
		}
	}
	es.checkSeries()
	es.checkValues()

	// The probes run on a quiet control plane: with the runs stopped,
	// their figures do not swing with how the host schedules the
	// evaluation plane around them.
	for _, r := range es.runs {
		r.run.Abort()
	}
	for _, r := range es.runs {
		<-r.run.Done()
	}
	edgeWindow(b, st, edge, edgeProbeMax, edgeProbeRequests)
	ingestProbe(b, st, "e0")
	es.layers(&rb, to.Sub(from))
	b.layer("gen.late_p99_ms", "ms", ms(es.late.quantile(0.99)))
	return writeTrace(b)
}
