package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/agent"
	"contexp/internal/bifrost"
	"contexp/internal/fleet"
	"contexp/internal/health"
	"contexp/internal/journal"
	"contexp/internal/metrics"
	"contexp/internal/microsim"
	"contexp/internal/router"
	"contexp/internal/server"
	"contexp/internal/tenancy"
	"contexp/internal/tracing"
	"contexp/internal/wire"
)

// stackConfig sizes one boot of the system under test.
type stackConfig struct {
	tenants       []string // each gets the bearer token "tok-<tenant>"
	agents        int
	maxConcurrent int
	// classOf, when set, classifies services for the traced querier's
	// per-class query counts.
	classOf func(service string) string
}

// stack is one booted system: the control plane as cmd/contexpd wires
// it, edge agents as cmd/contexp-agent sets them up, and two backends
// (v1 and v2) that answer at once with their version name.
type stack struct {
	b   *bench
	dir string

	fileLog   *journal.FileLog
	tj        *tracedJournal // nil untraced
	tq        *tracedQuerier // nil untraced
	table     *router.Table
	store     *metrics.Store
	collector *tracing.LiveCollector
	monitor   *health.Monitor
	engine    *bifrost.Engine
	sched     *bifrost.Scheduler
	hub       *fleet.Hub
	srv       *http.Server
	url       string

	agents   []*edgeAgent
	backends map[string]*backend
	// stages stamps rollback stages from the traced journal.
	stages stageClock
	watch  *routeWatcher
}

type edgeAgent struct {
	a     *agent.Agent
	srv   *http.Server
	url   string
	telem *wire.Client
}

func token(tenant string) string { return "tok-" + tenant }

var stackSeq atomic.Int64

// boot starts a complete system and waits until every agent has
// applied the control plane's current table.
func boot(b *bench, cfg stackConfig) (_ *stack, err error) {
	st := &stack{b: b, dir: filepath.Join(b.workDir, fmt.Sprintf("stack-%d", stackSeq.Add(1))),
		backends: map[string]*backend{}}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	st.table = router.NewTable()
	st.store = metrics.NewStore(0)
	pairs := make([]string, len(cfg.tenants))
	for i, t := range cfg.tenants {
		pairs[i] = t + "=" + token(t)
	}
	resolver, err := tenancy.ParseTokens(strings.Join(pairs, ","))
	if err != nil {
		return nil, err
	}
	st.collector = tracing.NewLiveCollector(100_000)
	st.monitor = health.NewMonitor(st.collector, 0)
	if st.fileLog, err = journal.Open(filepath.Join(st.dir, "journal"), journal.Options{}); err != nil {
		return nil, err
	}
	var jnl journal.Journal = st.fileLog
	var querier bifrost.Querier = st.store
	var assessor bifrost.TopologyAssessor = st.monitor
	if b.tr != nil {
		st.tj = &tracedJournal{Journal: st.fileLog, tr: b.tr, onRec: st.stages.onRecord}
		jnl = st.tj
		st.tq = &tracedQuerier{store: st.store, tr: b.tr, classOf: cfg.classOf, counts: map[string]int64{}}
		querier = st.tq
		assessor = tracedAssessor{Monitor: st.monitor, tr: b.tr}
	}
	st.engine, err = bifrost.NewEngine(bifrost.Config{
		Table: st.table, Store: querier, DefaultCheckInterval: 5 * time.Second,
		Journal: jnl, Topology: assessor,
	})
	if err != nil {
		return nil, err
	}
	if _, err := st.engine.Recover(jnl); err != nil {
		return nil, err
	}
	if err := bifrost.CompactJournal(jnl); err != nil {
		return nil, err
	}
	st.sched, err = bifrost.NewScheduler(bifrost.SchedulerConfig{
		Engine: st.engine, Journal: jnl, MaxConcurrent: cfg.maxConcurrent, Capacity: 1,
	})
	if err != nil {
		return nil, err
	}
	st.hub = fleet.New(fleet.Config{Table: st.table, HeartbeatInterval: 5 * time.Second})
	api, err := server.New(server.Config{
		Engine: st.engine, Table: st.table, Store: st.store, Journal: jnl, Scheduler: st.sched,
		Traces: st.collector, Health: st.monitor, Fleet: st.hub, Auth: resolver,
	})
	if err != nil {
		return nil, err
	}
	if st.srv, st.url, err = serve(api.Handler()); err != nil {
		return nil, err
	}
	for _, v := range []string{"v1", "v2"} {
		be, err := startBackend(v, b.tr, st.url, token(stormTenant))
		if err != nil {
			return nil, err
		}
		st.backends[v] = be
	}
	st.watch = &routeWatcher{stop: make(chan struct{})}
	st.watch.add(st.table)
	for i := 0; i < cfg.agents; i++ {
		ea, err := st.startAgent(i, token(cfg.tenants[0]))
		if err != nil {
			return nil, err
		}
		st.agents = append(st.agents, ea)
		st.watch.add(ea.a.Table())
	}
	return st, st.waitSynced(10 * time.Second)
}

// serve listens on a loopback port and serves h until closed.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}

func (st *stack) startAgent(i int, tok string) (*edgeAgent, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := agent.Config{
		ID: fmt.Sprintf("agent-%d", i), ControlPlane: st.url, AdvertiseAddr: ln.Addr().String(),
		HeartbeatInterval: 5 * time.Second, LeaseTTL: 15 * time.Second, Token: tok,
	}
	// As contexp-agent does with its default --telemetry-batch 256.
	cfg.Telemetry = wire.NewClient(st.url, st.b.tr.httpClient("wire.post"), 256)
	cfg.Telemetry.SetToken(tok)
	a, err := agent.New(cfg)
	if err != nil {
		ln.Close()
		return nil, err
	}
	a.Start()
	srv := &http.Server{Handler: a.Handler()}
	go func() { _ = srv.Serve(ln) }()
	return &edgeAgent{a: a, srv: srv, url: "http://" + ln.Addr().String(), telem: cfg.Telemetry}, nil
}

// waitSynced waits until every agent is connected and has applied the
// control plane's current table version.
func (st *stack) waitSynced(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		want := st.table.Version()
		ok := true
		for _, ea := range st.agents {
			if !ea.a.Connected() || ea.a.Version() != want {
				ok = false
				break
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("agents did not reach table version %d within %s", want, timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// mount registers a proxy for a routed service on every agent, with
// upstreams v1 and v2 at the backends' /<name> prefix.
func (st *stack) mount(routeKey string) ([]*router.Proxy, error) {
	_, name := tenancy.Split(routeKey)
	var out []*router.Proxy
	for _, ea := range st.agents {
		p, err := ea.a.RegisterProxy(routeKey, map[string]string{
			"v1": st.backends["v1"].url + "/" + name,
			"v2": st.backends["v2"].url + "/" + name,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// close stops everything boot started and waits for it.
func (st *stack) close() {
	if st.watch != nil {
		st.watch.close()
	}
	for _, ea := range st.agents {
		_ = ea.a.Close()
		_ = ea.srv.Close()
	}
	if st.sched != nil {
		st.sched.Close()
	}
	if st.engine != nil {
		for _, r := range st.engine.Runs() {
			r.Abort()
		}
		for _, r := range st.engine.Runs() {
			select {
			case <-r.Done():
			case <-time.After(5 * time.Second):
			}
		}
	}
	if st.hub != nil {
		st.hub.Close()
	}
	for _, be := range st.backends {
		be.close()
	}
	if st.srv != nil {
		_ = st.srv.Close()
	}
	if st.fileLog != nil {
		_ = st.fileLog.Close()
	}
}

// submit posts a strategy to the control plane as tenant and returns
// the live run.
func (st *stack) submit(c *http.Client, tenant, dsl string) (*bifrost.Run, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, st.url+"/v1/strategies", strings.NewReader(dsl))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Authorization", "Bearer "+token(tenant))
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	took := time.Since(start)
	body := drain(resp)
	if resp.StatusCode != http.StatusCreated {
		return nil, took, fmt.Errorf("submitting strategy: %s: %s", resp.Status, body)
	}
	s, err := bifrost.ParseStrategy(dsl)
	if err != nil {
		return nil, took, err
	}
	run, ok := st.engine.Get(tenancy.Qualify(tenant, s.Name))
	if !ok {
		return nil, took, fmt.Errorf("run %s not found after launch", s.Name)
	}
	return run, took, nil
}

// --- backends ---

// backend serves every service's version on one listener: the first
// path segment names the service. It answers at once with its version
// name, counts dark-launch copies per service, applies the fault
// injector of instrumented services, and reports their telemetry over
// a wire.Client.
type backend struct {
	version string
	srv     *http.Server
	url     string
	tr      *tracer

	inj   atomic.Pointer[microsim.Injector]
	telem *wire.Client

	mu           sync.Mutex
	dark         map[string]int64
	instrumented map[string]bool

	// Traced runs: entry and exit instants per benchmark request id.
	stamps sync.Map // uint64 -> [2]time.Time

	flushStop chan struct{}
	flushDone chan struct{}
	pending   atomic.Int64
}

const (
	// headerReq carries a traced request's id, which is also the id
	// of its root span.
	headerReq = "X-Bench-Req"
	// flushPeriod is how often backends ship buffered telemetry.
	flushPeriod = 100 * time.Millisecond
)

func startBackend(version string, tr *tracer, controlURL, tok string) (*backend, error) {
	be := &backend{version: version, tr: tr, dark: map[string]int64{}, instrumented: map[string]bool{},
		flushStop: make(chan struct{}), flushDone: make(chan struct{})}
	be.telem = wire.NewClient(controlURL, tr.httpClient("wire.post"), wire.DefaultBatch)
	be.telem.SetToken(tok)
	var err error
	if be.srv, be.url, err = serve(http.HandlerFunc(be.serveHTTP)); err != nil {
		return nil, err
	}
	go be.flushLoop()
	return be, nil
}

func (be *backend) instrument(service string) {
	be.mu.Lock()
	be.instrumented[service] = true
	be.mu.Unlock()
}

func (be *backend) darkCopies(service string) int64 {
	be.mu.Lock()
	defer be.mu.Unlock()
	return be.dark[service]
}

func (be *backend) serveHTTP(w http.ResponseWriter, r *http.Request) {
	entry := time.Now()
	service, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
	be.mu.Lock()
	if r.Header.Get("X-Dark-Launch") == "true" {
		be.dark[service]++
	}
	instrumented := be.instrumented[service]
	be.mu.Unlock()
	status := http.StatusOK
	if instrumented {
		failed := be.inj.Load().Apply(service, be.version, "GET /", entry).ForceError
		errV := 0.0
		if failed {
			status, errV = http.StatusInternalServerError, 1
		}
		be.telem.RecordBatch([]metrics.Sample{
			{Metric: "errors", Scope: metrics.Scope{Service: service, Version: be.version}, At: entry, Value: errV},
			{Metric: "latency", Scope: metrics.Scope{Service: service, Version: be.version}, At: entry,
				Value: float64(1 + time.Since(entry).Microseconds())},
		})
		be.pending.Add(2)
	}
	w.Header().Set("Content-Type", "text/plain")
	w.WriteHeader(status)
	_, _ = w.Write([]byte(be.version))
	if be.tr != nil && r.Header.Get("X-Dark-Launch") == "" {
		if id := parseID(r.Header.Get(headerReq)); id != 0 {
			be.stamps.Store(id, [2]time.Time{entry, time.Now()})
			be.tr.record(0, id, id, "backend", entry, time.Now())
		}
	}
}

// flushLoop ships buffered telemetry every flushPeriod, at whole
// multiples of it on the wall clock: rollback rounds launch at a fixed
// offset within a second, so their checks always run at the same
// distance after a flush.
func (be *backend) flushLoop() {
	defer close(be.flushDone)
	next := time.Now().Truncate(flushPeriod)
	for {
		next = next.Add(flushPeriod)
		select {
		case <-be.flushStop:
			_ = be.telem.Flush()
			return
		case <-time.After(time.Until(next)):
		}
		if be.pending.Swap(0) == 0 {
			continue
		}
		_ = be.telem.Flush()
	}
}

func (be *backend) close() {
	close(be.flushStop)
	<-be.flushDone
	_ = be.srv.Close()
}

// --- routing observers ---

// routeWatcher observes the control plane's table (index 0) and every
// agent's table through Table.Subscribe and stamps, per waiter, the
// instant each table first routes a service wholly to one version.
type routeWatcher struct {
	tables []*router.Table
	stop   chan struct{}
	wg     sync.WaitGroup

	mu      sync.Mutex
	waiters []*waiter
}

// waiter waits for one service to be routed 100 % to one version on
// every watched table.
type waiter struct {
	service string
	version string
	at      []time.Time // per table; zero until reached
	left    int
	done    chan struct{}
}

func (rw *routeWatcher) add(t *router.Table) {
	idx := len(rw.tables)
	rw.tables = append(rw.tables, t)
	ch, cancel := t.Subscribe()
	rw.wg.Add(1)
	go func() {
		defer rw.wg.Done()
		defer cancel()
		for {
			select {
			case <-rw.stop:
				return
			case <-ch:
				rw.observe(idx, time.Now())
			}
		}
	}()
}

func (rw *routeWatcher) observe(idx int, now time.Time) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	kept := rw.waiters[:0]
	for _, w := range rw.waiters {
		if w.at[idx].IsZero() && routedWholly(rw.tables[idx], w.service, w.version) {
			w.at[idx] = now
			if w.left--; w.left == 0 {
				close(w.done)
				continue
			}
		}
		kept = append(kept, w)
	}
	rw.waiters = kept
}

// expect registers a waiter. It fails when some table already routes
// the service wholly to the version: the change it waits for would
// then be invisible.
func (rw *routeWatcher) expect(service, version string) (*waiter, error) {
	w := &waiter{service: service, version: version, at: make([]time.Time, len(rw.tables)),
		left: len(rw.tables), done: make(chan struct{})}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	for _, t := range rw.tables {
		if routedWholly(t, service, version) {
			return nil, fmt.Errorf("%s already routed wholly to %s", service, version)
		}
	}
	rw.waiters = append(rw.waiters, w)
	return w, nil
}

func (rw *routeWatcher) cancel(w *waiter) {
	rw.mu.Lock()
	defer rw.mu.Unlock()
	for i, x := range rw.waiters {
		if x == w {
			rw.waiters = append(rw.waiters[:i], rw.waiters[i+1:]...)
			return
		}
	}
}

func (rw *routeWatcher) close() {
	close(rw.stop)
	rw.wg.Wait()
}

// last is the instant the last table reached the routing.
func (w *waiter) last() time.Time {
	var t time.Time
	for _, a := range w.at {
		if a.After(t) {
			t = a
		}
	}
	return t
}

// routedWholly reports whether t sends every request for service to
// version: one backend and no rules.
func routedWholly(t *router.Table, service, version string) bool {
	r, err := t.Route(service)
	if err != nil {
		return false
	}
	return len(r.Rules) == 0 && len(r.Backends) == 1 && r.Backends[0].Version == version
}

// --- HTTP helpers ---

func drain(resp *http.Response) []byte {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	return body
}

func parseID(s string) uint64 {
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0
		}
		v = v*10 + uint64(c-'0')
	}
	return v
}

// newClient is a keep-alive HTTP client with its own connection pool.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}}
}

func closeClient(c *http.Client) {
	if t, ok := c.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

var errStopped = errors.New("stopped")

// sleepUntil waits until t or until ctx ends.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return errStopped
	case <-timer.C:
		return nil
	}
}
