package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"contexp/internal/expmodel"
	"contexp/internal/router"
	"contexp/internal/tenancy"
)

const (
	edgeTenant   = "edge"
	betaGroup    = "beta"
	edgeServices = 32
	edgeUsers    = 2000
	edgeClients  = 2 // closed-loop clients: one per core of the reference machine
)

// Route kinds of the edge table, by service index modulo 4.
const (
	kindCanary   = iota // sticky weighted canary
	kindGroup           // beta group pinned to the candidate, the rest weighted
	kindMirror          // baseline only, every request mirrored to the candidate
	kindBaseline        // baseline only
)

// edgeService is one routed service of the edge table.
type edgeService struct {
	key     string // tenant-qualified route key
	path    string // escaped /proxy/<key>/ prefix on an agent
	kind    int
	weight  float64 // candidate weight of the split (canary, group)
	proxies []*router.Proxy
}

type edgeUser struct {
	id   string
	beta bool
}

// edgeInputs is everything edge traffic needs, generated from the seed.
type edgeInputs struct {
	services []*edgeService
	users    []edgeUser
	ops      []edgeOp
}

type edgeOp struct {
	resolve bool
	user    int
	service int
}

func genEdgeInputs(seed int64, services, users, ops int, resolveShare float64) *edgeInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &edgeInputs{}
	for i := 0; i < services; i++ {
		key := tenancy.Qualify(edgeTenant, fmt.Sprintf("s%02d", i))
		in.services = append(in.services, &edgeService{
			key:    key,
			path:   "/proxy/" + url.PathEscape(key) + "/item",
			kind:   i % 4,
			weight: float64(5+rng.Intn(41)) / 100, // 5 %..45 %
		})
	}
	for i := 0; i < users; i++ {
		in.users = append(in.users, edgeUser{id: fmt.Sprintf("u%08x", rng.Uint32()), beta: rng.Float64() < 0.1})
	}
	for i := 0; i < ops; i++ {
		in.ops = append(in.ops, edgeOp{resolve: rng.Float64() < resolveShare,
			user: rng.Intn(users), service: rng.Intn(services)})
	}
	return in
}

// install sets every edge route on the control plane's table and
// mounts a proxy for it on every agent.
func (in *edgeInputs) install(st *stack, seed int64) error {
	for i, s := range in.services {
		r := router.Route{Service: s.key, StickySalt: fmt.Sprintf("salt-%d-%d", seed, i)}
		switch s.kind {
		case kindCanary:
			r.Backends = []router.Backend{{Version: "v1", Weight: 1 - s.weight}, {Version: "v2", Weight: s.weight}}
		case kindGroup:
			r.Backends = []router.Backend{{Version: "v1", Weight: 1 - s.weight}, {Version: "v2", Weight: s.weight}}
			r.Rules = []router.Rule{{Name: "group-beta", Match: router.GroupMatcher{Group: expmodel.UserGroup(betaGroup)}, Version: "v2"}}
		case kindMirror:
			r.Backends = []router.Backend{{Version: "v1", Weight: 1}}
			r.Mirrors = []string{"v2"}
		default:
			r.Backends = []router.Backend{{Version: "v1", Weight: 1}}
		}
		if err := st.table.Set(r); err != nil {
			return err
		}
		var err error
		if s.proxies, err = st.mount(s.key); err != nil {
			return err
		}
	}
	return nil
}

// edgeTraffic sends edge requests and checks every answer.
type edgeTraffic struct {
	b  *bench
	st *stack
	in *edgeInputs

	proxyLat, resolveLat *windowed
	forward, ret, direct hist

	mu       sync.Mutex
	assigned map[[2]int]string // (user, service) -> version
	proxied  map[int]int64     // mirrored service -> proxied requests
	okN      map[string]int64
	failN    map[string]int64
}

func newEdgeTraffic(b *bench, st *stack, in *edgeInputs) *edgeTraffic {
	now := time.Now()
	return &edgeTraffic{b: b, st: st, in: in, assigned: map[[2]int]string{}, proxied: map[int]int64{},
		okN: map[string]int64{}, failN: map[string]int64{},
		proxyLat: newWindowed(now, time.Second), resolveLat: newWindowed(now, time.Second)}
}

// expected is the version a request must get when the answer does not
// depend on the sticky hash; "" when it does.
func (et *edgeTraffic) expected(op edgeOp) string {
	s := et.in.services[op.service]
	switch {
	case s.kind == kindMirror || s.kind == kindBaseline:
		return "v1"
	case s.kind == kindGroup && et.in.users[op.user].beta:
		return "v2"
	}
	return ""
}

// do sends one operation, timed from start, and checks its answer.
func (et *edgeTraffic) do(c *http.Client, agentURL string, op edgeOp, start time.Time) {
	var version string
	var err error
	if op.resolve {
		version, err = et.resolve(c, agentURL, op)
		et.resolveLat.add(start, time.Since(start))
	} else {
		version, err = et.proxy(c, agentURL, op)
		et.proxyLat.add(start, time.Since(start))
	}
	kind := "proxy"
	if op.resolve {
		kind = "resolve"
	}
	ok := err == nil && et.check(op, version)
	et.mu.Lock()
	if ok {
		et.okN[kind]++
	} else {
		et.failN[kind]++
	}
	if !op.resolve && err == nil && et.in.services[op.service].kind == kindMirror {
		et.proxied[op.service]++
	}
	et.mu.Unlock()
	if !ok {
		if err == nil {
			err = fmt.Errorf("version %s inconsistent", version)
		}
		et.b.failf("%s %s user %s: %v", kind, et.in.services[op.service].key, et.in.users[op.user].id, err)
	}
}

// check verifies one answer: a fixed version where routing fixes it,
// and the same version for a user on every request otherwise.
func (et *edgeTraffic) check(op edgeOp, version string) bool {
	if want := et.expected(op); want != "" {
		return version == want
	}
	if version != "v1" && version != "v2" {
		return false
	}
	k := [2]int{op.user, op.service}
	et.mu.Lock()
	defer et.mu.Unlock()
	if prev, ok := et.assigned[k]; ok {
		return prev == version
	}
	et.assigned[k] = version
	return true
}

func (et *edgeTraffic) userHeaders(h http.Header, op edgeOp) {
	u := et.in.users[op.user]
	h.Set("X-User-ID", u.id)
	if u.beta {
		h.Set("X-User-Groups", betaGroup)
	}
}

func (et *edgeTraffic) proxy(c *http.Client, agentURL string, op edgeOp) (string, error) {
	s := et.in.services[op.service]
	req, err := http.NewRequest(http.MethodGet, agentURL+s.path, nil)
	if err != nil {
		return "", err
	}
	et.userHeaders(req.Header, op)
	tr := et.b.tr
	var id uint64
	var send time.Time
	if tr != nil {
		id = tr.id()
		req.Header.Set(headerReq, strconv.FormatUint(id, 10))
		send = time.Now()
	}
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	body := drain(resp)
	if tr != nil {
		recv := time.Now()
		tr.record(id, 0, id, "edge.proxy", send, recv)
		for _, be := range et.st.backends {
			if v, ok := be.stamps.LoadAndDelete(id); ok {
				st := v.([2]time.Time)
				et.forward.add(st[0].Sub(send))
				et.ret.add(recv.Sub(st[1]))
			}
		}
		if id%8 == 0 {
			et.directRequest(c, s, op)
		}
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("proxy answered %s", resp.Status)
	}
	return string(body), nil
}

// directRequest sends the same request straight to the baseline
// backend: the reference the proxy's overhead is measured against.
func (et *edgeTraffic) directRequest(c *http.Client, s *edgeService, op edgeOp) {
	_, name := tenancy.Split(s.key)
	req, err := http.NewRequest(http.MethodGet, et.st.backends["v1"].url+"/"+name+"/item", nil)
	if err != nil {
		return
	}
	et.userHeaders(req.Header, op)
	start := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return
	}
	drain(resp)
	et.direct.add(time.Since(start))
}

func (et *edgeTraffic) resolve(c *http.Client, agentURL string, op edgeOp) (string, error) {
	s := et.in.services[op.service]
	u := et.in.users[op.user]
	q := url.Values{"service": {s.key}, "user": {u.id}}
	if u.beta {
		q.Set("groups", betaGroup)
	}
	start := time.Now()
	resp, err := c.Get(agentURL + "/v1/resolve?" + q.Encode())
	if err != nil {
		return "", err
	}
	body := drain(resp)
	et.b.tr.record(0, 0, 0, "edge.resolve", start, time.Now())
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("resolve answered %s", resp.Status)
	}
	var dec struct {
		Version string `json:"version"`
	}
	if err := json.Unmarshal(body, &dec); err != nil {
		return "", err
	}
	return dec.Version, nil
}

// closedLoop runs edgeClients clients, each sending its next request
// when the previous one completed, until ctx ends or, when limit is
// positive, until limit requests were sent.
func (et *edgeTraffic) closedLoop(ctx context.Context, limit int64) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < edgeClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer closeClient(c)
			agentURL := et.st.agents[w%len(et.st.agents)].url
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if limit > 0 && i >= limit {
					return
				}
				et.do(c, agentURL, et.in.ops[i%int64(len(et.in.ops))], time.Now())
			}
		}(w)
	}
	wg.Wait()
}

// openLoop sends requests at a fixed rate from edgeClients workers
// until ctx ends; fn sends the i-th request. How late the generator
// ran goes to late.
func openLoop(ctx context.Context, rate float64, late *hist, fn func(c *http.Client, i int)) {
	t0 := time.Now()
	period := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for w := 0; w < edgeClients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient()
			defer closeClient(c)
			for i := w; ; i += edgeClients {
				due := t0.Add(time.Duration(i) * period)
				if sleepUntil(ctx, due) != nil {
					return
				}
				late.add(time.Since(due))
				fn(c, i)
			}
		}(w)
	}
	wg.Wait()
}

// tally moves the request counts into the bench's operation tallies.
func (et *edgeTraffic) tally() {
	et.mu.Lock()
	defer et.mu.Unlock()
	for _, k := range []string{"proxy", "resolve"} {
		et.b.opN(k, et.okN[k]+et.failN[k], et.failN[k])
	}
}

// checkShares verifies, per weighted service, that the share of
// distinct non-beta users on the candidate lies within 4.5 standard
// deviations (plus one user) of the configured weight.
func (et *edgeTraffic) checkShares() {
	et.mu.Lock()
	defer et.mu.Unlock()
	for si, s := range et.in.services {
		if s.kind != kindCanary && s.kind != kindGroup {
			continue
		}
		var n, cand float64
		for k, v := range et.assigned {
			if k[1] != si {
				continue
			}
			n++
			if v == "v2" {
				cand++
			}
		}
		if n < 20 {
			continue
		}
		bound := 4.5*math.Sqrt(s.weight*(1-s.weight)/n) + 1/n
		ok := math.Abs(cand/n-s.weight) <= bound
		et.b.op("share-check", ok)
		if !ok {
			et.b.failf("%s: candidate share %.3f of %d users, configured %.2f (bound ±%.3f)", s.key, cand/n, int(n), s.weight, bound)
		}
	}
}

// checkMirrors verifies, per mirrored service, that the shadow backend
// received one copy per proxied request, minus the copies the proxies
// report dropped. Copies are sent asynchronously, so it waits for them.
func (et *edgeTraffic) checkMirrors() {
	deadline := time.Now().Add(5 * time.Second)
	for si, s := range et.in.services {
		if s.kind != kindMirror {
			continue
		}
		_, name := tenancy.Split(s.key)
		et.mu.Lock()
		want := et.proxied[si]
		et.mu.Unlock()
		var drops uint64
		for _, p := range s.proxies {
			drops += p.MirrorDrops()
		}
		got := et.st.backends["v2"].darkCopies(name)
		for got+int64(drops) < want && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
			got = et.st.backends["v2"].darkCopies(name)
		}
		ok := got+int64(drops) == want
		et.b.op("mirror-check", ok)
		if !ok {
			et.b.failf("%s: %d proxied, %d copies received, %d dropped", s.key, want, got, drops)
		}
	}
}

func totalResolves(st *stack) uint64 {
	var n uint64
	for _, ea := range st.agents {
		n += ea.a.Resolves()
	}
	return n
}

func totalFlushes(st *stack) uint64 {
	var n uint64
	for _, ea := range st.agents {
		n += ea.telem.Flushes()
	}
	for _, be := range st.backends {
		n += be.telem.Flushes()
	}
	return n
}

func totalMirrorDrops(in *edgeInputs) uint64 {
	var n uint64
	for _, s := range in.services {
		for _, p := range s.proxies {
			n += p.MirrorDrops()
		}
	}
	return n
}
