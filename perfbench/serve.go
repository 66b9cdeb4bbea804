package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"adhocradio"
	"adhocradio/internal/service"
)

// The serve load. serveRate is an absolute rate, fixed once at the commit
// that introduced the benchmark: about a third of the closed-loop
// saturation this request mix reached there with two connections
// (RATIONALE.md records the measurement and why not 40 %).
const (
	serveRate     = 160.0 // open-loop requests per second
	hotSpecCount  = 16    // hot topology specs: half the cache's 32 entries, so misses rarely evict them
	missPercent   = 20    // share of requests for fresh, never-seen specs
	closedBatch   = 200   // requests per closed-loop round
	openShare     = 0.4   // share of the measurement time spent in the open loop
	verifySample  = 8     // open-loop responses re-derived byte for byte
	metricsPeriod = time.Second
)

// wireSpec and wireRequest are the client's view of POST /v1/simulate.
type wireSpec struct {
	Kind string  `json:"kind"`
	N    int     `json:"n,omitempty"`
	D    int     `json:"d,omitempty"`
	P    float64 `json:"p,omitempty"`
	Seed uint64  `json:"seed,omitempty"`
}

type wireRequest struct {
	Topology wireSpec `json:"topology"`
	Protocol string   `json:"protocol"`
	Seed     uint64   `json:"seed"`
}

type request struct {
	wire wireRequest
	body []byte
}

// key renders the spec as the service's canonical topology key.
func (s wireSpec) key() string {
	p := strconv.FormatFloat(s.P, 'g', -1, 64)
	switch s.Kind {
	case "gnp":
		return fmt.Sprintf("gnp,n=%d,p=%s,seed=%d", s.N, p, s.Seed)
	default:
		return fmt.Sprintf("layered,n=%d,d=%d,p=%s,seed=%d", s.N, s.D, p, s.Seed)
	}
}

// build constructs the spec's network through the public API.
func (s wireSpec) build() (*adhocradio.Graph, error) {
	if s.Kind == "gnp" {
		return adhocradio.GNPConnected(s.N, s.P, adhocradio.NewRand(s.Seed)), nil
	}
	return adhocradio.RandomLayered(s.N, s.D, s.P, adhocradio.NewRand(s.Seed))
}

func gnpSpec(n int, seed uint64) wireSpec {
	return wireSpec{Kind: "gnp", N: n, P: 6 / float64(n), Seed: seed}
}

func layeredSpec(n, d int, seed uint64) wireSpec {
	return wireSpec{Kind: "layered", N: n, D: d, P: 0.3, Seed: seed}
}

// hotSet returns the specs that most requests reuse.
func hotSet(src *adhocradio.Rand) []wireSpec {
	var hot []wireSpec
	for len(hot) < hotSpecCount {
		switch len(hot) % 4 {
		case 0:
			hot = append(hot, gnpSpec(256, src.Uint64()))
		case 1:
			hot = append(hot, gnpSpec(512, src.Uint64()))
		case 2:
			hot = append(hot, layeredSpec(512, 16, src.Uint64()))
		default:
			hot = append(hot, layeredSpec(1024, 32, src.Uint64()))
		}
	}
	return hot
}

// makeRequests draws count requests: missPercent use a fresh spec (a cache
// miss: build, compile, insert), the rest a hot spec (a cache read).
func makeRequests(src *adhocradio.Rand, hot []wireSpec, count int) []request {
	reqs := make([]request, count)
	for i := range reqs {
		var spec wireSpec
		if src.Intn(100) < missPercent {
			if src.Bool() {
				spec = gnpSpec(512, src.Uint64())
			} else {
				spec = layeredSpec(512, 16, src.Uint64())
			}
		} else {
			spec = hot[src.Intn(len(hot))]
		}
		proto := "kp"
		if src.Bool() {
			proto = "bgi"
		}
		reqs[i].wire = wireRequest{Topology: spec, Protocol: proto, Seed: src.Uint64()}
		reqs[i].body, _ = json.Marshal(reqs[i].wire) // plain structs always marshal
	}
	return reqs
}

// server is radiosd's service behind a loopback listener, in process.
type server struct {
	svc  *service.Service
	srv  *http.Server
	url  string
	done chan error
}

func startServer() (*server, error) {
	svc := service.New(service.Config{})
	svc.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Drain()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP server down, drains the service and waits for both.
func (s *server) stop() error {
	err := s.srv.Shutdown(context.Background())
	s.svc.Drain()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// newClient returns a client holding at most one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// reply is one request's outcome as the client saw it.
type reply struct {
	status int // 0 on a transport error
	hit    bool
	body   []byte
	err    error
	sentAt time.Time
	doneAt time.Time
}

func post(c *http.Client, url string, r *request) reply {
	out := reply{sentAt: time.Now()}
	resp, err := c.Post(url+"/v1/simulate", "application/json", bytes.NewReader(r.body))
	if err != nil {
		out.err, out.doneAt = err, time.Now()
		return out
	}
	out.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	out.doneAt = time.Now()
	if err != nil {
		out.err = err
		return out
	}
	out.status = resp.StatusCode
	out.hit = resp.Header.Get("X-Radiosd-Cache") == "hit"
	return out
}

// failures counts failed requests by class. Nothing is retried or
// filtered: every request sent is either a 200 or one of these.
type failures struct {
	rejected, timeouts, other5xx, transport, other int64
	// first holds the first failure seen, for the report.
	first string
}

func (f *failures) add(r reply) {
	if f.first == "" && (r.err != nil || r.status != http.StatusOK) {
		f.first = fmt.Sprintf("status %d %v %s", r.status, r.err, bytes.TrimSpace(r.body))
	}
	switch {
	case r.err != nil:
		f.transport++
	case r.status == http.StatusOK:
	case r.status == http.StatusServiceUnavailable:
		f.rejected++
	case r.status == http.StatusGatewayTimeout:
		f.timeouts++
	case r.status >= 500:
		f.other5xx++
	default:
		f.other++
	}
}

func (f failures) total() int64 { return f.rejected + f.timeouts + f.other5xx + f.transport + f.other }

// loadResult is one phase of load: every reply, index-aligned with the
// requests, plus the schedule each was due on.
type loadResult struct {
	replies []reply
	due     []time.Time
	wall    time.Duration
	traced  bool
}

// drive sends reqs over the clients. rate > 0 is an open loop: request i
// is due at start + i/rate whether or not earlier ones finished, and waits
// in the generator while both connections are busy. rate == 0 is a closed
// loop: each connection sends its next request when the last completes.
func drive(t *tracer, phase string, url string, clients []*http.Client, reqs []request, rate float64) *loadResult {
	ph := t.begin(phase, -1, -1)
	defer t.end(ph)
	lr := &loadResult{replies: make([]reply, len(reqs)), due: make([]time.Time, len(reqs)), traced: t != nil}
	start := time.Now()
	ch := make(chan int, len(reqs)) // sized to the number of sends
	if rate == 0 {
		for i := range reqs {
			lr.due[i] = start
			ch <- i
		}
		close(ch)
	} else {
		for i := range reqs {
			lr.due[i] = start.Add(time.Duration(float64(i) * float64(time.Second) / rate))
		}
		go func() {
			defer close(ch)
			for i := range reqs {
				time.Sleep(time.Until(lr.due[i]))
				ch <- i
			}
		}()
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for i := range ch {
				s := t.begin("service.request", ph, i)
				lr.replies[i] = post(c, url, &reqs[i])
				if lr.replies[i].status == http.StatusOK {
					d := t.begin("loadgen.decode", s, i)
					var resp service.SimulateResponse
					if err := json.Unmarshal(lr.replies[i].body, &resp); err != nil {
						lr.replies[i].err = fmt.Errorf("decode: %w", err)
					}
					t.end(d)
				}
				t.end(s)
			}
		}(c)
	}
	wg.Wait()
	lr.wall = time.Since(start)
	return lr
}

// sampleQueueDepth polls /metrics at most once per metricsPeriod until
// stop is closed and returns the largest radiosd_queue_depth seen.
func sampleQueueDepth(url string, stop <-chan struct{}) int64 {
	c := newClient()
	defer c.CloseIdleConnections()
	var peak int64
	tick := time.NewTicker(metricsPeriod)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return peak
		case <-tick.C:
		}
		resp, err := c.Get(url + "/metrics")
		if err != nil {
			continue
		}
		b, _ := io.ReadAll(resp.Body) // a short read only loses one sample
		resp.Body.Close()
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "radiosd_queue_depth "); ok {
				if d, err := strconv.ParseInt(v, 10, 64); err == nil && d > peak {
					peak = d
				}
			}
		}
	}
}

func runServe(cfg runConfig) (*report, error) {
	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	src := adhocradio.NewRand(cfg.seed)
	hot := hotSet(src)
	clients := []*http.Client{newClient(), newClient()}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()

	// Set-up: start the service and fill its cache with the hot set. The
	// last of the set-ups is the one measured.
	var srv *server
	var setupDur []float64
	var fails failures
	// Warming sends every hot spec with each protocol on 4 seeds: enough
	// work that set-up is not a few fixed overheads a stall could double.
	var warm []request
	for _, spec := range hot {
		for _, p := range []string{"kp", "bgi"} {
			for seed := uint64(1); seed <= 4; seed++ {
				w := request{wire: wireRequest{Topology: spec, Protocol: p, Seed: seed}}
				w.body, _ = json.Marshal(w.wire) // plain structs always marshal
				warm = append(warm, w)
			}
		}
	}
	for i := 0; i < setups; i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return nil, fmt.Errorf("set-up: stop: %w", err)
			}
		}
		start := time.Now()
		var err error
		if srv, err = startServer(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		lr := drive(t, "setup", srv.url, clients, warm, 0)
		setupDur = append(setupDur, time.Since(start).Seconds())
		for _, r := range lr.replies {
			fails.add(r)
		}
	}

	// Open loop at the fixed rate.
	openDur := time.Duration(openShare * float64(cfg.measure))
	open := makeRequests(src, hot, int(serveRate*openDur.Seconds()))
	stop := make(chan struct{})
	depth := make(chan int64, 1)
	go func() { depth <- sampleQueueDepth(srv.url, stop) }()
	ol := drive(t, "open", srv.url, clients, open, serveRate)
	close(stop)
	queueMax := <-depth

	// Closed loop: fixed batches over both connections, back to back.
	var rounds []*loadResult
	var closedReqs [][]request
	start := time.Now()
	for len(rounds) < 2 || time.Since(start)*time.Duration(len(rounds)+1)/time.Duration(len(rounds)) <= cfg.measure-openDur {
		rt := (*tracer)(nil)
		if len(rounds)%2 == 1 {
			rt = t
		}
		reqs := makeRequests(src, hot, closedBatch)
		rounds = append(rounds, drive(rt, "round", srv.url, clients, reqs, 0))
		closedReqs = append(closedReqs, reqs)
	}
	rss, err := peakRSSMB()
	if err != nil {
		srv.stop()
		return nil, err
	}
	svc := srv.svc
	if err := srv.stop(); err != nil {
		return nil, fmt.Errorf("stop: %w", err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	retainedMB := float64(ms.HeapInuse) / (1 << 20)
	runtime.KeepAlive(svc)

	rep := &report{}
	for _, r := range ol.replies {
		fails.add(r)
	}
	for _, lr := range rounds {
		for _, r := range lr.replies {
			fails.add(r)
		}
	}
	rep.attempted = int64(setups*len(warm) + len(open) + closedBatch*len(rounds))
	rep.failed = fails.total()
	rep.digest, rep.mismatch = verifyServe(open, ol, cfg.seed)
	if rep.mismatch == nil {
		for i, lr := range rounds {
			if err := checkEcho(closedReqs[i], lr); err != nil {
				rep.mismatch = err
				break
			}
		}
	}
	rep.endToEnd = serveEndToEnd(rounds, setupDur, rss)
	if cfg.traced {
		rep.spans = t.snapshot()
		rep.perLayer, rep.notes = servePerLayer(rep.spans, ol, rounds, fails, queueMax, retainedMB, rep.attempted)
	}
	return rep, nil
}

// latencies returns per-request times in ms from due (or from send when
// fromSend), with failed requests as +Inf.
func latencies(lr *loadResult, fromSend bool) []float64 {
	out := make([]float64, len(lr.replies))
	for i, r := range lr.replies {
		switch {
		case r.status != http.StatusOK || r.err != nil:
			out[i] = math.Inf(1)
		case fromSend:
			out[i] = ms(r.doneAt.Sub(r.sentAt))
		default:
			out[i] = ms(r.doneAt.Sub(lr.due[i]))
		}
	}
	return out
}

// finite maps +Inf (a percentile that landed on failed requests) to the
// largest float64, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// serveEndToEnd derives the end-to-end metrics from the untraced
// closed-loop rounds: medians over rounds, so a stall of the host moves a
// round, not the run.
func serveEndToEnd(rounds []*loadResult, setupDur []float64, rss float64) map[string]metric {
	var walls, rtt, rps []float64
	for _, lr := range rounds {
		if lr.traced {
			continue
		}
		walls = append(walls, lr.wall.Seconds())
		rtt = append(rtt, latencies(lr, true)...)
		ok := 0
		for _, r := range lr.replies {
			if r.status == http.StatusOK && r.err == nil {
				ok++
			}
		}
		rps = append(rps, float64(ok)/lr.wall.Seconds())
	}
	return map[string]metric{
		"setup_s":      {median(setupDur), "s"},
		"wall_s":       {median(walls), "s"},
		"trial_p50_ms": {finite(percentile(rtt, 50)), "ms"},
		"trial_p90_ms": {finite(percentile(rtt, 90)), "ms"},
		"sat_rps":      {median(rps), "1/s"},
		"peak_rss_mb":  {rss, "MB"},
	}
}

func servePerLayer(spans []span, ol *loadResult, rounds []*loadResult, f failures, queueMax int64, retainedMB float64, attempted int64) (map[string]metric, []string) {
	m := layerMetrics(layerUnits, serveUnits)
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	var hitMS, missMS, lag []float64
	var sum counts
	hits := 0
	for i, r := range ol.replies {
		lag = append(lag, ms(r.sentAt.Sub(ol.due[i])))
		if r.status != http.StatusOK || r.err != nil {
			continue
		}
		if r.hit {
			hits++
			hitMS = append(hitMS, ms(r.doneAt.Sub(r.sentAt)))
		} else {
			missMS = append(missMS, ms(r.doneAt.Sub(r.sentAt)))
		}
		var resp service.SimulateResponse
		if json.Unmarshal(r.body, &resp) == nil {
			c := resp.Counters
			sum.add(counts{c.Steps, c.Transmissions, c.Receptions, c.Collisions, c.SilentSteps,
				c.LinksDropped, c.JamNoise, c.CrashSkips, c.SleepSkips})
		}
	}
	set("service.hit_p50_ms", percentile(hitMS, 50))
	set("service.miss_p50_ms", percentile(missMS, 50))
	if n := len(hitMS) + len(missMS); n > 0 {
		set("service.cache_hit_ratio", float64(hits)/float64(n))
	}
	set("service.rejected", float64(f.rejected))
	set("service.timeouts", float64(f.timeouts))
	set("service.errors_5xx", float64(f.other5xx))
	set("service.queue_depth_max", float64(queueMax))
	set("service.retained_heap_mb", retainedMB)
	lat := latencies(ol, false)
	set("loadgen.lat_p50_ms", finite(percentile(lat, 50)))
	set("loadgen.lat_p99_ms", finite(percentile(lat, 99)))
	set("loadgen.lag_p99_ms", percentile(lag, 99))
	set("loadgen.sent", float64(len(ol.replies)))
	set("loadgen.transport_errors", float64(f.transport))
	set("fail_ratio", float64(f.total())/float64(attempted))
	setCounters(set, perCounts(counts{}, sum, 1))

	var traced, plain []float64
	for _, lr := range rounds {
		if lr.traced {
			traced = append(traced, lr.wall.Seconds())
		} else {
			plain = append(plain, lr.wall.Seconds())
		}
	}
	set("trace.overhead_s", median(traced)-median(plain))
	notes := shareLines(aggregate(spans), "request", len(traced))
	notes = append(notes,
		fmt.Sprintf("tracing overhead: traced round %.4f s - untraced round %.4f s = %.4f s",
			median(traced), median(plain), median(traced)-median(plain)),
		fmt.Sprintf("failures by class: 503=%d 504=%d other5xx=%d transport=%d other=%d; first: %s",
			f.rejected, f.timeouts, f.other5xx, f.transport, f.other, f.first))
	return m, notes
}

// checkEcho checks that every successful response answers its request.
func checkEcho(reqs []request, lr *loadResult) error {
	for i, r := range lr.replies {
		if r.status != http.StatusOK || r.err != nil {
			continue
		}
		var resp service.SimulateResponse
		if err := json.Unmarshal(r.body, &resp); err != nil {
			return fmt.Errorf("request %d: undecodable response: %w", i, err)
		}
		w := reqs[i].wire
		if resp.Topology != w.Topology.key() || resp.Protocol != w.Protocol || resp.Seed != w.Seed {
			return fmt.Errorf("request %d: response answers %s/%s/%d, request was %s/%s/%d",
				i, resp.Topology, resp.Protocol, resp.Seed, w.Topology.key(), w.Protocol, w.Seed)
		}
	}
	return nil
}

// verifyServe checks every open-loop response against its request,
// re-derives a seeded sample of them byte for byte from a direct
// Runner.RunInto on the same spec and seed, and digests every successful
// response body in request order.
func verifyServe(reqs []request, lr *loadResult, seed uint64) (string, error) {
	if err := checkEcho(reqs, lr); err != nil {
		return "", err
	}
	h := fnv.New64a()
	for i, r := range lr.replies {
		if r.status == http.StatusOK && r.err == nil {
			fmt.Fprintf(h, "%d:%s;", i, r.body)
		}
	}
	runner := adhocradio.NewRunner()
	checked := 0
	for _, i := range adhocradio.NewRand(seed ^ 0x7365727665).Perm(len(reqs)) {
		if checked == verifySample {
			break
		}
		r := lr.replies[i]
		if r.status != http.StatusOK || r.err != nil {
			continue
		}
		want, err := directResponse(runner, reqs[i].wire)
		if err != nil {
			return "", fmt.Errorf("request %d: direct run: %w", i, err)
		}
		if !bytes.Equal(want, r.body) {
			return "", fmt.Errorf("request %d: response differs from a direct run:\n got  %s want %s", i, r.body, want)
		}
		checked++
	}
	if checked == 0 {
		return "", errors.New("no successful response to verify")
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// directResponse computes the response body radiosd must send for w.
func directResponse(runner *adhocradio.Runner, w wireRequest) ([]byte, error) {
	g, err := w.Topology.build()
	if err != nil {
		return nil, err
	}
	p := adhocradio.NewOptimalRandomized()
	if w.Protocol == "bgi" {
		p = adhocradio.NewDecay()
	}
	var res adhocradio.Result
	before := runner.Counters()
	err = runner.RunInto(&res, g, p, adhocradio.Config{Seed: w.Seed}, adhocradio.Options{})
	if err != nil && !errors.Is(err, adhocradio.ErrBudgetExhausted) {
		return nil, err
	}
	resp := service.SimulateResponse{
		Topology: w.Topology.key(),
		Protocol: w.Protocol,
		Seed:     w.Seed,
		Result: service.SimulateResult{
			Completed:      res.Completed,
			BroadcastTime:  res.BroadcastTime,
			StepsSimulated: res.StepsSimulated,
			Transmissions:  res.Transmissions,
			Receptions:     res.Receptions,
			Collisions:     res.Collisions,
		},
		Counters: runner.Counters().Diff(before),
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
