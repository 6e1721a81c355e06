package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"ptgsched/internal/daggen"
	"ptgsched/internal/service"
	"ptgsched/internal/strategy"
)

// serviceRate is the open-loop request rate, well below the knee so that
// a neighbour taking CPU from the shared reference machine slows the
// requests without building a queue (README.md, "Rate").
const serviceRate = 40.0

// rampRates are the HTTP rates the traced run tries, in order, for the
// highest one whose p99 stays within 50 ms.
var rampRates = []float64{100, 150, 200, 250, 300}

// warmupRequests are sent closed-loop during set-up; the open loop then
// runs warmupSeconds untimed before timing starts.
const (
	warmupRequests = 100
	warmupSeconds  = 1
)

// serviceReq is one generated request: its endpoint, wire body and the
// decoded request for direct calls and checks.
type serviceReq struct {
	online bool
	body   []byte
	sched  service.ScheduleRequest
	onl    service.OnlineRequest
}

var (
	sites    = []string{"lille", "nancy", "rennes", "sophia"}
	families = []daggen.Family{daggen.FamilyRandom, daggen.FamilyFFT, daggen.FamilyRandom, daggen.FamilyStrassen}
)

// genRequest returns request k of the mix. Its shape cycles with k —
// family, PTG count (2 to 4), platform, strategy, and whether each PTG is
// also scheduled alone for slowdowns (1 in 4) — so every run sends the
// same mix; only the PTGs differ, drawn from the seed. 1 in 8 requests is
// a /v1/online run of Poisson arrivals, the rest /v1/schedule.
func genRequest(seed int64, k int) serviceReq {
	fam := families[k%len(families)]
	set := strategy.PaperSet(fam)
	strat := set[(k/len(families))%len(set)].Name()
	site := sites[(k/3)%len(sites)]
	count := 2 + (k/5)%3
	ptgSeed := mix(seed, uint64(k)+1000)
	if k%8 == 7 {
		q := service.OnlineRequest{Platform: site, Family: fam.String(), Count: count,
			Process: "poisson", Rate: 0.5, Strategy: strat, Seed: ptgSeed}
		b, _ := json.Marshal(q)
		return serviceReq{online: true, body: b, onl: q}
	}
	q := service.ScheduleRequest{Platform: site, Family: fam.String(), Count: count,
		Strategy: strat, Seed: ptgSeed, ComputeOwn: (k/7)%4 == 0}
	b, _ := json.Marshal(q)
	return serviceReq{body: b, sched: q}
}

// server is the service under test behind a loopback listener, and the
// client that reaches it over at most Workers connections.
type server struct {
	svc    *service.Service
	srv    *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

func startServer(workers int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:  service.New(service.Options{Workers: workers}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers, DisableCompression: true}},
	}
	s.srv = &http.Server{Handler: service.Handler(s.svc)}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.srv.Shutdown(ctx)
	<-s.done
	s.client.CloseIdleConnections()
	s.svc.Close()
}

// reply is the outcome of one request.
type reply struct {
	status int
	body   []byte
	err    error
	lat    time.Duration // from the request's due time
}

func (s *server) post(q serviceReq) (int, []byte, error) {
	path := "/v1/schedule"
	if q.online {
		path = "/v1/online"
	}
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(q.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// openLoop sends requests first..first+n-1 at rate per second, each on its
// own goroutine at its due time, and waits for every reply. send is the
// transport (HTTP or a direct call). It returns the replies and the
// generator's largest lateness.
func openLoop(reqs []serviceReq, rate float64, send func(serviceReq) (int, []byte, error)) ([]reply, time.Duration) {
	out := make([]reply, len(reqs))
	var wg sync.WaitGroup
	var maxLag time.Duration
	t0 := time.Now()
	for k := range reqs {
		due := t0.Add(time.Duration(float64(k) / rate * float64(time.Second)))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		maxLag = max(maxLag, time.Since(due))
		wg.Add(1)
		go func(k int, due time.Time) {
			defer wg.Done()
			st, b, err := send(reqs[k])
			out[k] = reply{status: st, body: b, err: err, lat: time.Since(due)}
		}(k, due)
	}
	wg.Wait()
	return out, maxLag
}

// direct calls the service's Go API, bypassing HTTP, and encodes the
// response as the HTTP layer would.
func direct(svc *service.Service, sem chan struct{}) func(serviceReq) (int, []byte, error) {
	return func(q serviceReq) (int, []byte, error) {
		sem <- struct{}{}
		defer func() { <-sem }()
		var resp any
		var err error
		if q.online {
			resp, err = svc.Online(context.Background(), q.onl)
		} else {
			resp, err = svc.Schedule(context.Background(), q.sched)
		}
		if err != nil {
			return http.StatusInternalServerError, nil, err
		}
		b, err := json.Marshal(resp)
		return http.StatusOK, b, err
	}
}

// checkReply decodes a 2xx body and validates it against its request. It
// returns the response's deterministic fields for cross-checks.
func checkReply(q serviceReq, rp reply) (string, error) {
	if rp.err != nil {
		return "", rp.err
	}
	if rp.status < 200 || rp.status > 299 {
		return "", fmt.Errorf("status %d: %s", rp.status, strings.TrimSpace(string(rp.body)))
	}
	finitePos := func(xs ...float64) bool {
		for _, x := range xs {
			if !(x > 0) || math.IsInf(x, 0) {
				return false
			}
		}
		return true
	}
	dec := json.NewDecoder(bytes.NewReader(rp.body))
	dec.DisallowUnknownFields()
	if q.online {
		var o service.OnlineResponse
		if err := dec.Decode(&o); err != nil {
			return "", err
		}
		if o.Count != q.onl.Count || len(o.FlowTimes) != o.Count || !finitePos(o.FlowTimes...) ||
			!finitePos(o.Makespan) || o.Rebalances < 1 || !strings.EqualFold(o.Platform, q.onl.Platform) {
			return "", fmt.Errorf("invalid online response %s", rp.body)
		}
		return fmt.Sprint(o.Makespan, o.FlowTimes, o.MeanFlowTime, o.Rebalances), nil
	}
	var s service.ScheduleResponse
	if err := dec.Decode(&s); err != nil {
		return "", err
	}
	ok := s.Count == q.sched.Count && len(s.Betas) == s.Count && len(s.AppMakespans) == s.Count &&
		finitePos(s.AppMakespans...) && finitePos(s.Betas...) && s.Makespan == slices.Max(s.AppMakespans) &&
		strings.EqualFold(s.Platform, q.sched.Platform) && (s.Unfairness != nil) == q.sched.ComputeOwn &&
		len(s.Slowdowns) == map[bool]int{true: s.Count}[q.sched.ComputeOwn]
	for _, b := range s.Betas {
		ok = ok && b <= 1
	}
	if !ok {
		return "", fmt.Errorf("invalid schedule response %s", rp.body)
	}
	unf := 0.0
	if s.Unfairness != nil {
		unf = *s.Unfairness
	}
	return fmt.Sprint(s.Betas, s.AppMakespans, s.Makespan, s.Slowdowns, unf), nil
}

func runServiceOpen(r *Run) error {
	var s *server
	setup, err := setupMedian(func(rep int) error {
		if s != nil {
			s.stop()
			s = nil
		}
		srv, err := startServer(r.Workers)
		if err != nil {
			return err
		}
		s = srv
		// Closed-loop warm-up over Workers clients.
		var wg sync.WaitGroup
		errs := make(chan error, warmupRequests)
		for c := range r.Workers {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < warmupRequests; k += r.Workers {
					q := genRequest(mix(r.Seed, 7), k)
					st, b, err := s.post(q)
					if _, err := checkReply(q, reply{status: st, body: b, err: err}); err != nil {
						errs <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		return <-errs
	})
	if s != nil {
		defer s.stop()
	}
	if err != nil {
		return err
	}
	r.E2E["setup_s"] = setup

	// Untimed open-loop warm-up at the benchmark rate, then the timed run:
	// at least the run length and enough requests for a p99.
	warm := make([]serviceReq, int(serviceRate*warmupSeconds))
	for k := range warm {
		warm[k] = genRequest(mix(r.Seed, 8), k)
	}
	openLoop(warm, serviceRate, s.post)

	n := max(int(serviceRate*r.Seconds.Seconds()), SamplesFor(0.99))
	reqs := make([]serviceReq, n)
	for k := range reqs {
		reqs[k] = genRequest(r.Seed, k)
	}
	st0 := s.svc.Stats()
	a0 := heapAllocs()
	t0 := time.Now()
	replies, lag := openLoop(reqs, serviceRate, s.post)
	elapsed := time.Since(t0)
	allocs := heapAllocs() - a0
	st1 := s.svc.Stats()

	var lat Dist
	ok := 0
	answers := make([]string, n)
	for k, rp := range replies {
		lat.AddDur(rp.lat, time.Millisecond)
		a, err := checkReply(reqs[k], rp)
		if err != nil {
			r.Failed++
			if rp.err == nil && rp.status >= 200 && rp.status <= 299 {
				r.Fail("request %d: %v", k, err)
			}
			continue
		}
		ok++
		answers[k] = a
	}
	r.Attempted += n
	r.E2E["points_per_s"] = float64(ok) / elapsed.Seconds()
	r.E2E["allocs_per_point"] = float64(allocs) / float64(n)
	r.SetPct(r.E2E, "latency_ms", &lat)
	r.Layer["bench.gen_lag_ms_max"] = float64(lag.Microseconds()) / 1e3
	r.Meta["requests"] = n
	r.Meta["rate"] = serviceRate

	// The answers are deterministic: a spread of requests recomputed
	// through the Go API must match their HTTP replies exactly.
	sem := make(chan struct{}, r.Workers)
	call := direct(s.svc, sem)
	for k := 0; k < n; k += n / 16 {
		st, b, err := call(reqs[k])
		a, err := checkReply(reqs[k], reply{status: st, body: b, err: err})
		if err != nil || (answers[k] != "" && a != answers[k]) {
			r.Failed++
			r.Fail("request %d: direct call disagrees with the HTTP reply (%v)", k, err)
		}
	}
	if !r.Trace {
		return nil
	}
	return traceService(r, s, reqs, answers, &lat, st0, st1)
}

// traceService measures the service layer: the same requests sent to the
// Go API directly (no HTTP) at the same rate, the worker pool's counters
// for the HTTP run, and a rate ramp for the highest rate whose p99 stays
// within 50 ms.
func traceService(r *Run, s *server, reqs []serviceReq, answers []string, httpLat *Dist, st0, st1 service.Stats) error {
	sem := make(chan struct{}, r.Workers)
	replies, _ := openLoop(reqs, serviceRate, direct(s.svc, sem))
	var dl Dist
	for k, rp := range replies {
		dl.AddDur(rp.lat, time.Millisecond)
		a, err := checkReply(reqs[k], rp)
		if err != nil || (answers[k] != "" && a != answers[k]) {
			r.Fail("request %d: direct call disagrees with the HTTP reply (%v)", k, err)
		}
	}
	L := r.Layer
	L["service.direct_ms_p50"], _ = dl.Pct(0.5)
	L["service.direct_ms_p99"], _ = dl.Pct(0.99)
	r.Samples["service.direct_ms"] = dl.N()
	hp50, _ := httpLat.Pct(0.5)
	L["service.http_overhead_ms"] = hp50 - L["service.direct_ms_p50"]
	ran := float64(st1.Completed + st1.Failed - st0.Completed - st0.Failed)
	if ran > 0 {
		// Stats holds cumulative means; take the HTTP run's share.
		wait := st1.MeanQueueWaitMS*float64(st1.Completed+st1.Failed) - st0.MeanQueueWaitMS*float64(st0.Completed+st0.Failed)
		L["service.queue_wait_ms_mean"] = wait / ran
	}
	L["service.busy_s"] = st1.BusySeconds - st0.BusySeconds
	L["service.rejected"] = float64(st1.Rejected - st0.Rejected)

	// The ramp starts above the benchmark rate, and only if that met the
	// limit.
	best := 0.0
	if p99, _ := httpLat.Pct(0.99); p99 <= 50 {
		best = serviceRate
		for _, rate := range rampRates {
			ramp := make([]serviceReq, SamplesFor(0.99))
			for k := range ramp {
				ramp[k] = genRequest(mix(r.Seed, 9), k)
			}
			rs, _ := openLoop(ramp, rate, s.post)
			var d Dist
			for k, rp := range rs {
				if _, err := checkReply(ramp[k], rp); err != nil {
					d.Add(math.Inf(1)) // a failed request misses any limit
					continue
				}
				d.AddDur(rp.lat, time.Millisecond)
			}
			p99, _ := d.Pct(0.99)
			fmt.Fprintf(r.Out, "# service ramp: %.0f rps, p99 %.1f ms\n", rate, p99)
			if p99 > 50 {
				break
			}
			best = rate
		}
	}
	L["service.max_rps_p99_50ms"] = best
	L["bench.trace_overhead"] = 0 // the service run records no spans
	return nil
}
