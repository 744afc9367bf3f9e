package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/graph/gen"
	"repro/internal/service/httpapi"
	"repro/internal/service/registry"
	"repro/internal/service/sched"
	"repro/internal/trace"
)

// Request classes of the service mix.
const (
	clsSmall  = iota // solve a small graph nobody has solved yet (auto → stoerwagner)
	clsMedium        // solve a medium planted graph with a fresh seed (auto → andersonblelloch)
	clsRepeat        // repeat a (graph, seed) key solved in warm-up: a result-cache hit
	clsUpload        // upload a fresh small graph, then solve it: a write beside the reads
	numClasses
)

var className = [numClasses]string{"small", "medium", "repeat", "upload"}

// mixPattern fixes the shares: 8/20 small, 4/20 medium, 5/20 repeat,
// 3/20 upload. Each run of 20 requests is one seeded shuffle of it, so
// every run sees exactly these shares. Sorted by latency the classes fall
// as repeat (25%), small+upload (55%), medium (20%): the median lands
// inside the Stoer–Wagner class, far from any class boundary.
var mixPattern = [20]int{
	clsSmall, clsSmall, clsSmall, clsSmall, clsSmall, clsSmall, clsSmall, clsSmall,
	clsMedium, clsMedium, clsMedium, clsMedium,
	clsRepeat, clsRepeat, clsRepeat, clsRepeat, clsRepeat,
	clsUpload, clsUpload, clsUpload,
}

// mixShares reports the pattern's shares for the run metadata.
func mixShares() map[string]float64 {
	var counts [numClasses]int
	for _, c := range mixPattern {
		counts[c]++
	}
	out := map[string]float64{}
	for c, k := range counts {
		out[className[c]] = float64(k) / float64(len(mixPattern))
	}
	return out
}

// maxRequestRate bounds the request rate a run's request list is sized
// for (about 16 requests/s are served on 2 cores); a run that outpaces it
// ends early, when the list runs out, rather than re-solving a graph.
const maxRequestRate = 25

// clients is the number of closed-loop HTTP callers.
var clients = runtime.NumCPU()

type serviceSizes struct {
	smallN, mediumN, mediumGraphs, repeatKeys int
}

func sizesFor(tiny bool) serviceSizes {
	if tiny {
		return serviceSizes{smallN: 32, mediumN: 640, mediumGraphs: 2, repeatKeys: 2}
	}
	return serviceSizes{smallN: 160, mediumN: 1024, mediumGraphs: 8, repeatKeys: 4}
}

// svcGraph is one generated graph: its text form (what the program
// receives), its parsed copy (for the benchmark's checks) and its known
// minimum cut, or -1 until the Stoer–Wagner reference is computed.
type svcGraph struct {
	text []byte
	g    *graph.Graph
	want int64
}

func newSvcGraph(g *graph.Graph, want int64) (*svcGraph, error) {
	var b bytes.Buffer
	if err := graph.Write(&b, g); err != nil {
		return nil, err
	}
	return &svcGraph{text: b.Bytes(), g: g, want: want}, nil
}

// service is one in-process mincutd: memory-only registry, scheduler
// with mincutd's default workers and width, HTTP API on loopback.
type service struct {
	reg    *registry.Registry
	sch    *sched.Scheduler
	srv    *http.Server
	served chan error
	base   string
	ids    map[*svcGraph]string
}

func startService() (*service, error) {
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	ring := trace.NewRing(256) // mincutd's default -trace-buffer
	reg := registry.New(1<<30, nil)
	sch := sched.New(sched.Config{Workers: runtime.GOMAXPROCS(0), Traces: ring, Logger: quiet})
	api := httpapi.New(reg, sch, nil, httpapi.Options{Traces: ring, Logger: quiet})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = sch.Shutdown(context.Background())
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &service{reg: reg, sch: sch, srv: &http.Server{Handler: api.Handler()}, served: make(chan error, 1),
		base: "http://" + ln.Addr().String(), ids: map[*svcGraph]string{}}
	go func() { s.served <- s.srv.Serve(ln) }()
	return s, nil
}

// stop shuts the server and scheduler down and waits for both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := s.sch.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// httpClient keeps at most one connection per caller.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
}

// solveReply is the part of the solve response the benchmark checks.
type solveReply struct {
	JobID  string `json:"job_id"`
	Engine string `json:"engine"`
	Cached bool   `json:"cached"`
	Value  *int64 `json:"value"`
	InCut  []bool `json:"in_cut"`
	Error  string `json:"error"`
}

func (s *service) solve(c *http.Client, id string, seed int64) (solveReply, error) {
	body := fmt.Sprintf(`{"seed":%d,"want_partition":true}`, seed)
	resp, err := c.Post(s.base+"/v1/graphs/"+id+"/mincut", "application/json", bytes.NewBufferString(body))
	if err != nil {
		return solveReply{}, fmt.Errorf("solve: %w", err)
	}
	defer resp.Body.Close()
	var out solveReply
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return out, fmt.Errorf("solve: status %d: %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || out.Value == nil {
		return out, fmt.Errorf("solve: status %d: %s", resp.StatusCode, out.Error)
	}
	return out, nil
}

// request is one entry of a run's fixed request list.
type request struct {
	class int
	g     *svcGraph
	seed  int64
}

// svcInputs is everything a service-mix run sends.
type svcInputs struct {
	medium  []*svcGraph // uploaded in set-up
	small   []*svcGraph // uploaded in set-up, each solved once
	repeats []request   // keys solved in warm-up
	reqs    []request
	sz      serviceSizes
}

// makeSvcInputs generates the graphs and the first n requests of the mix.
func makeSvcInputs(cfg config, n int) (*svcInputs, error) {
	sz := sizesFor(cfg.tiny)
	in := &svcInputs{sz: sz}
	graphFor := func(g *graph.Graph, want int64) (*svcGraph, error) {
		if cfg.corrupt && want >= 0 {
			want++
		}
		return newSvcGraph(g, want)
	}
	for i := 0; i < sz.mediumGraphs; i++ {
		p := gen.PlantedCut(sz.mediumN/2, sz.mediumN-sz.mediumN/2, 16, mix(cfg.seed, 1, i))
		g, err := graphFor(p.G, p.CutValue)
		if err != nil {
			return nil, err
		}
		in.medium = append(in.medium, g)
	}
	for r := 0; r < sz.repeatKeys; r++ {
		in.repeats = append(in.repeats, request{class: clsRepeat, g: in.medium[r%len(in.medium)], seed: mix(cfg.seed, 4, r)})
	}
	rng := rand.New(rand.NewSource(mix(cfg.seed, 7, 0)))
	var block [20]int
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			block = mixPattern
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		r := request{class: block[i%len(block)], seed: mix(cfg.seed, 3, i)}
		switch r.class {
		case clsMedium:
			r.g = in.medium[i%len(in.medium)]
		case clsRepeat:
			r = in.repeats[i%len(in.repeats)]
		default:
			// Small graphs are random, with no planted answer: the
			// Stoer–Wagner reference is computed after the window.
			g := gen.RandomConnected(sz.smallN, 4*sz.smallN, 100, mix(cfg.seed, 5, i))
			sg, err := graphFor(g, -1)
			if err != nil {
				return nil, err
			}
			r.g = sg
			if r.class == clsSmall {
				in.small = append(in.small, sg)
			}
		}
		in.reqs = append(in.reqs, r)
	}
	return in, nil
}

// setupService starts a service and uploads the medium and small graph
// sets through the API: the set-up a deployment pays before serving.
func setupService(in *svcInputs) (*service, error) {
	s, err := startService()
	if err != nil {
		return nil, err
	}
	c := httpClient()
	defer c.CloseIdleConnections()
	for _, set := range [][]*svcGraph{in.medium, in.small} {
		for _, g := range set {
			id, err := s.upload(c, g)
			if err != nil {
				_ = s.stop()
				return nil, err
			}
			s.ids[g] = id
		}
	}
	return s, nil
}

// outcome is one request's record.
type outcome struct {
	class  int
	g      *svcGraph
	rtt    time.Duration // solve round trip
	upload time.Duration // upload round trip (upload class only)
	reply  solveReply
	status sched.Status // traced passes only
	err    error
}

// drive runs the closed loop: clients callers take requests in order
// until the list or the deadline (when positive) runs out.
func drive(s *service, reqs []request, deadline time.Duration, traced bool) ([]outcome, time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		outs []outcome
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := httpClient()
			defer hc.CloseIdleConnections()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || (deadline > 0 && time.Since(start) >= deadline) {
					return
				}
				r := reqs[i]
				o := outcome{class: r.class, g: r.g}
				id := s.ids[r.g]
				if r.class == clsUpload {
					t := time.Now()
					id, o.err = s.upload(hc, r.g)
					o.upload = time.Since(t)
				}
				if o.err == nil {
					t := time.Now()
					o.reply, o.err = s.solve(hc, id, r.seed)
					o.rtt = time.Since(t)
					if traced && o.err == nil {
						o.status, _ = s.sch.Job(o.reply.JobID)
					}
				}
				mu.Lock()
				outs = append(outs, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return outs, time.Since(start)
}

// upload sends g's text form and returns the graph ID the service assigned.
func (s *service) upload(c *http.Client, g *svcGraph) (string, error) {
	resp, err := c.Post(s.base+"/v1/graphs", "text/plain", bytes.NewReader(g.text))
	if err != nil {
		return "", fmt.Errorf("upload: %w", err)
	}
	defer resp.Body.Close()
	var out struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.ID == "" {
		return "", fmt.Errorf("upload: status %d: bad response (%v)", resp.StatusCode, err)
	}
	return out.ID, nil
}

// check fills in Stoer–Wagner references for the small graphs the window
// solved (outside the timed window) and counts correct outcomes: the
// expected value, and a partition whose weight in the graph is that value.
func check(outs []outcome) int {
	ok := 0
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			continue
		}
		if o.g.want < 0 {
			v, _, err := baseline.StoerWagner(o.g.g)
			if err != nil {
				o.err = err
				continue
			}
			o.g.want = v
		}
		v := *o.reply.Value
		if v == o.g.want && len(o.reply.InCut) == o.g.g.N() && o.g.g.CutValue(o.reply.InCut) == v {
			ok++
		}
	}
	return ok
}

// warm solves every repeat key once, so repeats are served from the
// result cache; the repeats in the window check the answers.
func warm(s *service, in *svcInputs) error {
	c := httpClient()
	defer c.CloseIdleConnections()
	for _, r := range in.repeats {
		if _, err := s.solve(c, s.ids[r.g], r.seed); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func runServiceMix(cfg config) (report, error) {
	// A traced run serves its whole list, twice: its length depends only
	// on the arguments, so the run's counts repeat exactly for a seed.
	requests := int(cfg.seconds.Seconds() * maxRequestRate)
	if cfg.trace {
		requests = int(cfg.seconds.Seconds() * 6)
	}
	if requests < 40 {
		requests = 40
	}
	in, err := makeSvcInputs(cfg, requests)
	if err != nil {
		return report{}, err
	}
	// Repeated set-ups; the last one (two in a traced run) serves.
	keep := 1
	if cfg.trace {
		keep = 2
	}
	var (
		setups []float64
		live   []*service
	)
	defer func() {
		for _, s := range live {
			_ = s.stop()
		}
	}()
	for r := 0; r < setupReps; r++ {
		t := time.Now()
		s, err := setupService(in)
		if err != nil {
			return report{}, err
		}
		setups = append(setups, time.Since(t).Seconds())
		live = append(live, s)
		if len(live) > keep {
			if err := live[0].stop(); err != nil {
				return report{}, err
			}
			live = live[1:]
		}
	}
	for _, s := range live {
		if err := warm(s, in); err != nil {
			return report{}, err
		}
	}
	rep := report{meta: baseMeta(cfg, 1)}
	rep.meta["clients"] = clients
	rep.meta["workers"] = runtime.GOMAXPROCS(0)
	rep.meta["mix_shares"] = mixShares()
	rep.meta["sizes"] = map[string]int{"small_n": in.sz.smallN, "medium_n": in.sz.mediumN,
		"medium_graphs": in.sz.mediumGraphs, "repeat_keys": in.sz.repeatKeys}
	if cfg.trace {
		return traceService(in, live, setups, rep)
	}

	s := live[0]
	u0 := readUsage()
	outs, wall := drive(s, in.reqs, cfg.seconds, false)
	cpu := readUsage().cpu - u0.cpu
	ok := check(outs)
	lat := make([]float64, len(outs))
	for i, o := range outs {
		lat[i] = o.rtt.Seconds()
	}
	rep.result = result{Correct: ok == len(outs), Attempted: len(outs), Failed: len(outs) - ok,
		Metrics: endToEnd(lat, ok, wall, cpu, setups)}
	rep.meta["samples"] = map[string]int{"solve": len(outs), "setup": len(setups)}
	rep.meta["solve_s"] = latencySummary(lat)
	rep.meta["setup_s_samples"] = setups
	rep.meta["window_s"] = wall.Seconds()
	return rep, nil
}

// traceService runs the same fixed request list twice on two fresh
// services: untraced, then reading each job's scheduler record after its
// response. The difference of the two solve medians is the overhead.
func traceService(in *svcInputs, live []*service, setups []float64, rep report) (report, error) {
	plain, _ := drive(live[0], in.reqs, 0, false)
	s := live[1]
	m0 := s.sch.Metrics()
	outs, _ := drive(s, in.reqs, 0, true)
	m1 := s.sch.Metrics()
	ok := check(outs) + check(plain)
	all := len(outs) + len(plain)

	var untraced, traced, waits, runs, swRuns, overheads, uploads []float64
	engines := map[string]int{}
	for _, o := range plain {
		untraced = append(untraced, o.rtt.Seconds())
	}
	for _, o := range outs {
		traced = append(traced, o.rtt.Seconds())
		if o.class == clsUpload {
			uploads = append(uploads, o.upload.Seconds())
		}
		if o.err != nil {
			continue
		}
		engines[o.status.Engine]++
		if o.reply.Cached {
			continue
		}
		st := o.status
		waits = append(waits, st.Dispatched.Sub(st.Created).Seconds())
		run := st.Finished.Sub(st.Dispatched).Seconds()
		runs = append(runs, run)
		if st.Engine == "stoerwagner" {
			swRuns = append(swRuns, run)
		}
		overheads = append(overheads, (o.rtt - st.Finished.Sub(st.Created)).Seconds())
	}
	m := metrics{}
	m.set("sched.queue_wait_s", "s", mean(waits))
	m.set("sched.run_s", "s", mean(runs))
	m.set("sched.cache_hit_ratio", "ratio", ratio(float64(m1.CacheHits-m0.CacheHits), float64(m1.Submitted-m0.Submitted)))
	m.set("baseline.run_s", "s", mean(swRuns))
	m.set("httpapi.solve_overhead_s", "s", mean(overheads))
	m.set("httpapi.upload_s", "s", mean(uploads))
	rs := s.reg.Stats()
	m.set("registry.graphs", "count", float64(rs.Graphs))
	m.set("registry.bytes", "bytes", float64(rs.Bytes))
	hits, misses := m1.Pool.ArenaHits-m0.Pool.ArenaHits, m1.Pool.ArenaMisses-m0.Pool.ArenaMisses
	m.set("par.arena_hit_ratio", "ratio", ratio(float64(hits), float64(hits+misses)))
	setEngineCounts(m, engines)
	m.set("trace.solve_p50_s", "s", median(traced))
	m.set("trace.overhead_s", "s", median(traced)-median(untraced))

	rep.result = result{Correct: ok == all, Attempted: all, Failed: all - ok, Metrics: perLayerOnly(m)}
	rep.meta["samples"] = map[string]int{"traced_solve": len(outs), "untraced_solve": len(plain), "setup": len(setups)}
	return rep, nil
}
