package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"time"

	"sgxgauge/internal/harness"
	"sgxgauge/internal/journal"
	"sgxgauge/internal/perf"
	"sgxgauge/internal/serve"
	"sgxgauge/internal/sgx"
	"sgxgauge/internal/store"
	"sgxgauge/internal/workloads"
	"sgxgauge/internal/workloads/suite"
)

// Settings of daemon-mix: a closed loop of two clients, each on its own
// connection, against a daemon with two workers, its store and its
// journal (fsync off).
const (
	daemonEPC     = 256
	daemonWorkers = 2
	daemonClients = 2
	// coldEvery makes about one request in this many a cold one.
	coldEvery = 50
	// coalescedPairs is how many times per round both clients send the
	// same fresh spec together.
	coalescedPairs = 2
	// sweepWarm is how many completed specs each sweep re-reads beside
	// its one fresh spec.
	sweepWarm = 3
)

type poolEntry struct {
	workload string
	mode     sgx.Mode
}

// daemonPool is every cold spec of a round: the cheapest Vanilla and
// Native Low specs, so that simulation stays a minority of the
// daemon's host time and the service layers show. No LibOS spec is in
// it, which keeps boot cost out. Every round simulates each entry once,
// so every seed sees the same mix and only order and spec seeds change.
var daemonPool = []poolEntry{
	{"Blockchain", sgx.Vanilla}, {"Blockchain", sgx.Native},
	{"OpenSSL", sgx.Vanilla}, {"OpenSSL", sgx.Native},
	{"HashJoin", sgx.Vanilla}, {"HashJoin", sgx.Native},
	{"BFS", sgx.Vanilla}, {"BFS", sgx.Native},
	{"Memcached", sgx.Vanilla}, {"XSBench", sgx.Vanilla}, {"Lighttpd", sgx.Vanilla},
}

// coalescePool holds the pool entries that simulate for 10ms or more,
// so the second request of a pair arrives while the first still runs.
var coalescePool = []poolEntry{
	{"Blockchain", sgx.Vanilla}, {"Blockchain", sgx.Native},
	{"OpenSSL", sgx.Vanilla}, {"BFS", sgx.Native}, {"Memcached", sgx.Vanilla},
}

// class is a request class of the mix.
type class int

const (
	classCold class = iota
	classWarm
	classCoalesced
	classSweep
	classDisk
	numClasses
)

var classNames = [numClasses]string{"cold", "warm", "coalesced", "sweep", "disk"}

// unit is the unit a class's latencies are reported in: microseconds
// for the cache-served classes, milliseconds for those that simulate.
func (c class) unit() (time.Duration, string) {
	if c == classWarm || c == classDisk {
		return time.Microsecond, "us"
	}
	return time.Millisecond, "ms"
}

// step is one request of a client's script.
type step struct {
	class class
	specs []harness.Spec // one spec, or a sweep's specs
	body  []byte         // the encoded request
}

// script is one round of traffic: each client's steps in order. The
// round replays identically on a fresh daemon, so its counters repeat.
type script struct {
	clients [daemonClients][]step
}

// newScript generates a round from seed: every pool entry once as a
// cold request with a fresh spec seed, dealt to the clients in seeded
// order; warm re-reads of specs the same client completed earlier;
// coalesced pairs and one sweep per client at segment ends.
func newScript(seed int64) (script, error) {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	fresh := func(e poolEntry) (harness.Spec, error) {
		w, err := suite.ByName(e.workload)
		if err != nil {
			return harness.Spec{}, err
		}
		s := 1 + rng.Int63n(1<<40)
		for used[s] {
			s = 1 + rng.Int63n(1<<40)
		}
		used[s] = true
		return harness.Spec{Workload: w, Mode: e.mode, Size: workloads.Low, Seed: s}, nil
	}

	var colds [daemonClients][]harness.Spec
	for i, p := range rng.Perm(len(daemonPool)) {
		spec, err := fresh(daemonPool[p])
		if err != nil {
			return script{}, err
		}
		colds[i%daemonClients] = append(colds[i%daemonClients], spec)
	}
	pairs := make([]harness.Spec, coalescedPairs)
	for i := range pairs {
		spec, err := fresh(coalescePool[rng.Intn(len(coalescePool))])
		if err != nil {
			return script{}, err
		}
		pairs[i] = spec
	}

	var sc script
	for c := range sc.clients {
		var done []harness.Spec
		pick := func() harness.Spec { return done[rng.Intn(len(done))] }
		var steps []step
		for seg, cold := range colds[c] {
			coldAt := 0
			if seg > 0 {
				coldAt = rng.Intn(coldEvery)
			}
			for k := 0; k < coldEvery; k++ {
				if k == coldAt {
					steps = append(steps, step{class: classCold, specs: []harness.Spec{cold}})
					done = append(done, cold)
				} else {
					steps = append(steps, step{class: classWarm, specs: []harness.Spec{pick()}})
				}
			}
			if seg < coalescedPairs {
				steps = append(steps, step{class: classCoalesced, specs: []harness.Spec{pairs[seg]}})
				done = append(done, pairs[seg])
			}
			if seg == 1 {
				specs := make([]harness.Spec, 0, sweepWarm+1)
				for i := 0; i < sweepWarm; i++ {
					specs = append(specs, pick())
				}
				spec, err := fresh(daemonPool[rng.Intn(len(daemonPool))])
				if err != nil {
					return script{}, err
				}
				specs = append(specs, spec)
				steps = append(steps, step{class: classSweep, specs: specs})
				done = append(done, spec)
			}
		}
		for i := range steps {
			var err error
			if steps[i].class == classSweep {
				steps[i].body, err = json.Marshal(steps[i].specs)
			} else {
				steps[i].body, err = json.Marshal(steps[i].specs[0])
			}
			if err != nil {
				return script{}, err
			}
		}
		sc.clients[c] = steps
	}
	return sc, nil
}

// daemon is one running serve.Server on a loopback listener.
type daemon struct {
	s    *serve.Server
	srv  *http.Server
	url  string
	errc chan error
}

// startDaemon opens the store and journal under dir, starts a server
// on them and replays the journal: the daemon's set-up.
func startDaemon(dir string) (*daemon, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	jl, err := journal.Open(filepath.Join(dir, "journal"), journal.Options{})
	if err != nil {
		return nil, err
	}
	s := serve.New(serve.Config{EPCPages: daemonEPC, Workers: daemonWorkers, Store: st, Journal: jl})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{s: s, srv: &http.Server{Handler: s.Handler()}, url: "http://" + ln.Addr().String(), errc: make(chan error, 1)}
	//sgxlint:detached Serve runs until stop shuts the server down; stop joins it through the errc receive
	go func() { d.errc <- d.srv.Serve(ln) }()
	if err := s.Recover(); err != nil {
		return nil, errors.Join(fmt.Errorf("recover: %w", err), d.stop())
	}
	return d, nil
}

// stop shuts the server down, waits for its detached runs and for
// Serve to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	d.s.Drain()
	if serr := <-d.errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// client is one closed-loop client with its own connection.
type client struct {
	hc  *http.Client
	url string
}

func newClient() *client {
	return &client{hc: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
}

func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// scrape reads the daemon's /metrics.
func (c *client) scrape() (map[string]float64, error) {
	code, data, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", code)
	}
	return parseMetrics(bytes.NewReader(data))
}

// barrier holds each of n goroutines until all n have arrived.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	n, seen int // guarded by mu
	gen     int // guarded by mu
}

func newBarrier(n int) *barrier {
	b := &barrier{n: n}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *barrier) wait() {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.gen
	b.seen++
	if b.seen == b.n {
		b.seen = 0
		b.gen++
		b.cond.Broadcast()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
}

// Series read from /metrics.
const (
	mRuns      = "sgxgauged_runs_total"
	mCoalesced = "sgxgauged_runs_coalesced_total"
	mHits      = "sgxgauged_cache_hits_total"
	mMisses    = "sgxgauged_cache_misses_total"
	mRejected  = "sgxgauged_admission_rejected_total"
	mPuts      = "sgxgauged_store_puts_total"
	mStoreHits = "sgxgauged_store_hits_total"
	mRecords   = "sgxgauged_journal_records_total"
)

// round is what one round of daemon-mix measured.
type round struct {
	setup    time.Duration // both set-ups: fresh, then restart on the same directories
	wall     time.Duration // traffic and disk phases
	lat      [numClasses][]time.Duration
	requests int
	deltas   map[string]float64 // /metrics deltas summed over both servers
	peakMB   float64            // peak resident memory during the round
}

// daemonBench holds what the rounds share: the outcome and the first
// response seen for every key, which later responses must match.
type daemonBench struct {
	tr *tracer

	mu    sync.Mutex
	out   *outcome                   // guarded by mu
	first map[string]json.RawMessage // key -> first result, guarded by mu
	specs map[string]harness.Spec    // key -> spec, guarded by mu
}

func (b *daemonBench) attempt(n int) {
	b.mu.Lock()
	b.out.attempted += n
	b.mu.Unlock()
}

func (b *daemonBench) failf(format string, args ...any) {
	b.mu.Lock()
	b.out.fail(format, args...)
	b.mu.Unlock()
}

// checkResult pins the first result seen for key and fails any later
// one that differs from it byte for byte.
func (b *daemonBench) checkResult(what, key string, res json.RawMessage, spec harness.Spec) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(res) == 0 || key == "" {
		b.out.fail("daemon: %s: response has no key or result", what)
		return
	}
	prev, ok := b.first[key]
	if !ok {
		b.first[key] = append(json.RawMessage(nil), res...)
		b.specs[key] = spec
		return
	}
	if !bytes.Equal(prev, res) {
		b.out.fail("daemon: %s: result for key %s differs from the first one served", what, key)
	}
}

type runReply struct {
	Key    string          `json:"key"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// run sends one /v1/run and checks the reply.
func (b *daemonBench) run(c *client, cls class, spec harness.Spec, body []byte, lat *[numClasses][]time.Duration, parent int) {
	start := time.Now()
	code, data, err := c.do(http.MethodPost, "/v1/run", body)
	end := time.Now()
	lat[cls] = append(lat[cls], end.Sub(start))
	b.tr.record(classNames[cls], parent, start, end)
	b.attempt(1)
	what := classNames[cls] + " " + spec.WorkloadName()
	if err != nil || code != http.StatusOK {
		b.failf("daemon: %s: status %d, %v", what, code, err)
		return
	}
	var rep runReply
	if err := json.Unmarshal(data, &rep); err != nil {
		b.failf("daemon: %s: %v", what, err)
		return
	}
	switch {
	case cls == classCold && rep.Cached:
		b.failf("daemon: %s: a fresh spec was served from cache", what)
	case (cls == classWarm || cls == classDisk) && !rep.Cached:
		b.failf("daemon: %s: a completed spec was not served from cache", what)
	}
	b.checkResult(what, rep.Key, rep.Result, spec)
}

type sweepLine struct {
	Event  string          `json:"event"`
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
	OK     bool            `json:"ok"`
	Error  string          `json:"error"`
}

// sweep sends one /v1/sweep, reads the NDJSON stream to its terminal
// line and checks every result.
func (b *daemonBench) sweep(c *client, st step, lat *[numClasses][]time.Duration, parent int) {
	start := time.Now()
	code, data, err := c.do(http.MethodPost, "/v1/sweep", st.body)
	end := time.Now()
	lat[classSweep] = append(lat[classSweep], end.Sub(start))
	b.tr.record("sweep", parent, start, end)
	b.attempt(1)
	if err != nil || code != http.StatusOK {
		b.failf("daemon: sweep: status %d, %v", code, err)
		return
	}
	results, done := 0, false
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var ln sweepLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			b.failf("daemon: sweep: %v", err)
			return
		}
		switch ln.Event {
		case "result":
			if ln.Index < 0 || ln.Index >= len(st.specs) {
				b.failf("daemon: sweep: result index %d out of range", ln.Index)
				return
			}
			results++
			b.checkResult("sweep "+st.specs[ln.Index].WorkloadName(), ln.Key, ln.Result, st.specs[ln.Index])
		case "done":
			done = ln.OK
		case "error":
			b.failf("daemon: sweep: %s", ln.Error)
		}
	}
	if !done || results != len(st.specs) {
		b.failf("daemon: sweep: %d of %d results, terminal ok=%v", results, len(st.specs), done)
	}
}

// client runs one client's script. Client 0 also checks that each
// coalesced pair added exactly one run: both clients hold at a barrier
// while it reads /metrics before and after the pair, so the count
// covers the pair alone.
func (b *daemonBench) client(id int, c *client, steps []step, bar *barrier, lat *[numClasses][]time.Duration, parent int) {
	for _, st := range steps {
		switch st.class {
		case classSweep:
			b.sweep(c, st, lat, parent)
		case classCoalesced:
			bar.wait()
			var before map[string]float64
			var err error
			if id == 0 {
				before, err = c.scrape()
			}
			bar.wait()
			b.run(c, classCoalesced, st.specs[0], st.body, lat, parent)
			bar.wait()
			if id == 0 {
				after, err2 := c.scrape()
				b.attempt(1)
				if err = errors.Join(err, err2); err != nil {
					b.failf("daemon: coalesced: %v", err)
				} else if d := after[mRuns] - before[mRuns]; d != 1 {
					b.failf("daemon: coalesced pair of %s added %v runs, want 1", st.specs[0].WorkloadName(), d)
				}
			}
			bar.wait()
		default:
			b.run(c, st.class, st.specs[0], st.body, lat, parent)
		}
	}
}

// round runs one round in a fresh directory: set up a daemon, play the
// script on both clients, restart the daemon on the same store and
// journal, and read every completed key back once.
func (b *daemonBench) round(sc script) (round, error) {
	var r round
	if err := resetPeakRSS(); err != nil {
		return r, err
	}
	dir, err := os.MkdirTemp("", "hostbench-daemon-")
	if err != nil {
		return r, err
	}
	defer os.RemoveAll(dir)
	clients := make([]*client, daemonClients)
	for i := range clients {
		clients[i] = newClient()
		defer clients[i].hc.CloseIdleConnections()
	}
	span := b.tr.begin("round", 0)
	defer b.tr.end(span)
	lats := make([][numClasses][]time.Duration, daemonClients)

	bar := newBarrier(daemonClients)
	setup, traffic, deltas, err := phase(dir, clients, func(i int) {
		b.client(i, clients[i], sc.clients[i], bar, &lats[i], span)
	})
	if err != nil {
		return r, err
	}

	// Every round replays the same script, so the keys seen so far are
	// exactly this round's.
	b.mu.Lock()
	keys := make([]string, 0, len(b.specs))
	for k := range b.specs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	specs := make([]harness.Spec, len(keys))
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		specs[i] = b.specs[k]
		bodies[i], err = json.Marshal(specs[i])
	}
	b.mu.Unlock()
	if err != nil {
		return r, err
	}
	setup2, disk, diskDeltas, err := phase(dir, clients, func(i int) {
		for j := i; j < len(specs); j += daemonClients {
			b.run(clients[i], classDisk, specs[j], bodies[j], &lats[i], span)
		}
	})
	if err != nil {
		return r, err
	}
	b.attempt(1)
	if diskDeltas[mRuns] != 0 || diskDeltas[mStoreHits] != float64(len(keys)) {
		b.failf("daemon: disk phase simulated %v specs and had %v store hits for %d keys, want 0 and %d",
			diskDeltas[mRuns], diskDeltas[mStoreHits], len(keys), len(keys))
	}

	r.setup, r.wall, r.deltas = setup+setup2, traffic+disk, deltas
	for k, v := range diskDeltas {
		r.deltas[k] += v
	}
	for _, l := range lats {
		for c := range l {
			r.lat[c] = append(r.lat[c], l[c]...)
			r.requests += len(l[c])
		}
	}
	r.peakMB, err = peakRSSMB()
	return r, err
}

// phase starts a daemon on dir, points the clients at it, runs play
// once per client concurrently and stops the daemon. It returns the
// set-up time, the time play took and the /metrics deltas over play.
func phase(dir string, clients []*client, play func(i int)) (setup, wall time.Duration, deltas map[string]float64, err error) {
	t := time.Now()
	d, err := startDaemon(dir)
	if err != nil {
		return 0, 0, nil, err
	}
	setup = time.Since(t)
	for _, c := range clients {
		c.url = d.url
	}
	before, err := clients[0].scrape()
	if err == nil {
		t = time.Now()
		var wg sync.WaitGroup
		for i := range clients {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				play(i)
			}(i)
		}
		wg.Wait()
		wall = time.Since(t)
		var after map[string]float64
		if after, err = clients[0].scrape(); err == nil {
			deltas = metricsDelta(before, after)
		}
	}
	return setup, wall, deltas, errors.Join(err, d.stop())
}

// wireResult mirrors the result object of the daemon's run responses.
type wireResult struct {
	Name          string            `json:"name"`
	Mode          string            `json:"mode"`
	Cycles        uint64            `json:"cycles"`
	StartupCycles uint64            `json:"startup_cycles"`
	Checksum      string            `json:"checksum"`
	Ops           int64             `json:"ops"`
	MeanLatency   float64           `json:"mean_latency"`
	Counters      map[string]uint64 `json:"counters"`
	Attempts      int               `json:"attempts"`
	Error         string            `json:"error"`
}

// expectedWire is what the daemon should have served for res.
func expectedWire(res *harness.Result) wireResult {
	w := wireResult{
		Name:          res.Name,
		Mode:          res.Mode.String(),
		Cycles:        res.Cycles,
		StartupCycles: res.StartupCycles,
		Checksum:      fmt.Sprintf("%#x", res.Output.Checksum),
		Ops:           res.Output.Ops,
		MeanLatency:   res.Output.MeanLatency,
		Counters:      map[string]uint64{},
		Attempts:      res.Attempts,
	}
	for _, e := range perf.Events() {
		if v := res.Counters.Get(e); v != 0 {
			w.Counters[e.String()] = v
		}
	}
	if res.Err != nil {
		w.Error = res.Err.Error()
	}
	return w
}

// verify re-runs every spec the daemon simulated on a fresh Runner and
// compares each with the result the daemon served. It returns the
// simulated counters of one round and the number of specs.
func (b *daemonBench) verify() (simTotals, int) {
	b.mu.Lock()
	keys := make([]string, 0, len(b.first))
	for k := range b.first {
		keys = append(keys, k)
	}
	b.mu.Unlock()
	sort.Strings(keys)
	events := map[string]perf.Event{}
	for _, e := range perf.Events() {
		events[e.String()] = e
	}

	var sim simTotals
	ref := harness.NewRunner(daemonEPC)
	ref.Jobs = 1
	for _, k := range keys {
		b.mu.Lock()
		raw, spec := b.first[k], b.specs[k]
		b.mu.Unlock()
		b.attempt(1)
		var got wireResult
		if err := json.Unmarshal(raw, &got); err != nil {
			b.failf("daemon: key %s: %v", k, err)
			continue
		}
		for name, v := range got.Counters {
			sim.counters[events[name]] += v
		}
		sim.cycles += got.Cycles
		sim.startup += got.StartupCycles

		key, err := ref.Key(spec)
		if err != nil || key.String() != k {
			b.failf("daemon: key %s does not match its spec %s (%v)", k, spec.WorkloadName(), err)
			continue
		}
		res, err := ref.Run(spec)
		if err != nil {
			b.failf("daemon: reference run of %s: %v", spec.WorkloadName(), err)
			continue
		}
		if want := expectedWire(res); !reflect.DeepEqual(got, want) {
			b.failf("daemon: %s/%v seed %d: served result differs from a fresh reference run", spec.WorkloadName(), spec.Mode, spec.Seed)
		}
	}
	return sim, len(keys)
}

// runDaemon plays rounds of the seeded mix until the run's time is
// spent. In a traced run the second half of the rounds run under a
// CPU profile and give the per-layer metrics.
func runDaemon(opt options) (*outcome, error) {
	sc, err := newScript(opt.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer(time.Now())
	out := &outcome{}
	b := &daemonBench{tr: tr, out: out, first: map[string]json.RawMessage{}, specs: map[string]harness.Spec{}}

	var plain, traced []round
	begin := time.Now()
	for time.Since(begin) < opt.seconds || len(plain) == 0 || (opt.trace && len(traced) == 0) {
		isTraced := opt.trace && len(plain) > 0 && time.Since(begin) >= opt.seconds/2
		if isTraced && !tr.on {
			if err := tr.start(); err != nil {
				return nil, err
			}
		}
		r, err := b.round(sc)
		if err != nil {
			return nil, err
		}
		if isTraced {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	if tr.on {
		if err := tr.stop(); err != nil {
			return nil, err
		}
	}
	sim, nspecs := b.verify()

	setups, walls, lat, rate := roundTimes(plain)
	peaks := make([]float64, len(plain))
	for i, r := range plain {
		peaks[i] = r.peakMB
	}
	out.metrics = map[string]float64{
		"setup_s":     median(setups),
		"wall_s":      median(walls),
		"peak_rss_mb": median(peaks),
	}
	out.note("rounds %d untraced, %d traced; %d requests per round", len(plain), len(traced), plain[0].requests)
	out.note("setup_s      %.6f s (median of %d, fresh start plus restart)", median(setups), len(setups))
	out.note("wall_s       %.4f s (median of %d rounds)", median(walls), len(walls))
	out.note("req_per_s    %.1f", rate)
	noteClasses(out, lat)
	out.note("peak_rss_mb  %.1f MB (median of %d round peaks)", median(peaks), len(peaks))
	out.note("error_rate   %d/%d", out.failed, out.attempted)
	out.note("simulated    %d distinct specs per round", nspecs)

	if opt.trace {
		_, tw, tlat, trate := roundTimes(traced)
		m := layerMetrics(tr, len(traced), sim)
		d := traced[len(traced)-1].deltas
		m["serve.runs"] = d[mRuns]
		m["serve.coalesced"] = d[mCoalesced]
		m["serve.cache_hit_ratio"] = ratio(d[mHits], d[mHits]+d[mMisses])
		m["serve.admission_rejected"] = d[mRejected]
		m["store.puts"] = d[mPuts]
		m["store.hits"] = d[mStoreHits]
		m["journal.records"] = d[mRecords]
		m["serve.req_per_s"] = trate
		m["serve.cold_p50_ms"] = median(tlat[classCold])
		m["serve.cold_p90_ms"], _ = tail(tlat[classCold], 0.9)
		m["serve.warm_p50_us"] = median(tlat[classWarm])
		m["serve.warm_p99_us"], _ = tail(tlat[classWarm], 0.99)
		m["serve.coalesced_p50_ms"] = median(tlat[classCoalesced])
		m["serve.sweep_p50_ms"] = median(tlat[classSweep])
		m["serve.disk_p50_us"] = median(tlat[classDisk])
		m["trace.overhead_share"] = median(tw)/median(walls) - 1
		out.metrics = m
		noteLayers(out, tr, len(traced))
		if err := tr.write(traceDir(opt)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// roundTimes pools the rounds' set-up and wall times in seconds, and
// request latencies per class in the class's unit. rate is requests
// per second of wall time.
func roundTimes(rounds []round) (setups, walls []float64, lat [numClasses][]float64, rate float64) {
	var reqs int
	var wall time.Duration
	for _, r := range rounds {
		setups = append(setups, r.setup.Seconds())
		walls = append(walls, r.wall.Seconds())
		reqs += r.requests
		wall += r.wall
		for c := range r.lat {
			unit, _ := class(c).unit()
			lat[c] = append(lat[c], durations(r.lat[c], unit)...)
		}
	}
	return setups, walls, lat, float64(reqs) / wall.Seconds()
}

// noteClasses adds every request class's median and tail to the report.
func noteClasses(out *outcome, lat [numClasses][]float64) {
	for c, xs := range lat {
		_, unit := class(c).unit()
		out.note("%-16s %.4f %s (n=%d)", classNames[c]+"_p50_"+unit, median(xs), unit, len(xs))
		q, tname := 0.9, classNames[c]+"_p90_"+unit
		if unit == "us" {
			q, tname = 0.99, classNames[c]+"_p99_"+unit
		}
		noteTail(out, tname, xs, q, unit)
	}
}
